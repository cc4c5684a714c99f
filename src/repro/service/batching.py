"""Request batching by backlog: no request waits for a timer.

The server enqueues each (cache- and singleflight-missed) request into
a :class:`BatchQueue` under its compatibility ``group_key``
(:meth:`~repro.service.api.OptimizeRequest.group_key`).  A request
whose kind has no batched kernel is dispatched the moment it is
enqueued, as a batch of one.  A request of a *coalescing* kind (the
``coalesce`` set; the server passes
:data:`~repro.service.engines.COALESCING_KINDS`) is dispatched at once
when its group has no dispatch in flight; otherwise it joins the
group's waiting batch, which is sent when a dispatch of that group
finishes or when it reaches ``max_batch`` items.  So a Monte Carlo
batch holds exactly what arrived during the previous solve, and an
idle service never holds a request back.  One batch becomes one worker
dispatch: the whole batch crosses the executor boundary together and
(for Monte Carlo) coalesces into a single vectorized solve.

Backpressure is a hard bound on in-flight items (queued plus
executing) of every kind: :meth:`enqueue` raises :class:`QueueFull`
once ``max_pending`` is reached, and the server turns that into
``429 Too Many Requests`` with a ``Retry-After`` hint.  :meth:`drain`
sends every waiting batch and awaits all outstanding dispatches — the
graceful-shutdown path.
"""

from __future__ import annotations

import asyncio
from collections import Counter

from ..errors import ReproError


class QueueFull(ReproError):
    """The batcher's pending bound was hit (HTTP 429)."""

    #: The ``Retry-After`` hint [s]: a full queue clears within about
    #: one dispatch, which is well under a second.
    retry_after = 1

    def __init__(self, pending, max_pending):
        super().__init__(
            "service at capacity: %d of %d requests in flight"
            % (pending, max_pending)
        )


class _Entry:
    __slots__ = ("item", "future")

    def __init__(self, item, future):
        self.item = item
        self.future = future


class BatchQueue:
    """Group-keyed queue that batches only behind an in-flight dispatch.

    ``dispatch`` is an async callable ``(group_key, items) -> results``
    returning one result per item, in order.  Results resolve each
    item's future; a dispatch exception rejects every future of that
    batch (other batches are unaffected).  ``coalesce`` names the kinds
    (``group_key[0]``) whose requests may share a dispatch.
    """

    def __init__(self, dispatch, max_batch=8, max_pending=64,
                 on_batch=None, coalesce=()):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self._dispatch = dispatch
        self.max_batch = int(max_batch)
        self.max_pending = int(max_pending)
        self.coalesce = frozenset(coalesce)
        self._on_batch = on_batch      # callback(kind, batch_size)
        self._waiting = {}             # group_key -> [Entry] to send next
        self._in_flight = Counter()    # group_key -> running dispatches
        self._tasks = set()            # outstanding dispatch tasks
        self._pending = 0              # queued + executing items
        self._closed = False

    @property
    def pending(self):
        return self._pending

    def enqueue(self, group_key, item):
        """Queue one item; returns the future its result resolves.

        Raises :class:`QueueFull` at the pending bound and
        :class:`RuntimeError` after :meth:`drain` (the server answers
        503 while draining, so this is a programming-error guard).
        """
        if self._closed:
            raise RuntimeError("batch queue is draining")
        if self._pending >= self.max_pending:
            raise QueueFull(self._pending, self.max_pending)
        entry = _Entry(item, asyncio.get_running_loop().create_future())
        self._pending += 1
        if group_key[0] not in self.coalesce \
                or not self._in_flight[group_key]:
            self._send(group_key, [entry])
        else:
            waiting = self._waiting.setdefault(group_key, [])
            waiting.append(entry)
            if len(waiting) >= self.max_batch:
                self._send(group_key, self._waiting.pop(group_key))
        return entry.future

    def _send(self, group_key, entries):
        self._in_flight[group_key] += 1
        task = asyncio.get_running_loop().create_task(
            self._run(group_key, entries)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run(self, group_key, entries):
        try:
            if self._on_batch is not None:
                self._on_batch(group_key[0], len(entries))
            results = await self._dispatch(
                group_key, [entry.item for entry in entries]
            )
            if len(results) != len(entries):
                raise RuntimeError(
                    "dispatch returned %d results for %d items"
                    % (len(results), len(entries))
                )
            for entry, result in zip(entries, results):
                if not entry.future.done():
                    entry.future.set_result(result)
        except Exception as exc:
            for entry in entries:
                if not entry.future.done():
                    entry.future.set_exception(exc)
        finally:
            self._pending -= len(entries)
            self._in_flight[group_key] -= 1
            if not self._in_flight[group_key]:
                del self._in_flight[group_key]
            # What arrived during this dispatch leaves now, as one batch.
            waiting = self._waiting.pop(group_key, None)
            if waiting:
                self._send(group_key, waiting)

    async def drain(self):
        """Send every waiting batch and await outstanding dispatches."""
        self._closed = True
        for group_key in list(self._waiting):
            self._send(group_key, self._waiting.pop(group_key))
        while self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)
