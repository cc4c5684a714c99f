"""Dynamic request batching with a max-batch / max-wait policy.

The server enqueues each (cache- and singleflight-missed) request into
a :class:`BatchQueue` under its compatibility ``group_key``
(:meth:`~repro.service.api.OptimizeRequest.group_key`).  A group's
first arrival starts a ``max_wait`` timer; the group flushes when the
timer fires *or* the group reaches ``max_batch`` items, whichever comes
first.  One flush becomes one worker dispatch — the whole batch crosses
the executor boundary together, shares a warm session, and (for Monte
Carlo requests) coalesces into a single vectorized solve.
Per-endpoint ``overrides`` tune ``max_batch`` / ``max_wait`` by request
kind — e.g. let ``montecarlo`` wait a little longer to fill wider
coalesced solves while ``evaluate`` stays latency-biased.

Backpressure is a hard bound on in-flight items (queued plus
executing): :meth:`enqueue` raises :class:`QueueFull` once ``max_pending``
is reached, and the server turns that into ``429 Too Many Requests``
with a ``Retry-After`` hint.  :meth:`drain` flushes everything queued
and awaits all outstanding dispatches — the graceful-shutdown path.
"""

from __future__ import annotations

import asyncio

from ..errors import ReproError


class QueueFull(ReproError):
    """The batcher's pending bound was hit (HTTP 429)."""

    def __init__(self, pending, max_pending, retry_after):
        super().__init__(
            "service at capacity: %d of %d requests in flight"
            % (pending, max_pending)
        )
        self.retry_after = retry_after


class _Entry:
    __slots__ = ("item", "future")

    def __init__(self, item, future):
        self.item = item
        self.future = future


class BatchQueue:
    """Group-keyed queue that flushes on max-batch or max-wait.

    ``dispatch`` is an async callable ``(group_key, items) -> results``
    returning one result per item, in order.  Results resolve each
    item's future; a dispatch exception rejects every future of that
    batch (other batches are unaffected).
    """

    def __init__(self, dispatch, max_batch=8, max_wait=0.005,
                 max_pending=64, on_batch=None, overrides=None):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        self._dispatch = dispatch
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.max_pending = int(max_pending)
        # Per-endpoint-kind limit overrides: {kind: {"max_batch": int,
        # "max_wait": float}} with either key optional.  A kind not
        # listed uses the queue-wide limits.
        self.overrides = {}
        for kind, limits in (overrides or {}).items():
            limits = dict(limits)
            unknown = set(limits) - {"max_batch", "max_wait"}
            if unknown:
                raise ValueError(
                    "unknown override keys for %r: %s"
                    % (kind, ", ".join(sorted(unknown)))
                )
            if "max_batch" in limits:
                limits["max_batch"] = int(limits["max_batch"])
                if limits["max_batch"] <= 0:
                    raise ValueError(
                        "max_batch override for %r must be positive"
                        % (kind,)
                    )
            if "max_wait" in limits:
                limits["max_wait"] = float(limits["max_wait"])
                if limits["max_wait"] < 0:
                    raise ValueError(
                        "max_wait override for %r must be non-negative"
                        % (kind,)
                    )
            if limits:
                self.overrides[kind] = limits
        self._on_batch = on_batch      # callback(kind, batch_size)
        self._groups = {}              # group_key -> [Entry]
        self._timers = {}              # group_key -> TimerHandle
        self._tasks = set()            # outstanding dispatch tasks
        self._pending = 0              # queued + executing items
        self._closed = False

    @property
    def pending(self):
        return self._pending

    @property
    def queued_groups(self):
        return len(self._groups)

    def max_batch_for(self, kind):
        """The flush size bound of one endpoint kind."""
        return self.overrides.get(kind, {}).get("max_batch",
                                                self.max_batch)

    def max_wait_for(self, kind):
        """The first-arrival timer of one endpoint kind [s]."""
        return self.overrides.get(kind, {}).get("max_wait",
                                                self.max_wait)

    def enqueue(self, group_key, item):
        """Queue one item; returns the future its result resolves.

        Raises :class:`QueueFull` at the pending bound and
        :class:`RuntimeError` after :meth:`drain` (the server answers
        503 while draining, so this is a programming-error guard).
        """
        if self._closed:
            raise RuntimeError("batch queue is draining")
        if self._pending >= self.max_pending:
            # A full queue clears within roughly one batch turnaround;
            # max_wait is the floor, 1s the polite ceiling hint.
            raise QueueFull(self._pending, self.max_pending,
                            retry_after=max(round(self.max_wait, 3), 1))
        loop = asyncio.get_running_loop()
        entry = _Entry(item, loop.create_future())
        self._pending += 1
        group = self._groups.setdefault(group_key, [])
        group.append(entry)
        kind = group_key[0]
        if len(group) >= self.max_batch_for(kind):
            self._flush(group_key)
        elif len(group) == 1:
            max_wait = self.max_wait_for(kind)
            if max_wait == 0.0:
                # Zero wait = batching off: still defer to a soon-call so
                # same-iteration arrivals (already-scheduled callbacks)
                # cannot starve, but never hold a request for a timer.
                self._timers[group_key] = loop.call_soon(
                    self._flush, group_key
                )
            else:
                self._timers[group_key] = loop.call_later(
                    max_wait, self._flush, group_key
                )
        return entry.future

    def _flush(self, group_key):
        entries = self._groups.pop(group_key, None)
        timer = self._timers.pop(group_key, None)
        if timer is not None:
            timer.cancel()
        if not entries:
            return
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

    async def drain(self):
        """Flush all queued groups and await outstanding dispatches."""
        self._closed = True
        for group_key in list(self._groups):
            self._flush(group_key)
        while self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)
