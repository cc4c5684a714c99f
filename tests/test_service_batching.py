"""Dynamic batcher behavior (repro.service.batching)."""

from __future__ import annotations

import asyncio

import pytest

from repro.service.batching import BatchQueue, QueueFull


class Recorder:
    """A dispatch stub that records every batch it executes."""

    def __init__(self, delay=0.0, fail_on=None):
        self.batches = []
        self.delay = delay
        self.fail_on = fail_on      # group_key that should raise

    async def __call__(self, group_key, items):
        self.batches.append((group_key, list(items)))
        if self.delay:
            await asyncio.sleep(self.delay)
        if self.fail_on is not None and group_key == self.fail_on:
            raise RuntimeError("engine exploded")
        return ["r:%s" % item for item in items]


def run(coro):
    return asyncio.run(coro)


def test_max_batch_triggers_immediate_flush():
    async def scenario():
        dispatch = Recorder()
        queue = BatchQueue(dispatch, max_batch=3, max_wait=60.0)
        futures = [queue.enqueue(("g",), i) for i in range(3)]
        results = await asyncio.gather(*futures)
        return dispatch.batches, results

    batches, results = run(scenario())
    # One batch of three, flushed by size, long before the 60 s timer.
    assert batches == [(("g",), [0, 1, 2])]
    assert results == ["r:0", "r:1", "r:2"]


def test_max_wait_flushes_partial_batch():
    async def scenario():
        dispatch = Recorder()
        queue = BatchQueue(dispatch, max_batch=100, max_wait=0.01)
        futures = [queue.enqueue(("g",), i) for i in range(2)]
        results = await asyncio.gather(*futures)
        return dispatch.batches, results, queue.pending

    batches, results, pending = run(scenario())
    assert batches == [(("g",), [0, 1])]
    assert results == ["r:0", "r:1"]
    assert pending == 0


def test_groups_never_mix():
    async def scenario():
        dispatch = Recorder()
        queue = BatchQueue(dispatch, max_batch=10, max_wait=0.01)
        fa = [queue.enqueue(("a",), i) for i in range(2)]
        fb = [queue.enqueue(("b",), i) for i in range(2)]
        await asyncio.gather(*fa, *fb)
        return sorted(dispatch.batches)

    batches = run(scenario())
    assert batches == [(("a",), [0, 1]), (("b",), [0, 1])]


def test_zero_wait_disables_batching():
    async def scenario():
        dispatch = Recorder()
        queue = BatchQueue(dispatch, max_batch=100, max_wait=0.0)
        first = queue.enqueue(("g",), 0)
        await first
        second = queue.enqueue(("g",), 1)
        await second
        return dispatch.batches

    # Each request flushes on its own soon-call: two single-item batches.
    assert run(scenario()) == [(("g",), [0]), (("g",), [1])]


def test_backpressure_raises_queue_full():
    async def scenario():
        dispatch = Recorder(delay=0.05)
        queue = BatchQueue(dispatch, max_batch=1, max_wait=0.0,
                           max_pending=2)
        first = queue.enqueue(("g",), 0)
        second = queue.enqueue(("g",), 1)
        with pytest.raises(QueueFull) as excinfo:
            queue.enqueue(("g",), 2)
        assert excinfo.value.retry_after >= 0
        results = await asyncio.gather(first, second)
        # Capacity freed: accepted again.
        third = await queue.enqueue(("g",), 3)
        return results, third

    results, third = run(scenario())
    assert results == ["r:0", "r:1"]
    assert third == "r:3"


def test_dispatch_failure_rejects_only_its_batch():
    async def scenario():
        dispatch = Recorder(fail_on=("bad",))
        queue = BatchQueue(dispatch, max_batch=2, max_wait=0.01)
        good = [queue.enqueue(("good",), i) for i in range(2)]
        bad = [queue.enqueue(("bad",), i) for i in range(2)]
        good_results = await asyncio.gather(*good)
        bad_results = await asyncio.gather(*bad, return_exceptions=True)
        return good_results, bad_results, queue.pending

    good_results, bad_results, pending = run(scenario())
    assert good_results == ["r:0", "r:1"]
    assert all(isinstance(r, RuntimeError) for r in bad_results)
    assert pending == 0


def test_result_count_mismatch_rejects_batch():
    async def bad_dispatch(group_key, items):
        return ["only-one"]

    async def scenario():
        queue = BatchQueue(bad_dispatch, max_batch=2, max_wait=0.01)
        futures = [queue.enqueue(("g",), i) for i in range(2)]
        return await asyncio.gather(*futures, return_exceptions=True)

    results = run(scenario())
    assert all(isinstance(r, RuntimeError) for r in results)


def test_drain_flushes_queued_items_and_closes():
    async def scenario():
        dispatch = Recorder()
        queue = BatchQueue(dispatch, max_batch=100, max_wait=60.0)
        futures = [queue.enqueue(("g",), i) for i in range(3)]
        await queue.drain()
        results = await asyncio.gather(*futures)
        with pytest.raises(RuntimeError, match="draining"):
            queue.enqueue(("g",), 99)
        return dispatch.batches, results

    batches, results = run(scenario())
    # Drain flushed the partial batch without waiting out the timer.
    assert batches == [(("g",), [0, 1, 2])]
    assert results == ["r:0", "r:1", "r:2"]


def test_on_batch_callback_sees_kind_and_size():
    seen = []

    async def scenario():
        dispatch = Recorder()
        queue = BatchQueue(dispatch, max_batch=2, max_wait=0.01,
                           on_batch=lambda kind, size:
                           seen.append((kind, size)))
        await asyncio.gather(*[
            queue.enqueue(("montecarlo", "hvt"), i) for i in range(2)
        ])
        return seen

    assert run(scenario()) == [("montecarlo", 2)]


def test_constructor_validation():
    async def noop(group_key, items):
        return items

    with pytest.raises(ValueError):
        BatchQueue(noop, max_batch=0)
    with pytest.raises(ValueError):
        BatchQueue(noop, max_wait=-1.0)
    with pytest.raises(ValueError):
        BatchQueue(noop, overrides={"optimize": {"max_batch": 0}})
    with pytest.raises(ValueError):
        BatchQueue(noop, overrides={"optimize": {"max_wait": -1.0}})
    with pytest.raises(ValueError):
        BatchQueue(noop, overrides={"optimize": {"bogus": 1}})


def test_incompatible_optimize_requests_never_share_a_group():
    """Requests that differ in any group_key dimension — flavor or
    endpoint kind — dispatch separately; only same-group requests share
    a dispatch.  The method and capacity ride per-item, and a legacy
    ``engine`` field is ignored."""
    from repro.service.api import parse_request

    requests = [parse_request(route, body) for route, body in [
        ("/v1/optimize", {"capacity_bytes": 1024, "flavor": "hvt",
                          "method": "M1", "engine": "fused"}),
        ("/v1/optimize", {"capacity_bytes": 4096, "flavor": "hvt",
                          "method": "M2",
                          "engine": "vectorized"}),   # same group
        ("/v1/optimize", {"capacity_bytes": 1024, "flavor": "lvt",
                          "method": "M1"}),           # different flavor
        ("/v1/pareto", {"capacity_bytes": 1024, "flavor": "hvt",
                        "method": "M1"}),             # different kind
    ]]
    evaluate = parse_request("/v1/evaluate", {
        "flavor": "hvt",
        "design": {"n_r": 128, "n_c": 64, "n_pre": 4, "n_wr": 4,
                   "v_ddc": 0.9, "v_wl": 0.9},
    })

    async def scenario():
        dispatch = Recorder()
        queue = BatchQueue(dispatch, max_batch=10, max_wait=0.01)
        futures = [queue.enqueue(req.group_key(), req.item())
                   for req in requests]
        futures.append(queue.enqueue(evaluate.group_key(),
                                     evaluate.item()))
        await asyncio.gather(*futures)
        return dispatch.batches

    batches = run(scenario())
    groups = sorted(key for key, _ in batches)
    assert groups == [
        ("evaluate", "hvt"),
        ("optimize", "hvt"),
        ("optimize", "lvt"),
        ("pareto", "hvt"),
    ]
    # The two compatible searches rode the one hvt optimize batch.
    shared = dict(batches)[("optimize", "hvt")]
    assert [(item["capacity_bytes"], item["method"])
            for item in shared] == [(1024, "M1"), (4096, "M2")]


def test_per_endpoint_overrides_apply_per_kind():
    async def scenario():
        dispatch = Recorder()
        queue = BatchQueue(
            dispatch, max_batch=10, max_wait=60.0,
            overrides={"optimize": {"max_batch": 2},
                       "evaluate": {"max_wait": 0.01}},
        )
        assert queue.max_batch_for("optimize") == 2
        assert queue.max_wait_for("optimize") == 60.0
        assert queue.max_batch_for("evaluate") == 10
        assert queue.max_wait_for("montecarlo") == 60.0
        # optimize flushes at its overridden size bound of 2...
        opt = [queue.enqueue(("optimize", "hvt", "fused"), i)
               for i in range(2)]
        # ...while evaluate flushes on its overridden (short) timer
        # instead of the queue-wide 60 s one.
        ev = [queue.enqueue(("evaluate", "hvt"), i) for i in range(1)]
        await asyncio.gather(*opt, *ev)
        return sorted(dispatch.batches)

    batches = run(scenario())
    assert batches == [
        (("evaluate", "hvt"), [0]),
        (("optimize", "hvt", "fused"), [0, 1]),
    ]
