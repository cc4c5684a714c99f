"""Backlog batching (repro.service.batching).

Kinds without a batched kernel dispatch the moment they are enqueued;
a coalescing kind dispatches at once when its group is idle, and what
arrives during its group's dispatch leaves as one batch when that
dispatch finishes.  The scenarios hold dispatches open on an
:class:`asyncio.Event` instead of sleeping.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service.batching import BatchQueue, QueueFull

MC = ("montecarlo", "hvt", ("hsnm",))
EV = ("evaluate", "hvt")


class Recorder:
    """A dispatch stub that records every batch and holds each one
    open until :attr:`release` is set."""

    def __init__(self, fail_on=None):
        self.batches = []
        self.release = asyncio.Event()
        self.fail_on = fail_on      # group_key that should raise

    async def __call__(self, group_key, items):
        self.batches.append((group_key, list(items)))
        await self.release.wait()
        if group_key == self.fail_on:
            raise RuntimeError("engine exploded")
        return ["r:%s" % item for item in items]


async def settle():
    """Let every ready dispatch task start."""
    for _ in range(3):
        await asyncio.sleep(0)


def run_held(keyed_items, fail_on=None, **queue_options):
    """Enqueue ``(group_key, item)`` pairs on a montecarlo-coalescing
    queue, note the batches in flight, release them, and return
    ``(in_flight, batches, results, pending)``; results (exceptions
    included) are in enqueue order."""
    async def scenario():
        dispatch = Recorder(fail_on=fail_on)
        queue = BatchQueue(dispatch, coalesce={"montecarlo"},
                           **queue_options)
        futures = [queue.enqueue(key, item) for key, item in keyed_items]
        await settle()
        in_flight = list(dispatch.batches)
        dispatch.release.set()
        results = await asyncio.gather(*futures, return_exceptions=True)
        return in_flight, dispatch.batches, results, queue.pending

    return asyncio.run(scenario())


def test_non_coalescing_kinds_dispatch_at_once():
    in_flight, _, results, pending = run_held([(EV, i) for i in range(3)])
    # Three batches of one, all in flight together.
    assert in_flight == [(EV, [0]), (EV, [1]), (EV, [2])]
    assert results == ["r:0", "r:1", "r:2"]
    assert pending == 0


def test_idle_coalescing_group_dispatches_at_once():
    in_flight, _, results, _ = run_held([(MC, 0)])
    assert in_flight == [(MC, [0])]
    assert results == ["r:0"]


def test_arrivals_during_a_dispatch_leave_as_one_batch():
    in_flight, batches, results, pending = run_held(
        [(MC, i) for i in range(4)])
    # Nothing left while the first solve ran; then one ordered batch.
    assert in_flight == [(MC, [0])]
    assert batches == [(MC, [0]), (MC, [1, 2, 3])]
    assert results == ["r:0", "r:1", "r:2", "r:3"]
    assert pending == 0


def test_max_batch_triggers_immediate_flush():
    in_flight, batches, _, _ = run_held([(MC, i) for i in range(5)],
                                        max_batch=3)
    # The waiting batch left at 3 items, before the first finished.
    assert in_flight == [(MC, [0]), (MC, [1, 2, 3])]
    assert batches == [(MC, [0]), (MC, [1, 2, 3]), (MC, [4])]


def test_max_batch_one_disables_coalescing():
    in_flight, _, _, _ = run_held([(MC, i) for i in range(3)], max_batch=1)
    assert in_flight == [(MC, [0]), (MC, [1]), (MC, [2])]


def test_groups_never_mix():
    """A busy montecarlo group holds back only its own arrivals."""
    other = ("montecarlo", "hvt", ("hsnm", "rsnm"))
    in_flight, batches, _, _ = run_held(
        [(MC, 0), (MC, 1), (other, 0), (other, 1)])
    assert in_flight == [(MC, [0]), (other, [0])]
    assert sorted(batches[2:]) == [(MC, [1]), (other, [1])]


def test_dispatch_failure_rejects_only_its_batch():
    _, _, results, pending = run_held(
        [(EV, 0), (MC, 0), (MC, 1)], fail_on=MC)
    assert results[0] == "r:0"
    assert all(isinstance(r, RuntimeError) for r in results[1:])
    assert pending == 0


def test_raising_dispatch_releases_the_waiting_batch():
    _, batches, results, pending = run_held([(MC, i) for i in range(3)],
                                            fail_on=MC)
    # The failed first dispatch still sent what waited behind it.
    assert batches == [(MC, [0]), (MC, [1, 2])]
    assert all(isinstance(r, RuntimeError) for r in results)
    assert pending == 0


def test_on_batch_callback_sees_kind_and_size():
    seen = []
    run_held([(MC, 0), (MC, 1), (MC, 2), (EV, 0)],
             on_batch=lambda kind, size: seen.append((kind, size)))
    assert seen == [("montecarlo", 1), ("evaluate", 1), ("montecarlo", 2)]


def test_backpressure_raises_queue_full():
    """``max_pending`` bounds queued plus executing items of every kind,
    and the Retry-After hint is one second."""
    async def scenario():
        dispatch = Recorder()
        queue = BatchQueue(dispatch, max_pending=3,
                           coalesce={"montecarlo"})
        # The second MC item waits behind the first: still pending.
        accepted = [queue.enqueue(key, i)
                    for i, key in enumerate((EV, MC, MC))]
        for group_key in (("optimize", "hvt"), MC):
            with pytest.raises(QueueFull) as excinfo:
                queue.enqueue(group_key, 9)
            assert excinfo.value.retry_after == 1
        dispatch.release.set()
        results = await asyncio.gather(*accepted)
        # Capacity freed: accepted again.
        return results, await queue.enqueue(("optimize", "hvt"), 3)

    assert asyncio.run(scenario()) == (["r:0", "r:1", "r:2"], "r:3")


def test_result_count_mismatch_rejects_batch():
    async def one_result(group_key, items):
        await asyncio.sleep(0)
        return ["only-one"]

    async def scenario():
        queue = BatchQueue(one_result, coalesce={"montecarlo"})
        futures = [queue.enqueue(MC, i) for i in range(3)]
        return await asyncio.gather(*futures, return_exceptions=True)

    results = asyncio.run(scenario())
    # The lone first item matched its one result; the coalesced pair
    # behind it got one result for two items and failed as a whole.
    assert results[0] == "only-one"
    assert all(isinstance(r, RuntimeError) for r in results[1:])


def test_drain_flushes_queued_items_and_closes():
    async def scenario():
        dispatch = Recorder()
        queue = BatchQueue(dispatch, coalesce={"montecarlo"})
        futures = [queue.enqueue(MC, i) for i in range(3)]
        drained = asyncio.ensure_future(queue.drain())
        await settle()
        # Drain sent the waiting batch without waiting for the first.
        in_flight = list(dispatch.batches)
        with pytest.raises(RuntimeError, match="draining"):
            queue.enqueue(MC, 99)
        dispatch.release.set()
        await drained
        return in_flight, await asyncio.gather(*futures), queue.pending

    in_flight, results, pending = asyncio.run(scenario())
    assert in_flight == [(MC, [0]), (MC, [1, 2])]
    assert results == ["r:0", "r:1", "r:2"]
    assert pending == 0


def test_constructor_validation():
    async def noop(group_key, items):
        return items

    with pytest.raises(ValueError):
        BatchQueue(noop, max_batch=0)
    for removed in ({"max_wait": 0.005}, {"overrides": {}}):
        with pytest.raises(TypeError):
            BatchQueue(noop, **removed)


def test_incompatible_optimize_requests_never_share_a_group():
    """Requests that differ in flavor or endpoint kind land in different
    groups, and no search kind coalesces: even two compatible optimizes
    dispatch one by one.  Capacity and method ride per-item, and a
    legacy ``engine`` field is ignored."""
    from repro.service.api import parse_request

    requests = [parse_request(route, body) for route, body in [
        ("/v1/optimize", {"capacity_bytes": 1024, "flavor": "hvt",
                          "method": "M1", "engine": "fused"}),
        ("/v1/optimize", {"capacity_bytes": 4096, "flavor": "hvt",
                          "method": "M2", "engine": "vectorized"}),
        ("/v1/optimize", {"capacity_bytes": 1024, "flavor": "lvt",
                          "method": "M1"}),
        ("/v1/pareto", {"capacity_bytes": 1024, "flavor": "hvt",
                        "method": "M1"}),
        ("/v1/evaluate", {"flavor": "hvt", "design": {
            "n_r": 128, "n_c": 64, "n_pre": 4, "n_wr": 4,
            "v_ddc": 0.9, "v_wl": 0.9}}),
    ]]
    in_flight, _, _, _ = run_held(
        [(req.group_key(), req.item()) for req in requests], max_batch=10)
    assert [key for key, _ in in_flight] == [
        ("optimize", "hvt"), ("optimize", "hvt"), ("optimize", "lvt"),
        ("pareto", "hvt"), ("evaluate", "hvt"),
    ]
    assert [(item["capacity_bytes"], item["method"])
            for _, (item,) in in_flight[:2]] == [(1024, "M1"), (4096, "M2")]
