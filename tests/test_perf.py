"""The perf telemetry registry: timers, counters, merge, report."""

import pytest

from repro.perf import PerfRegistry, count, get_registry, timed


def test_timer_accumulates():
    reg = PerfRegistry()
    for _ in range(3):
        with reg.timer("phase"):
            pass
    stat = reg.timers["phase"]
    assert stat.count == 3
    assert stat.total >= 0.0
    assert stat.min <= stat.mean <= stat.max


def test_timer_records_on_exception():
    reg = PerfRegistry()
    with pytest.raises(RuntimeError):
        with reg.timer("boom"):
            raise RuntimeError("x")
    assert reg.timers["boom"].count == 1


def test_counters():
    reg = PerfRegistry()
    reg.count("evals", 10)
    reg.count("evals", 5)
    assert reg.counters["evals"] == 15


def test_snapshot_merge_round_trip():
    a = PerfRegistry()
    with a.timer("t"):
        pass
    a.count("c", 2)
    b = PerfRegistry()
    with b.timer("t"):
        pass
    b.count("c", 3)
    a.merge(b.snapshot())
    assert a.timers["t"].count == 2
    assert a.counters["c"] == 5


def test_snapshot_is_plain_data():
    import json

    reg = PerfRegistry()
    with reg.timer("t"):
        pass
    reg.count("c")
    json.dumps(reg.snapshot())  # must not raise


def test_reset():
    reg = PerfRegistry()
    reg.count("c")
    with reg.timer("t"):
        pass
    reg.reset()
    assert not reg.timers and not reg.counters


def test_report_renders():
    reg = PerfRegistry()
    assert "no telemetry" in reg.report()
    with reg.timer("optimizer.search"):
        pass
    reg.count("optimizer.evaluations", 1000)
    text = reg.report()
    assert "optimizer.search" in text
    assert "optimizer.evaluations" in text


def test_global_registry_helpers():
    reg = get_registry()
    before = reg.counters.get("test.helper", 0)
    count("test.helper", 4)
    assert reg.counters["test.helper"] == before + 4
    with timed("test.helper.timer"):
        pass
    assert reg.timers["test.helper.timer"].count >= 1


def test_to_json_from_json_round_trip():
    reg = PerfRegistry()
    with reg.timer("t"):
        pass
    reg.count("c", 7)
    clone = PerfRegistry.from_json(reg.to_json())
    assert clone.counters == {"c": 7}
    assert clone.timers["t"].count == 1
    assert clone.timers["t"].total == reg.timers["t"].total
    assert clone.timers["t"].min == reg.timers["t"].min
    assert clone.timers["t"].max == reg.timers["t"].max


def test_to_json_is_strict_json():
    """A zero-count timer's placeholder min is inf in a live registry;
    the wire format must still be strict JSON (no Infinity token)."""
    import json

    reg = PerfRegistry()
    reg.merge({"timers": {"idle": {"count": 0, "total": 0.0,
                                   "min": float("inf"), "max": 0.0}},
               "counters": {}})
    text = reg.to_json()
    assert "Infinity" not in text
    data = json.loads(text)  # strict decode must not raise
    assert data["timers"]["idle"]["min"] == 0.0


def test_merge_ignores_zero_count_min_max():
    reg = PerfRegistry()
    reg.add_time("t", 0.5)
    reg.merge({"timers": {"t": {"count": 0, "total": 0.0,
                                "min": 0.0, "max": 0.0}},
               "counters": {}})
    assert reg.timers["t"].min == 0.5
    assert reg.timers["t"].max == 0.5
    assert reg.timers["t"].count == 1


def test_report_renders_zero_count_timer():
    reg = PerfRegistry.from_json(
        '{"counters": {}, "timers": {"idle": {"count": 0, "max": 0.0, '
        '"min": 0.0, "total": 0.0}}}'
    )
    text = reg.report()
    assert "idle" in text
    assert "inf" not in text and "nan" not in text


def test_worker_snapshot_hand_off():
    """The process-boundary pattern the service uses: a worker's delta
    travels as JSON text and folds into the parent's registry."""
    worker = PerfRegistry()
    with worker.timer("engine.solve"):
        pass
    worker.count("engine.items", 3)
    wire = worker.to_json()

    parent = PerfRegistry()
    parent.count("engine.items", 1)
    parent.merge(PerfRegistry.from_json(wire).snapshot())
    assert parent.counters["engine.items"] == 4
    assert parent.timers["engine.solve"].count == 1


def test_optimizer_records_telemetry(paper_session):
    from repro.opt import DesignSpace, ExhaustiveOptimizer, make_policy

    reg = get_registry()
    before = reg.counters.get("optimizer.evaluations", 0)
    optimizer = ExhaustiveOptimizer(
        paper_session.model("hvt"),
        DesignSpace(n_pre_max=5, n_wr_max=4),
        paper_session.constraint("hvt"),
    )
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    result = optimizer.optimize(1024 * 8, policy)
    assert reg.counters["optimizer.evaluations"] == (
        before + result.n_evaluated
    )
    assert reg.timers["optimizer.search"].count >= 1
