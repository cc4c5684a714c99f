"""The study runner: determinism, telemetry, and the process pool
answering like the caller."""

import os
import pickle
from dataclasses import replace

import pytest

from repro.analysis import Session, experiments, optimize_all
from repro.analysis.runner import (
    StudyTask,
    run_study,
    session_pool,
    study_matrix,
)
from repro.cell import montecarlo
from repro.errors import DesignSpaceError, ReproError, StudyTaskError
from repro.opt import DesignSpace, ExhaustiveOptimizer, make_policy
from tests.conftest import CACHE_PATH

#: Small matrix so the suite stays fast (2 x 2 x 2 = 8 tasks).
CAPACITIES = (128, 256)


class PoisonedSpace(DesignSpace):
    """Fails only the 256 B searches — module-level so the process pool
    can pickle it by reference."""

    def row_counts(self, capacity_bits):
        if capacity_bits == 256 * 8:
            raise RuntimeError("injected mid-study fault")
        return super().row_counts(capacity_bits)


def _edp_map(sweep):
    return {key: result.metrics.edp for key, result in sweep.results.items()}


def _designs(sweep):
    return {key: (result.design, result.metrics.edp)
            for key, result in sweep.results.items()}


def _never(*args, **kwargs):
    raise AssertionError("recomputed what the session already holds")


@pytest.fixture
def two_cpus(monkeypatch):
    """``run_study`` stays in the caller on a one-CPU host; the pool
    tests fork their pool there too."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_study_matrix_deterministic_order():
    tasks = study_matrix(CAPACITIES)
    assert tasks == study_matrix(CAPACITIES)
    assert len(tasks) == len(CAPACITIES) * 2 * 2
    assert tasks[0] == StudyTask(128, "lvt", "M1")
    assert len(set(task.key for task in tasks)) == len(tasks)


def test_serial_run_matches_optimize_all(paper_session):
    run = run_study(session=paper_session, capacities=CAPACITIES,
                    workers=1)
    reference = optimize_all(paper_session, capacities=CAPACITIES)
    assert _edp_map(run.sweep) == _edp_map(reference)
    assert run.workers == 1


def test_process_pool_matches_serial(paper_session, two_cpus):
    serial = run_study(session=paper_session, capacities=CAPACITIES,
                       workers=1)
    parallel = run_study(session=paper_session, capacities=CAPACITIES,
                         workers=2)
    assert _edp_map(parallel.sweep) == _edp_map(serial.sweep)
    # Designs round-trip through pickling intact.
    for key, result in parallel.sweep.results.items():
        assert result.design == serial.sweep.results[key].design
        assert result.n_evaluated == serial.sweep.results[key].n_evaluated
    assert parallel.workers == 2
    assert all(timing.worker not in (0, os.getpid())
               for timing in parallel.timings)


def test_pareto_and_yield_pool_match_the_caller(two_cpus):
    session = Session.create(cache_path=CACHE_PATH, voltage_mode="paper")
    fronts = {}
    for workers in (1, 2):
        run = run_study(session=session, capacities=CAPACITIES,
                        workers=workers, objective="pareto")
        assert run.workers == workers
        fronts[workers] = {key: result.front
                           for key, result in run.sweep.results.items()}
    assert fronts[2] == fronts[1]

    summaries = {}
    for workers in (1, 2):
        run = run_study(session=session, capacities=(1024, 16384),
                        flavors=("hvt",), methods=("M2",),
                        workers=workers, objective="yield")
        assert run.workers == workers
        summaries[workers] = run.sweep.summaries()
    assert repr(summaries[2]) == repr(summaries[1])


def test_one_cpu_host_runs_in_the_caller(paper_session, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    run = run_study(session=paper_session, capacities=CAPACITIES,
                    workers=2)
    assert run.workers == 1
    assert {timing.worker for timing in run.timings} == {0}


def test_pool_answers_with_the_callers_session(paper_session, two_cpus):
    """Workers run on the caller's session, not a default one: a
    W = 16 session keeps its own organizations in the pool (W = 64
    moves the 4 KB and 16 KB HVT/M2 row counts)."""
    narrow = Session(
        library=paper_session.library,
        config=replace(paper_session.config, word_bits=16),
        cache=paper_session.cache,
        voltage_mode=paper_session.voltage_mode,
        chars=paper_session.chars, cells=paper_session.cells,
        levels=paper_session.levels,
    )
    cells = dict(capacities=(4096, 16384), flavors=("hvt",),
                 methods=("M2",))
    caller = run_study(session=narrow, workers=1, **cells)
    pool = run_study(session=narrow, workers=2, **cells)
    assert pool.workers == 2
    assert _designs(pool.sweep) == _designs(caller.sweep)
    wide = run_study(session=paper_session, workers=1, **cells)
    assert _designs(wide.sweep) != _designs(caller.sweep)


def test_pool_never_characterizes_a_cacheless_session(paper_session,
                                                     two_cpus,
                                                     monkeypatch):
    """A session with no cache file reaches the workers whole; they
    inherit the stub below through fork and would raise if they
    characterized."""
    monkeypatch.setattr(experiments, "characterize", _never)
    cells = dict(capacities=CAPACITIES, flavors=("lvt",), methods=("M1",))
    pool = run_study(session=replace(paper_session, cache=None),
                     workers=2, **cells)
    assert pool.workers == 2
    caller = run_study(session=paper_session, workers=1, **cells)
    assert _designs(pool.sweep) == _designs(caller.sweep)


def test_shipped_session_round_trips_through_pickle(monkeypatch):
    """The session a pool's initializer receives survives pickling (the
    spawn and forkserver start methods pickle initializer arguments)
    with its memos: after a yield study the loaded copy answers the
    same study without one Monte Carlo SNM solve."""
    session = Session.create(cache_path=CACHE_PATH, voltage_mode="paper")
    cells = dict(capacities=(1024,), flavors=("hvt",), methods=("M2",),
                 objective="yield")
    caller = run_study(session=session, **cells)
    pool = session_pool(session, DesignSpace(), workers=2)
    pool.shutdown()
    shipped, _ = pool._initargs
    assert shipped.cache is None and session.cache is not None
    loaded = pickle.loads(pickle.dumps(shipped))
    monkeypatch.setattr(montecarlo, "snm_samples", _never)
    again = run_study(session=loaded, **cells)
    assert repr(again.sweep.summaries()) == repr(caller.sweep.summaries())


def test_timing_telemetry(paper_session):
    run = run_study(session=paper_session, capacities=CAPACITIES,
                    workers=1)
    tasks = study_matrix(CAPACITIES)
    assert len(run.timings) == len(tasks)
    # Telemetry rides in canonical task order regardless of completion.
    assert [t.task for t in run.timings] == list(tasks)
    for timing in run.timings:
        assert timing.seconds > 0
        assert timing.n_evaluated > 0
    assert run.total_seconds > 0
    assert run.task_seconds > 0


def test_report_renders(paper_session):
    run = run_study(session=paper_session, capacities=CAPACITIES,
                    workers=1)
    text = run.report()
    assert "Study runner telemetry" in text
    assert "128B/LVT/M1" in text
    assert "total wall time" in text


def test_sweep_report_still_works(paper_session):
    """The runner's sweep is a full SweepResult (tables render)."""
    run = run_study(session=paper_session, capacities=CAPACITIES,
                    workers=1)
    assert "Table 4" in run.sweep.report()


@pytest.mark.parametrize("arguments,error", [
    ({"objective": "energy"}, ValueError),
    ({"objective": "yield", "y_target": 0.0}, ValueError),
    ({"objective": "yield", "y_target": 1.0}, ValueError),
    ({"objective": "yield", "ci_target": 0.0}, ValueError),
    ({"objective": "yield", "ci_target": 1.0}, ValueError),
    ({"objective": "yield", "code": "parity-x9"}, DesignSpaceError),
    ({"objective": "yield", "sampler": "tarot"}, ValueError),
    ({"objective": "yield", "sampler": "naive"}, ValueError),
    ({"objective": "yield", "sampler": "antithetic"}, ValueError),
    ({"objective": "yield", "sampler": "stratified"}, ValueError),
], ids=["objective", "y_target-0", "y_target-1", "ci_target-0",
        "ci_target-1", "code", "sampler", "sampler-naive",
        "sampler-antithetic", "sampler-stratified"])
def test_bad_arguments_rejected(paper_session, arguments, error):
    """Rejected before any task runs."""
    with pytest.raises(error):
        run_study(session=paper_session, capacities=CAPACITIES,
                  **arguments)


@pytest.mark.parametrize("workers", [1, 2], ids=["serial-1", "process-2"])
def test_worker_failure_surfaces_task_label(paper_session, two_cpus,
                                            workers):
    """A task raising mid-study must fail the run promptly (no
    deadlock), name the matrix cell that died, and keep the original
    exception as the cause — in the caller and in the pool."""
    with pytest.raises(StudyTaskError) as excinfo:
        run_study(session=paper_session, capacities=CAPACITIES,
                  workers=workers, space=PoisonedSpace())
    error = excinfo.value
    assert isinstance(error, ReproError)
    assert error.task_label == "256B/LVT/M1"
    assert "256B/LVT/M1" in str(error)
    assert "injected mid-study fault" in str(error)
    assert isinstance(error.__cause__, RuntimeError)


def test_runner_usable_after_failure(paper_session, two_cpus):
    """A failed parallel study shuts its pool down cleanly; the same
    session immediately runs a healthy study afterwards."""
    with pytest.raises(StudyTaskError):
        run_study(session=paper_session, capacities=CAPACITIES,
                  workers=2, space=PoisonedSpace())
    run = run_study(session=paper_session, capacities=CAPACITIES,
                    workers=2)
    assert run.workers == 2
    assert len(run.sweep.results) == len(study_matrix(CAPACITIES))


def test_engine_parity_through_runner(paper_session):
    """Every runner cell equals the reference slice loop's answer."""
    run = run_study(session=paper_session, capacities=CAPACITIES,
                    workers=1)
    for (capacity, flavor, method), result in run.sweep.results.items():
        optimizer = ExhaustiveOptimizer(paper_session.model(flavor),
                                        DesignSpace(),
                                        paper_session.constraint(flavor))
        reference = optimizer.optimize_reference(
            capacity * 8,
            make_policy(method, paper_session.yield_levels(flavor)))
        assert result.design == reference.design
        assert result.metrics.edp == reference.metrics.edp
