"""The parallel study runner: determinism, telemetry, executor parity."""

import pytest

from repro.analysis import optimize_all
from repro.analysis.runner import (
    StudyTask,
    run_study,
    study_matrix,
)
from repro.errors import ReproError, StudyTaskError
from repro.opt import DesignSpace, ExhaustiveOptimizer, make_policy

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
    assert run.executor == "serial"
    assert run.workers == 1


def test_thread_pool_matches_serial(paper_session):
    serial = run_study(session=paper_session, capacities=CAPACITIES,
                       workers=1)
    threaded = run_study(session=paper_session, capacities=CAPACITIES,
                         workers=2, executor="thread")
    assert _edp_map(threaded.sweep) == _edp_map(serial.sweep)
    assert threaded.executor == "thread"
    assert threaded.workers == 2


def test_process_pool_matches_serial(paper_session):
    serial = run_study(session=paper_session, capacities=CAPACITIES,
                       workers=1)
    parallel = run_study(session=paper_session, capacities=CAPACITIES,
                         workers=2, executor="process")
    assert _edp_map(parallel.sweep) == _edp_map(serial.sweep)
    # Designs round-trip through pickling intact.
    for key, result in parallel.sweep.results.items():
        assert result.design == serial.sweep.results[key].design
        assert result.n_evaluated == serial.sweep.results[key].n_evaluated
    assert parallel.executor == "process"


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


def test_unknown_executor_rejected(paper_session):
    with pytest.raises(ValueError):
        run_study(session=paper_session, capacities=CAPACITIES,
                  workers=2, executor="carrier-pigeon")


@pytest.mark.parametrize("executor,workers", [
    ("serial", 1),
    ("thread", 2),
    ("process", 2),
])
def test_worker_failure_surfaces_task_label(paper_session, executor,
                                            workers):
    """A task raising mid-study must fail the run promptly (no
    deadlock), name the matrix cell that died, and keep the original
    exception as the cause — on every executor."""
    with pytest.raises(StudyTaskError) as excinfo:
        run_study(session=paper_session, capacities=CAPACITIES,
                  workers=workers, executor=executor,
                  space=PoisonedSpace())
    error = excinfo.value
    assert isinstance(error, ReproError)
    assert error.task_label == "256B/LVT/M1"
    assert "256B/LVT/M1" in str(error)
    assert "injected mid-study fault" in str(error)
    assert isinstance(error.__cause__, RuntimeError)


def test_runner_usable_after_failure(paper_session):
    """A failed parallel study shuts its pool down cleanly; the same
    session immediately runs a healthy study afterwards."""
    with pytest.raises(StudyTaskError):
        run_study(session=paper_session, capacities=CAPACITIES,
                  workers=2, executor="thread", space=PoisonedSpace())
    run = run_study(session=paper_session, capacities=CAPACITIES,
                    workers=2, executor="thread")
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
