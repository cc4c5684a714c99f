"""Parallel study runner: fan the capacity x flavor x method matrix out
over a worker pool.

A full Table-4 / Figure-7 study is 20 independent exhaustive searches
(5 capacities x 2 flavors x 2 methods).  They share only *read-only*
state — the characterization LUTs and the memoized yield margins — so
the matrix parallelizes embarrassingly.  The executors:

* ``executor="process"`` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  whose workers each build their session from the (warm)
  characterization cache in their initializer — no pickling, no
  re-characterization.  The parent pre-computes the yield margins for the
  whole V_SSC candidate axis once and ships the memo to every worker
  (:meth:`YieldConstraint.seed_margin_memo`), so no process ever re-runs
  a butterfly the study already ran.
* ``executor="thread"`` — a thread pool sharing the parent session
  directly.  The heavy lifting is numpy broadcasting, which releases
  the GIL, so threads scale too while skipping worker start-up.
* ``executor="serial"`` — the plain loop (what
  :func:`repro.analysis.optimize_all` does), useful as the baseline.

Results are keyed by ``(capacity, flavor, method)`` and assembled into a
:class:`SweepResult` after every future resolves, so the outcome is
deterministic and independent of task completion order.  Every task
records wall time and evaluation counts (:class:`TaskTiming`), and the
workers' :mod:`repro.perf` registries are merged back into the parent's
so ``--profile`` accounts for every millisecond even across processes.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from .. import perf
from ..errors import StudyTaskError
from ..opt import DesignSpace, ExhaustiveOptimizer, make_policy
from .experiments import (
    CAPACITIES_BYTES,
    DEFAULT_CACHE_PATH,
    FLAVORS,
    METHODS,
    Session,
    SweepResult,
)
from .tables import render_dict_table
from ..units import capacity_label


@dataclass(frozen=True)
class StudyTask:
    """One cell of the study matrix."""

    capacity_bytes: int
    flavor: str
    method: str

    @property
    def key(self):
        return (self.capacity_bytes, self.flavor, self.method)

    @property
    def label(self):
        return "%s/%s/%s" % (
            capacity_label(self.capacity_bytes), self.flavor.upper(),
            self.method,
        )


def study_matrix(capacities=CAPACITIES_BYTES, flavors=FLAVORS,
                 methods=METHODS):
    """The full task matrix in canonical (deterministic) order."""
    return tuple(
        StudyTask(capacity, flavor, method)
        for flavor in flavors
        for method in methods
        for capacity in capacities
    )


@dataclass
class TaskTiming:
    """Per-task telemetry: where the study's milliseconds went."""

    task: StudyTask
    seconds: float
    n_evaluated: int
    worker: int   # pid (process pool) or 0 (in-process)

    def row(self):
        return {
            "task": self.task.label,
            "ms": round(self.seconds * 1e3, 2),
            "n_evaluated": self.n_evaluated,
            "worker": self.worker,
        }


@dataclass
class ParetoSweep:
    """Pareto fronts for every requested capacity/flavor/method cell."""

    results: dict         # (capacity_bytes, flavor, method) -> ParetoSearchResult
    voltage_mode: str

    def get(self, capacity_bytes, flavor, method):
        return self.results[(capacity_bytes, flavor, method)]

    def rows(self):
        rows = []
        for capacity, flavor, method in sorted(self.results):
            res = self.results[(capacity, flavor, method)]
            front = res.front
            rows.append({
                "cell": "%s/%s/%s" % (capacity_label(capacity),
                                      flavor.upper(), method),
                "front": len(front),
                "evaluated": res.n_evaluated,
                "min delay (ns)": min(p.d_array for p in front) * 1e9,
                "min energy (fJ)": min(p.e_total for p in front) * 1e15,
            })
        return rows

    def report(self):
        return render_dict_table(
            self.rows(),
            title="Energy-delay Pareto fronts (%s voltages)"
            % self.voltage_mode,
        )


@dataclass
class YieldSweep:
    """ECC-relaxed yield study cells keyed like the EDP sweep."""

    results: dict         # (capacity_bytes, flavor, method) -> YieldCellResult
    voltage_mode: str
    code: str
    y_target: float
    #: Margin-floor relaxation estimator the study ran with.
    sampler: str = "gaussian"

    def get(self, capacity_bytes, flavor, method):
        return self.results[(capacity_bytes, flavor, method)]

    def rows(self):
        return [self.results[key].row() for key in sorted(self.results)]

    def summaries(self):
        """JSON-safe per-cell payloads (the bench / service format)."""
        return [self.results[key].summary()
                for key in sorted(self.results)]

    def report(self):
        return render_dict_table(
            self.rows(),
            title="ECC-relaxed yield study: %s @ Y>=%g (%s voltages)"
            % (self.code, self.y_target, self.voltage_mode),
        )


@dataclass
class StudyRunResult:
    """A finished study: the sweep plus its execution telemetry."""

    sweep: SweepResult
    timings: list = field(default_factory=list)
    total_seconds: float = 0.0
    workers: int = 1
    executor: str = "serial"
    #: Why an ``executor="auto"`` request was downgraded (e.g. a
    #: single-CPU host), or None when the requested executor ran.
    fallback_reason: str = None

    @property
    def task_seconds(self):
        """Sum of per-task wall times (the serial-equivalent work)."""
        return sum(t.seconds for t in self.timings)

    def report(self):
        rows = [t.row() for t in self.timings]
        text = render_dict_table(
            rows,
            title="Study runner telemetry (%s, %d worker%s)"
            % (self.executor, self.workers,
               "" if self.workers == 1 else "s"),
        )
        text += (
            "\ntotal wall time: %.3f s   task time: %.3f s   "
            "parallel efficiency: %.0f%%"
            % (self.total_seconds, self.task_seconds,
               100.0 * self.task_seconds
               / (self.total_seconds * max(self.workers, 1) or 1.0))
        )
        if self.fallback_reason:
            text += "\nexecutor fallback: %s" % self.fallback_reason
        return text


# ---------------------------------------------------------------------------
# Worker-side machinery (module-level so the process pool can pickle it)
# ---------------------------------------------------------------------------

_WORKER_STATE = {}


def _objective_kind(objective):
    """The dispatch kind: ``"edp"``/``"pareto"`` pass as strings, the
    yield study ships its parameters as ``("yield", code, y_target,
    sampler, ci_target, max_samples)`` (a plain tuple so the process
    pool pickles it untouched)."""
    return objective if isinstance(objective, str) else objective[0]


def _worker_init(cache_path, voltage_mode, space, margin_memos):
    """Build one shared read-only session per worker process, from the
    characterization cache, seeded with the parent's margin memos."""
    # Fork-started workers inherit the parent's telemetry registry;
    # clear it so the first task's snapshot is this worker's delta only.
    perf.get_registry().reset()
    session = Session.create(cache_path=cache_path,
                             voltage_mode=voltage_mode)
    for flavor, memo in margin_memos.items():
        session.constraint(flavor).seed_margin_memo(memo)
    _WORKER_STATE["session"] = session
    _WORKER_STATE["space"] = space


def _run_task_in_worker(task, keep_landscape, objective="edp"):
    session = _WORKER_STATE["session"]
    space = _WORKER_STATE["space"]
    result, seconds = _execute_task(session, space, task, keep_landscape,
                                    objective)
    # Snapshot-and-reset so each returned snapshot is a disjoint delta;
    # the parent merges them all without double counting.
    registry = perf.get_registry()
    snapshot = registry.snapshot()
    registry.reset()
    return result, seconds, os.getpid(), snapshot


def _execute_task(session, space, task, keep_landscape, objective="edp"):
    if _objective_kind(objective) == "yield":
        from ..yields.study import compute_yield_cell_timed

        _, code, y_target, sampler, ci_target, max_samples = objective
        return compute_yield_cell_timed(
            session, task.capacity_bytes, task.flavor, task.method,
            code=code, y_target=y_target, space=space,
            sampler=sampler, ci_target=ci_target,
            max_samples=max_samples,
        )
    start = time.perf_counter()
    model = session.model(task.flavor)
    constraint = session.constraint(task.flavor)
    optimizer = ExhaustiveOptimizer(model, space, constraint)
    policy = make_policy(task.method, session.yield_levels(task.flavor))
    if objective == "pareto":
        result = optimizer.pareto(task.capacity_bytes * 8, policy)
    else:
        result = optimizer.optimize(task.capacity_bytes * 8, policy,
                                    keep_landscape=keep_landscape)
    return result, time.perf_counter() - start


def execute_study_task(session, space, task, keep_landscape=False):
    """Run one study-matrix cell; returns ``(result, seconds)``.

    This is the single execution path shared by :func:`run_study` and
    the durable job worker (:mod:`repro.jobs.worker`) — both produce
    identical :class:`OptimizationResult` values for the same inputs,
    which is what makes checkpointed resume bit-identical.
    """
    return _execute_task(session, space or DesignSpace(), task,
                         keep_landscape)


def _task_failure(task, exc):
    """Wrap a worker exception so the error names the matrix cell.

    A raw exception out of a pool future says nothing about *which* of
    the 20 searches raised; re-raising as :class:`StudyTaskError` (with
    the original as ``__cause__``) keeps the traceback and adds the
    label.
    """
    return StudyTaskError(
        "study task %s failed: %s: %s"
        % (task.label, type(exc).__name__, exc),
        task_label=task.label,
    )


def _cancel_pending(futures):
    """Best-effort cancel of not-yet-started futures after a failure, so
    one bad task fails the study promptly instead of running out the
    rest of the matrix first."""
    for future in futures:
        future.cancel()


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

def run_study(session=None, capacities=CAPACITIES_BYTES, flavors=FLAVORS,
              methods=METHODS, workers=None, executor="auto",
              keep_landscape=False, space=None,
              cache_path=None, voltage_mode="paper", objective="edp",
              code="secded", y_target=0.9, sampler="gaussian",
              ci_target=0.1, max_samples=4096):
    """Run the full study matrix, optionally across a worker pool.

    ``workers=None`` uses ``os.cpu_count()``; ``workers=1`` (or
    ``executor="serial"``) runs in-process.  ``executor="auto"`` picks a
    process pool when more than one worker is requested.  Returns a
    :class:`StudyRunResult` whose ``sweep`` is byte-for-byte the same
    :class:`SweepResult` a serial :func:`optimize_all` would produce,
    regardless of worker count or completion order.

    ``objective="pareto"`` swaps each cell's min-EDP search for a
    :meth:`~repro.opt.ExhaustiveOptimizer.pareto` sweep; the returned
    ``sweep`` is then a :class:`ParetoSweep` of
    :class:`~repro.opt.ParetoSearchResult` values.

    ``objective="yield"`` runs the ECC-relaxed yield study
    (:func:`repro.yields.study.compute_yield_cell` — a fixed-delta
    baseline search *and* a margin-relaxed search under ``code`` at
    array yield target ``y_target`` per cell); the returned ``sweep``
    is then a :class:`YieldSweep` of
    :class:`~repro.yields.study.YieldCellResult` values.
    ``sampler``/``ci_target``/``max_samples`` select the margin-floor
    relaxation estimator (``"gaussian"`` closed form, or a
    :data:`repro.cell.importance.SAMPLERS` rare-event sampler with its
    adaptive budget).  ``code``, ``y_target`` and the sampler knobs are
    ignored by the other objectives.
    """
    if objective not in ("edp", "pareto", "yield"):
        raise ValueError(
            "unknown objective %r (expected 'edp', 'pareto', or "
            "'yield')" % (objective,)
        )
    if objective == "yield":
        from ..cell.importance import SAMPLERS
        from ..yields.ecc import make_code

        if not 0.0 < y_target < 1.0:
            raise ValueError("y_target must be in (0, 1), got %r"
                             % (y_target,))
        make_code(code, 64)   # fail fast on an unknown code name
        if sampler != "gaussian" and sampler not in SAMPLERS:
            raise ValueError(
                "unknown sampler %r (expected 'gaussian' or one of %s)"
                % (sampler, "/".join(SAMPLERS))
            )
        if not 0.0 < ci_target < 1.0:
            raise ValueError("ci_target must be in (0, 1), got %r"
                             % (ci_target,))
        objective = ("yield", code, float(y_target), sampler,
                     float(ci_target), int(max_samples))
    if session is None:
        session = Session.create(
            cache_path=cache_path or DEFAULT_CACHE_PATH,
            voltage_mode=voltage_mode,
        )
    if cache_path is None and session.cache is not None:
        cache_path = session.cache.path
    space = space or DesignSpace()
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(int(workers), 1)
    fallback_reason = None
    if executor == "auto":
        executor = "process" if workers > 1 else "serial"
        if executor == "process" and (os.cpu_count() or 1) == 1:
            # A pool on a single hardware thread serializes on the same
            # core and still pays worker start-up; run in-process.
            # Explicit executor="process" requests are honored as-is.
            executor = "serial"
            fallback_reason = (
                "auto executor fell back to serial: os.cpu_count() == 1 "
                "(%d workers requested)" % workers
            )
    if workers == 1:
        executor = "serial"
    tasks = study_matrix(capacities, flavors, methods)
    workers = min(workers, len(tasks))

    # Warm and export the margin memos once, in the parent: feasibility
    # masks over the whole V_SSC axis for every flavor in play.
    margin_memos = {}
    with perf.timed("study.warm_margins"):
        for flavor in set(task.flavor for task in tasks):
            constraint = session.constraint(flavor)
            levels = session.yield_levels(flavor)
            for method in set(task.method for task in tasks):
                policy = make_policy(method, levels)
                constraint.satisfied_grid(
                    policy.v_ddc,
                    [float(v) for v in policy.v_ssc_candidates(space)],
                    policy.v_wl, policy.v_bl,
                )
            margin_memos[flavor] = constraint.export_margin_memo()

    start = time.perf_counter()
    results = {}
    timings = {}
    if executor == "serial":
        for task in tasks:
            try:
                result, seconds = _execute_task(session, space, task,
                                                keep_landscape, objective)
            except Exception as exc:
                raise _task_failure(task, exc) from exc
            results[task.key] = result
            timings[task.key] = TaskTiming(task, seconds,
                                           result.n_evaluated, 0)
    elif executor == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_execute_task, session, space, task,
                            keep_landscape, objective): task
                for task in tasks
            }
            for future, task in futures.items():
                try:
                    result, seconds = future.result()
                except Exception as exc:
                    _cancel_pending(futures)
                    raise _task_failure(task, exc) from exc
                results[task.key] = result
                timings[task.key] = TaskTiming(task, seconds,
                                               result.n_evaluated, 0)
    elif executor == "process":
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(cache_path, session.voltage_mode, space,
                      margin_memos),
        ) as pool:
            futures = {
                pool.submit(_run_task_in_worker, task, keep_landscape,
                            objective): task
                for task in tasks
            }
            for future, task in futures.items():
                try:
                    result, seconds, pid, snapshot = future.result()
                except Exception as exc:
                    _cancel_pending(futures)
                    raise _task_failure(task, exc) from exc
                results[task.key] = result
                timings[task.key] = TaskTiming(task, seconds,
                                               result.n_evaluated, pid)
                perf.get_registry().merge(snapshot)
    else:
        raise ValueError(
            "unknown executor %r (expected 'auto', 'serial', 'thread', "
            "or 'process')" % (executor,)
        )
    total_seconds = time.perf_counter() - start
    perf.get_registry().add_time("study.run_study", total_seconds)
    perf.count("study.tasks", len(tasks))

    kind = _objective_kind(objective)
    if kind == "yield":
        sweep = YieldSweep(results=results,
                           voltage_mode=session.voltage_mode,
                           code=objective[1], y_target=objective[2],
                           sampler=objective[3])
    elif kind == "pareto":
        sweep = ParetoSweep(results=results,
                            voltage_mode=session.voltage_mode)
    else:
        sweep = SweepResult(results=results,
                            voltage_mode=session.voltage_mode)
    ordered_timings = [timings[task.key] for task in tasks]
    return StudyRunResult(
        sweep=sweep,
        timings=ordered_timings,
        total_seconds=total_seconds,
        workers=workers if executor != "serial" else 1,
        executor=executor,
        fallback_reason=fallback_reason,
    )
