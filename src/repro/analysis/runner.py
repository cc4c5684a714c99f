"""Study runner: the capacity x flavor x method matrix, in the caller
or across a process pool.

A full Table-4 / Figure-7 study is 20 independent exhaustive searches
(5 capacities x 2 flavors x 2 methods).  They share only *read-only*
state — the characterization LUTs and the memoized yield margins — so
``workers`` alone decides where they run:

* in the caller, when ``workers`` is 1, when the study has one task, or
  on a one-CPU host, where a pool would serialize on the same core and
  still pay worker start-up;
* otherwise in a :class:`~concurrent.futures.ProcessPoolExecutor` of
  ``min(workers, tasks)`` workers (:func:`session_pool`).  The caller
  memoizes the margins of every search in play once
  (:func:`warm_session`), and each worker receives that warmed session,
  minus its characterization cache, through the pool initializer: it
  answers with the caller's library, array configuration and voltage
  mode, and never re-runs a characterization or a butterfly the caller
  already paid for.

Results are keyed by ``(capacity, flavor, method)`` and assembled into a
:class:`SweepResult` after every future resolves, so the outcome is
deterministic and independent of task completion order.  Every task
records wall time and evaluation counts (:class:`TaskTiming`), and the
workers' :mod:`repro.perf` registries are merged back into the parent's
so ``--profile`` accounts for every millisecond even across processes.
"""

from __future__ import annotations

import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .. import perf
from ..errors import DesignSpaceError, StudyTaskError
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
from ..units import capacity_label, is_power_of_two


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


def check_study_matrix(capacities, flavors, methods):
    """Reject a study matrix no search can run, naming the bad value.

    Capacities must be positive powers of two (bytes), flavors a subset
    of :data:`FLAVORS` and methods of :data:`METHODS`, each a non-empty
    list or tuple.  Raises :class:`~repro.errors.DesignSpaceError`.
    """
    for name, values in (("capacities", capacities), ("flavors", flavors),
                         ("methods", methods)):
        if not isinstance(values, (list, tuple)) or not values:
            raise DesignSpaceError("%s must be a non-empty list, got %r"
                                   % (name, values))
    for capacity in capacities:
        if (isinstance(capacity, bool)
                or not isinstance(capacity, numbers.Integral)
                or not is_power_of_two(capacity)):
            raise DesignSpaceError(
                "capacities must be positive powers of two (bytes), got %r"
                % (capacity,))
    for name, values, domain in (("flavors", flavors, FLAVORS),
                                 ("methods", methods, METHODS)):
        for value in values:
            if value not in domain:
                raise DesignSpaceError("%s must be a subset of %s, got %r"
                                       % (name, "/".join(domain), value))


def check_yield_options(code, y_target, sampler, ci_target):
    """``ValueError`` for a ``y_target`` or ``ci_target`` outside (0, 1)
    or an unknown sampler, ``DesignSpaceError`` for an unknown code."""
    from ..opt.constraints import check_yield_sampler
    from ..yields.ecc import make_code

    if not 0.0 < y_target < 1.0:
        raise ValueError("y_target must be in (0, 1), got %r"
                         % (y_target,))
    make_code(code, 64)
    check_yield_sampler(sampler)
    if not 0.0 < ci_target < 1.0:
        raise ValueError("ci_target must be in (0, 1), got %r"
                         % (ci_target,))


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
    #: Pool workers, or 1 when the study ran in the caller.
    workers: int = 1

    @property
    def task_seconds(self):
        """Sum of per-task wall times (the serial-equivalent work)."""
        return sum(t.seconds for t in self.timings)

    def report(self):
        rows = [t.row() for t in self.timings]
        text = render_dict_table(
            rows,
            title="Study runner telemetry (%d worker%s)"
            % (self.workers, "" if self.workers == 1 else "s"),
        )
        text += (
            "\ntotal wall time: %.3f s   task time: %.3f s   "
            "parallel efficiency: %.0f%%"
            % (self.total_seconds, self.task_seconds,
               100.0 * self.task_seconds
               / (self.total_seconds * max(self.workers, 1) or 1.0))
        )
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


def _worker_init(session, space):
    """Keep the caller's warmed session and the design space for every
    task this worker runs."""
    _WORKER_STATE["session"] = session
    _WORKER_STATE["space"] = space


def warm_session(session, space, flavors, methods):
    """Memoize in ``session`` the margins every search of ``flavors`` x
    ``methods`` reads: one feasibility mask over the whole V_SSC
    candidate axis per flavor and method.  A pool's workers inherit the
    memo with the session instead of each re-running the butterflies."""
    with perf.timed("study.warm_margins"):
        for flavor in flavors:
            constraint = session.constraint(flavor)
            levels = session.yield_levels(flavor)
            for method in methods:
                policy = make_policy(method, levels)
                constraint.satisfied_grid(
                    policy.v_ddc,
                    [float(v) for v in policy.v_ssc_candidates(space)],
                    policy.v_wl, policy.v_bl,
                )


def session_pool(session, space, workers):
    """A process pool of ``workers`` whose every worker runs on
    ``session`` and ``space``.

    The workers get a copy without the characterization cache: the
    session already holds every characterization they read.  Warm it
    first (:func:`warm_session`) so they share its margin memos too.
    """
    return ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init,
        initargs=(replace(session, cache=None), space),
    )


def _run_task_in_worker(task, keep_landscape, objective):
    (result, seconds), snapshot = perf.snapshot_call(
        _execute_task, _WORKER_STATE["session"], _WORKER_STATE["space"],
        task, keep_landscape, objective,
    )
    return result, seconds, os.getpid(), snapshot


def _execute_task(session, space, task, keep_landscape, objective="edp"):
    start = time.perf_counter()
    if _objective_kind(objective) == "yield":
        from ..yields.study import compute_yield_cell

        _, code, y_target, sampler, ci_target, max_samples = objective
        result = compute_yield_cell(
            session, task.capacity_bytes, task.flavor, task.method,
            code=code, y_target=y_target, space=space,
            sampler=sampler, ci_target=ci_target,
            max_samples=max_samples,
        )
    else:
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
              methods=METHODS, workers=1, keep_landscape=False, space=None,
              cache_path=DEFAULT_CACHE_PATH, voltage_mode="paper",
              objective="edp", code="secded", y_target=0.9,
              sampler="gaussian", ci_target=0.1, max_samples=4096):
    """Run the study matrix, in the caller or across a process pool.

    ``workers=1`` (the default) runs every task in the caller; more
    fans the matrix over a :func:`session_pool` of ``min(workers,
    tasks)`` processes, except on a one-CPU host or for a one-task
    study, which run in the caller too.  Returns a
    :class:`StudyRunResult` whose ``sweep`` is the same
    :class:`SweepResult` whatever the worker count or completion order.
    Without a ``session`` one is built from ``cache_path`` (a falsy
    path characterizes without a cache, as in :meth:`Session.create`).

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
    relaxation estimator (:data:`repro.opt.constraints.YIELD_SAMPLERS`:
    ``"gaussian"`` closed form, or ``"shifted"`` importance sampling
    with its adaptive budget).  ``code``, ``y_target`` and the sampler
    knobs are ignored by the other objectives.

    A matrix that :func:`check_study_matrix` rejects raises
    :class:`~repro.errors.DesignSpaceError`, and yield settings raise
    :func:`check_yield_options`'s errors, before any work starts.
    """
    check_study_matrix(capacities, flavors, methods)
    if objective not in ("edp", "pareto", "yield"):
        raise ValueError(
            "unknown objective %r (expected 'edp', 'pareto', or "
            "'yield')" % (objective,)
        )
    if objective == "yield":
        check_yield_options(code, y_target, sampler, ci_target)
        objective = ("yield", code, float(y_target), sampler,
                     float(ci_target), int(max_samples))
    if session is None:
        session = Session.create(cache_path=cache_path,
                                 voltage_mode=voltage_mode)
    space = space or DesignSpace()
    tasks = study_matrix(capacities, flavors, methods)
    workers = max(min(int(workers), len(tasks)), 1)
    if (os.cpu_count() or 1) == 1:
        workers = 1

    warm_session(session, space, flavors, methods)

    start = time.perf_counter()
    results = {}
    timings = {}
    if workers == 1:
        for task in tasks:
            try:
                result, seconds = _execute_task(session, space, task,
                                                keep_landscape, objective)
            except Exception as exc:
                raise _task_failure(task, exc) from exc
            results[task.key] = result
            timings[task.key] = TaskTiming(task, seconds,
                                           result.n_evaluated, 0)
    else:
        with session_pool(session, space, workers) as pool:
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
        workers=workers,
    )
