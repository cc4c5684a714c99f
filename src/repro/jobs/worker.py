"""The job worker: claim, sweep cell-by-cell, checkpoint, resume.

A *study* job is the paper's full co-optimization over a capacity x
flavor x method matrix.  The worker executes it one matrix cell at a
time, committing each finished :class:`OptimizationResult` to the
content-addressed :class:`~repro.store.ExperimentStore` **as it
lands** and heartbeating the queue after every cell.  Checkpointing at
cell granularity buys two properties:

* **Crash recovery** — if the worker dies mid-sweep (SIGKILL included),
  the job's lease expires and the next ``claim`` re-queues it.  The
  restarted worker recomputes *only* the missing cells: every cell key
  is a pure function of the inputs, so finished cells are found in the
  store and skipped.
* **Bit-identical resume** — the search is deterministic and the
  store's JSON round trip is exact, so a resumed sweep's final results
  are indistinguishable from an uninterrupted run's.

Run one from the shell::

    python -m repro.jobs.worker --queue jobs.db --once

or keep several draining one queue file (each worker is independent;
the lease protocol needs no coordinator)::

    python -m repro.jobs.worker --queue jobs.db --lease 60

The optimization service embeds this same loop in its background worker
pool (``repro serve --jobs``), sharing the server's warm session.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import socket
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field

from .. import perf
from ..analysis.experiments import (
    CAPACITIES_BYTES,
    FLAVORS,
    METHODS,
    Session,
    SweepResult,
)
from ..analysis.runner import (
    check_study_matrix,
    execute_study_task,
    study_matrix,
)
from ..errors import DesignSpaceError, JobError
from ..opt import DesignSpace
from ..store import (
    ExperimentStore,
    make_provenance,
    payload_to_result,
    result_to_payload,
    study_cell_key,
    sweep_key,
)
from .queue import JobQueue

#: Spec defaults / validation domains.
VOLTAGE_MODES = ("paper", "measured")


def new_worker_id():
    return "%s-%d-%s" % (socket.gethostname(), os.getpid(),
                         uuid.uuid4().hex[:6])


# ---------------------------------------------------------------------------
# Job specs
# ---------------------------------------------------------------------------

def normalize_study_spec(raw):
    """Validate and canonicalize a study-job spec.

    Canonical form sorts capacities ascending and orders flavors and
    methods in their reference order, so equivalent submissions share
    one :func:`~repro.store.sweep_key` (and therefore one stored
    sweep).  Raises :class:`JobError` on anything invalid.

    An ``engine`` field, which specs queued by older releases carry, is
    accepted and dropped: every study runs the one production search.
    """
    if not isinstance(raw, dict):
        raise JobError("study spec must be an object, got %r"
                       % type(raw).__name__)
    known = {"capacities", "flavors", "methods", "engine",
             "voltage_mode", "cache_path"}
    unknown = set(raw) - known
    if unknown:
        raise JobError("unknown study spec field(s): %s"
                       % ", ".join(sorted(unknown)))
    capacities = raw.get("capacities") or list(CAPACITIES_BYTES)
    flavors = raw.get("flavors") or list(FLAVORS)
    methods = raw.get("methods") or list(METHODS)
    try:
        check_study_matrix(capacities, flavors, methods)
    except DesignSpaceError as exc:
        raise JobError(str(exc)) from exc
    voltage_mode = raw.get("voltage_mode", "paper")
    if voltage_mode not in VOLTAGE_MODES:
        raise JobError("voltage_mode must be one of %s, got %r"
                       % ("/".join(VOLTAGE_MODES), voltage_mode))
    cache_path = raw.get("cache_path")
    if cache_path is not None and not isinstance(cache_path, str):
        raise JobError("cache_path must be a string or null")
    return {
        "capacities": sorted(set(int(c) for c in capacities)),
        "flavors": [f for f in FLAVORS if f in flavors],
        "methods": [m for m in METHODS if m in methods],
        "voltage_mode": voltage_mode,
        "cache_path": cache_path,
    }


def study_cell_keys(session, spec, space=None):
    """``[(StudyTask, store key), ...]`` in canonical matrix order."""
    space = space or DesignSpace()
    tasks = study_matrix(tuple(spec["capacities"]),
                         tuple(spec["flavors"]),
                         tuple(spec["methods"]))
    return [
        (task, study_cell_key(session, space, task.capacity_bytes,
                              task.flavor, task.method))
        for task in tasks
    ]


def load_sweep_results(store, result_key):
    """Rebuild a :class:`SweepResult` from a stored sweep record.

    Every cell payload round-trips through
    :func:`~repro.store.payload_to_result`, so the returned sweep
    reports (Table 4, Figure 7, headline) exactly as a live one.
    """
    record = store.get(result_key)
    if record is None:
        raise JobError("no sweep record %r in the store" % result_key)
    results = {}
    for cell_key_ in record["cells"]:
        payload = store.get(cell_key_)
        if payload is None:
            raise JobError("sweep %r references missing cell %r"
                           % (result_key, cell_key_))
        result = payload_to_result(payload)
        results[(result.capacity_bytes, result.flavor,
                 result.method)] = result
    return SweepResult(results=results,
                       voltage_mode=record["spec"]["voltage_mode"])


# ---------------------------------------------------------------------------
# Session cache (one warm session per (cache, voltage-mode))
# ---------------------------------------------------------------------------

class SessionProvider:
    """Builds and memoizes sessions per (cache_path, voltage_mode).

    The service seeds this with its already-warm session so background
    job workers never re-characterize; a standalone worker builds from
    the (disk-cached) characterization store on first use.
    """

    def __init__(self, default_cache_path=None):
        self.default_cache_path = default_cache_path
        self._sessions = {}
        self._lock = threading.Lock()

    @staticmethod
    def _key(cache_path, voltage_mode):
        path = os.path.abspath(cache_path) if cache_path else None
        return (path, voltage_mode)

    def seed(self, session, cache_path=None):
        path = cache_path or (session.cache.path if session.cache
                              else None)
        with self._lock:
            self._sessions[self._key(path, session.voltage_mode)] = session

    def for_spec(self, spec):
        cache_path = spec.get("cache_path") or self.default_cache_path
        voltage_mode = spec.get("voltage_mode", "paper")
        key = self._key(cache_path, voltage_mode)
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                session = Session.create(cache_path=cache_path,
                                         voltage_mode=voltage_mode)
            self._sessions[key] = session
            return session


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def execute_study_job(job, queue, store, worker_id, sessions,
                      lease_seconds=30.0, stop=None, throttle=0.0,
                      log=None):
    """Run one claimed study job to completion (or until ownership is
    lost).  Returns ``(outcome, computed, skipped)``: the outcome is
    ``"done"``, ``"lost"`` (cancelled / lease stolen), or ``"stopped"``
    (graceful worker shutdown; the lease will expire and the job will
    be re-queued), and the counts are this job's cells computed and
    found already stored."""
    spec = normalize_study_spec(job.spec)
    session = sessions.for_spec(spec)
    space = DesignSpace()
    cells = study_cell_keys(session, spec, space)
    total = len(cells)
    computed = skipped = 0
    for index, (task, key) in enumerate(cells):
        if stop is not None and stop.is_set():
            return "stopped", computed, skipped
        cached = store.has(key)
        if cached:
            skipped += 1
            perf.count("jobs.cells_skipped")
        else:
            result, seconds = execute_study_task(session, space, task)
            store.put(key, result_to_payload(result), make_provenance(
                inputs={"job": job.id, "task": task.label,
                        "spec": {k: v for k, v in spec.items()
                                 if k != "cache_path"}},
                elapsed_seconds=round(seconds, 6), worker=worker_id,
            ))
            computed += 1
            perf.count("jobs.cells_computed")
            if throttle > 0:
                time.sleep(throttle)
        progress = {"total": total, "completed": index + 1,
                    "computed": computed, "skipped": skipped,
                    "current": task.label}
        if not queue.heartbeat(job.id, worker_id, lease_seconds,
                               progress=progress):
            # Cancelled, or the lease expired and another worker owns
            # the job now.  Either way: stop; the store keeps our cells.
            return "lost", computed, skipped
        if log is not None:
            log("  [%d/%d] %s %s" % (index + 1, total, task.label,
                                     "cached" if cached else "done"))
    key = sweep_key(spec)
    store.put(key, {"spec": spec, "cells": [k for _, k in cells]},
              make_provenance(inputs={"job": job.id, "spec": {
                  k: v for k, v in spec.items() if k != "cache_path"}},
                  worker=worker_id))
    outcome = "done" if queue.complete(job.id, worker_id,
                                       result_key=key) else "lost"
    return outcome, computed, skipped


_JOB_EXECUTORS = {"study": execute_study_job}


@dataclass
class WorkerStats:
    """What one :func:`run_worker` invocation did.

    The cell counts add up what each job's executor returned, so
    workers running side by side never count each other's cells; a job
    that raised counts none.
    """

    worker: str
    jobs_done: int = 0
    jobs_failed: int = 0
    jobs_lost: int = 0
    cells_computed: int = 0
    cells_skipped: int = 0
    seconds: float = 0.0
    outcomes: list = field(default_factory=list)   # (job_id, outcome)


def run_worker(queue_path, store_path=None, worker_id=None,
               lease_seconds=30.0, poll_interval=0.5, max_jobs=None,
               once=False, stop=None, sessions=None,
               default_cache_path=None, throttle=0.0, log=None,
               store=None):
    """The worker loop: claim -> execute -> repeat.

    ``once`` waits (polling) for the first claimable job, runs it, and
    returns; otherwise the loop runs until ``stop`` is set or
    ``max_jobs`` jobs finished.  ``store_path`` defaults to the queue
    path — both subsystems happily share one SQLite file.
    ``store`` takes an open :class:`~repro.store.ExperimentStore` in
    place of ``store_path``; the service's background workers share the
    server's store that way.  The loop closes the queue, and the store
    when it opened it, before it returns; a passed-in store stays open.
    """
    with contextlib.ExitStack() as opened:
        queue = opened.enter_context(JobQueue(queue_path))
        if store is None:
            store = opened.enter_context(
                ExperimentStore(store_path or queue_path))
        worker_id = worker_id or new_worker_id()
        sessions = sessions or SessionProvider(default_cache_path)
        stats = WorkerStats(worker=worker_id)
        start = time.perf_counter()
        while True:
            if stop is not None and stop.is_set():
                break
            if max_jobs is not None and stats.jobs_done \
                    + stats.jobs_failed >= max_jobs:
                break
            job = queue.claim(worker_id, lease_seconds)
            if job is None:
                if once and not stats.outcomes:
                    time.sleep(poll_interval)   # wait for the first job
                    continue
                if once:
                    break
                if stop is not None:
                    stop.wait(poll_interval)
                else:
                    time.sleep(poll_interval)
                continue
            if log is not None:
                log("claimed %s (%s, attempt %d/%d)"
                    % (job.id, job.kind, job.attempts, job.max_attempts))
            executor = _JOB_EXECUTORS.get(job.kind)
            try:
                if executor is None:
                    raise JobError("unknown job kind %r" % job.kind,
                                   job_id=job.id)
                outcome, computed, skipped = executor(
                    job, queue, store, worker_id, sessions,
                    lease_seconds=lease_seconds, stop=stop,
                    throttle=throttle, log=log)
            except Exception as exc:
                state = queue.fail(job.id, worker_id,
                                   "%s: %s" % (type(exc).__name__, exc))
                outcome = "failed:%s" % state
                stats.jobs_failed += 1
                if log is not None:
                    log("job %s failed (%s): %s" % (job.id, state, exc))
            else:
                stats.cells_computed += computed
                stats.cells_skipped += skipped
                if outcome == "done":
                    stats.jobs_done += 1
                elif outcome == "lost":
                    stats.jobs_lost += 1
                if log is not None:
                    log("job %s %s" % (job.id, outcome))
            stats.outcomes.append((job.id, outcome))
            if once:
                break
        stats.seconds = time.perf_counter() - start
    return stats


# ---------------------------------------------------------------------------
# CLI entry: python -m repro.jobs.worker
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.jobs.worker",
        description="Claim and execute durable study jobs "
                    "(see docs/JOBS.md).",
    )
    parser.add_argument("--queue", required=True,
                        help="job queue SQLite path")
    parser.add_argument("--store", default=None,
                        help="experiment store path (default: the "
                             "queue file)")
    parser.add_argument("--once", action="store_true",
                        help="wait for one job, run it, exit")
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="exit after this many jobs")
    parser.add_argument("--poll", type=float, default=0.5,
                        help="idle poll interval [s]")
    parser.add_argument("--lease", type=float, default=30.0,
                        help="claim lease / heartbeat horizon [s]")
    parser.add_argument("--worker-id", default=None)
    parser.add_argument("--cache", default=".repro_cache.json",
                        help="default characterization cache for specs "
                             "that do not name one")
    parser.add_argument("--throttle", type=float, default=0.0,
                        help="sleep this long after each computed cell "
                             "(pacing / test knob)")
    args = parser.parse_args(argv)

    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, lambda *_: stop.set())
        except ValueError:
            pass    # not the main thread
    stats = run_worker(
        queue_path=args.queue, store_path=args.store,
        worker_id=args.worker_id, lease_seconds=args.lease,
        poll_interval=args.poll, max_jobs=args.max_jobs,
        once=args.once, stop=stop,
        default_cache_path=args.cache or None,
        throttle=args.throttle, log=lambda line: print(line, flush=True),
    )
    print("worker %s: %d done, %d failed, %d lost; "
          "%d cells computed, %d skipped (%.1f s)"
          % (stats.worker, stats.jobs_done, stats.jobs_failed,
             stats.jobs_lost, stats.cells_computed, stats.cells_skipped,
             stats.seconds), flush=True)
    return 0 if stats.jobs_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
