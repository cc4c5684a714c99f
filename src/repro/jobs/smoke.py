"""End-to-end crash-recovery smoke test: submit -> kill -> resume -> verify.

Exercises the whole durable-jobs contract with real subprocess workers:

1. submit a 16-cell study sweep to a fresh queue,
2. start a worker, SIGKILL it after at least one cell has landed in the
   store (a throttle flag guarantees the kill window),
3. start a second worker, which re-queues the expired lease, claims the
   job, skips every stored cell, and finishes the sweep,
4. verify the resumed sweep's payloads are **bit-identical** to an
   uninterrupted in-process :func:`run_study` over the same matrix, and
   that provenance proves the second worker recomputed only the missing
   cells,
5. close every connection and check the queue/store file itself: the
   killed worker left a live WAL behind that later openers recovered,
   so ``PRAGMA integrity_check`` must read ``ok`` on a fresh
   connection and no job may be left ``running``.

Run it directly (CI does)::

    python -m repro.jobs.smoke --cache .repro_cache.json

Exit status 0 on success, 1 with a diagnosis on any violated guarantee.
"""

from __future__ import annotations

import argparse
import os
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
from contextlib import closing

from ..analysis.experiments import Session
from ..analysis.runner import run_study
from ..jobs import JobQueue
from ..jobs.worker import normalize_study_spec, study_cell_keys
from ..store import ExperimentStore, result_to_payload

SPEC = {
    "capacities": [128, 256, 512, 1024],
    "flavors": ["lvt", "hvt"],
    "methods": ["M1", "M2"],
    "voltage_mode": "paper",
}


def _spawn_worker(queue_path, cache_path, worker_id, throttle):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.jobs.worker",
         "--queue", queue_path, "--once", "--poll", "0.1",
         "--lease", "2", "--throttle", str(throttle),
         "--cache", cache_path, "--worker-id", worker_id],
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(
                 p for p in [os.environ.get("PYTHONPATH"),
                             os.path.join(os.path.dirname(__file__),
                                          "..", "..")] if p)},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _wait(predicate, timeout, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.jobs.smoke",
        description="Durable-jobs crash/resume smoke test.")
    parser.add_argument("--cache", default=".repro_cache.json",
                        help="characterization cache (reused, not "
                             "recomputed, when it exists)")
    parser.add_argument("--throttle", type=float, default=0.4,
                        help="per-cell pacing of the first worker; "
                             "sets the SIGKILL window")
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args(argv)
    cache = os.path.abspath(args.cache)

    failures = []

    def check(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix="repro-jobs-smoke-") as d:
        queue_path = os.path.join(d, "jobs.db")
        queue = JobQueue(queue_path)
        store = ExperimentStore(queue_path)
        spec = dict(SPEC, cache_path=cache)
        job_id = queue.submit("study", spec)
        print("submitted %s (16-cell sweep)" % job_id, flush=True)

        # Warm the characterization cache up front so the kill window
        # is pure sweep time, then size the uninterrupted reference.
        session = Session.create(cache_path=cache, voltage_mode="paper")
        cells = study_cell_keys(session, normalize_study_spec(spec))
        total = len(cells)
        check(total == 16, "study matrix has 16 cells")

        worker1 = _spawn_worker(queue_path, cache, "smoke-w1",
                                args.throttle)
        killed_at = None

        def mid_sweep():
            nonlocal killed_at
            job = queue.get(job_id)
            completed = job.progress.get("completed", 0)
            if job.state == "running" and 1 <= completed <= total - 2:
                killed_at = completed
                return True
            return job.terminal    # ran through; kill window missed
        _wait(mid_sweep, args.timeout)
        worker1.send_signal(signal.SIGKILL)
        worker1.wait(timeout=30)
        job = queue.get(job_id)
        check(killed_at is not None and not job.terminal,
              "worker killed mid-sweep (after %s/%d cells, state %r)"
              % (killed_at, total, job.state))
        stored_before = sum(store.has(key) for _, key in cells)
        check(1 <= stored_before < total,
              "%d/%d cells checkpointed at kill time"
              % (stored_before, total))

        worker2 = _spawn_worker(queue_path, cache, "smoke-w2",
                                throttle=0.0)
        try:
            worker2.wait(timeout=args.timeout)
        except subprocess.TimeoutExpired:
            worker2.kill()
        out = worker2.communicate()[0]
        job = queue.get(job_id)
        check(job.state == "done",
              "resumed worker finished the job (state %r, attempt %d)"
              % (job.state, job.attempts))
        if job.state != "done":
            print(out, flush=True)

        # Provenance: w1's cells survived, w2 computed only the rest.
        owners = {}
        for _, key in cells:
            provenance = store.provenance(key) or {}
            owners[provenance.get("worker")] = \
                owners.get(provenance.get("worker"), 0) + 1
        check(owners.get("smoke-w1", 0) == stored_before
              and owners.get("smoke-w1", 0) + owners.get("smoke-w2", 0)
              == total,
              "resume recomputed only missing cells (by worker: %r)"
              % owners)

        # Bit-identity: resumed sweep == uninterrupted run_study.
        study = run_study(
            session=session,
            capacities=tuple(spec["capacities"]),
            flavors=tuple(spec["flavors"]),
            methods=tuple(spec["methods"]), workers=1,
        )
        mismatches = [
            task.label for task, key in cells
            if store.get(key) != result_to_payload(
                study.sweep.results[(task.capacity_bytes, task.flavor,
                                     task.method)])
        ]
        check(not mismatches,
              "resumed sweep bit-identical to uninterrupted run"
              + ("" if not mismatches
                 else " (mismatch: %s)" % ", ".join(mismatches)))

        record = store.get(job.result_key)
        check(record is not None and len(record["cells"]) == total,
              "sweep record lists all %d cells" % total)

        queue.close()
        store.close()
        with closing(sqlite3.connect(queue_path)) as conn:
            integrity = [row[0] for row in
                         conn.execute("PRAGMA integrity_check")]
            running = conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE state = 'running'"
            ).fetchone()[0]
        check(integrity == ["ok"],
              "queue/store file passes integrity_check (%s)"
              % "; ".join(integrity))
        check(running == 0, "no job left running (%d)" % running)

    if failures:
        print("\nsmoke FAILED: %d check(s)" % len(failures), flush=True)
        return 1
    print("\nsmoke passed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
