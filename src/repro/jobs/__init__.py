"""repro.jobs: durable, resumable batch execution of EDP sweeps.

The paper's exhaustive co-optimization repeated over the full study
matrix is a long-running batch workload; this package makes it durable:

* :mod:`~repro.jobs.queue` — a stdlib-only SQLite job table with states
  ``queued``/``running``/``done``/``failed``/``cancelled``, lease-based
  claiming, and heartbeats, so a crashed worker's jobs are re-queued
  automatically.
* :mod:`~repro.jobs.worker` — the worker loop: claims a job, runs the
  study sweep cell by cell, and commits every finished cell to the
  content-addressed :class:`~repro.store.ExperimentStore` as it lands.
  A restarted worker skips cells already in the store, so a resumed
  sweep finishes with results bit-identical to an uninterrupted run.
* :mod:`~repro.jobs.smoke` — the CI end-to-end check
  (submit -> crash -> resume -> verify); run it with
  ``python -m repro.jobs.smoke``.

Submit work with ``repro jobs submit`` (or ``POST /v1/jobs`` against a
service started with ``repro serve --jobs``), execute it with
``repro jobs work`` or the service's background worker pool, and
inspect results with ``repro store ls|show``.  See ``docs/JOBS.md``.
"""

from .queue import Job, JobQueue, JOB_STATES
from .worker import (
    WorkerStats,
    execute_study_job,
    load_sweep_results,
    normalize_study_spec,
    run_worker,
    study_cell_keys,
)

__all__ = [
    "JOB_STATES",
    "Job",
    "JobQueue",
    "WorkerStats",
    "execute_study_job",
    "load_sweep_results",
    "normalize_study_spec",
    "run_worker",
    "study_cell_keys",
]
