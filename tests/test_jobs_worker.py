"""Worker loop: spec validation, execution, checkpointing, dedup."""

import threading

import pytest

from repro.analysis.runner import StudyTask, execute_study_task
from repro.errors import JobError
from repro.jobs import (
    JobQueue,
    load_sweep_results,
    normalize_study_spec,
    run_worker,
    study_cell_keys,
)
from repro.jobs.worker import SessionProvider, execute_study_job
from repro.opt import DesignSpace
from repro.store import ExperimentStore, result_to_payload, sweep_key

SPEC = {"capacities": [128], "flavors": ["lvt"], "methods": ["M1", "M2"]}


# ---------------------------------------------------------------------------
# Spec validation / canonicalization
# ---------------------------------------------------------------------------

def test_normalize_fills_defaults():
    spec = normalize_study_spec({})
    assert spec["capacities"]           # paper defaults
    assert spec["flavors"] == ["lvt", "hvt"]
    assert spec["methods"] == ["M1", "M2"]
    assert spec["voltage_mode"] == "paper"
    assert spec["cache_path"] is None


def test_normalize_drops_a_legacy_engine_field():
    """Specs queued by older releases name a search engine; it is
    accepted, whatever its value, and leaves the normalized spec."""
    legacy = normalize_study_spec({"capacities": [128],
                                   "engine": "vectorized"})
    plain = normalize_study_spec({"capacities": [128]})
    assert "engine" not in legacy
    assert legacy == plain
    assert sweep_key(legacy) == sweep_key(plain)
    assert normalize_study_spec({"engine": "quantum"}) \
        == normalize_study_spec({})


def test_normalize_canonicalizes_order_and_dupes():
    spec = normalize_study_spec({
        "capacities": [512, 128, 128],
        "flavors": ["hvt", "lvt"],
        "methods": ["M2", "M1"],
    })
    assert spec["capacities"] == [128, 512]
    assert spec["flavors"] == ["lvt", "hvt"]    # reference order
    assert spec["methods"] == ["M1", "M2"]


def test_equivalent_specs_share_one_sweep_key():
    a = normalize_study_spec({"capacities": [512, 128],
                              "flavors": ["hvt", "lvt"]})
    b = normalize_study_spec({"capacities": [128, 512, 512],
                              "flavors": ["lvt", "hvt"],
                              "cache_path": "/elsewhere.json"})
    assert sweep_key(a) == sweep_key(b)


@pytest.mark.parametrize("bad", [
    "not a dict",
    {"surprise": True},
    {"capacities": [100]},              # not a power of two
    {"capacities": [True]},
    {"capacities": "128"},
    {"flavors": ["svt"]},
    {"methods": ["M3"]},
    {"flavors": "lvt"},                 # not a list
    {"voltage_mode": "imaginary"},
    {"cache_path": 7},
])
def test_normalize_rejects_invalid_specs(bad):
    with pytest.raises(JobError):
        normalize_study_spec(bad)


def test_study_cell_keys_cover_the_matrix(paper_session):
    spec = normalize_study_spec(SPEC)
    cells = study_cell_keys(paper_session, spec)
    assert len(cells) == 2
    labels = [task.label for task, _ in cells]
    assert labels == ["128B/LVT/M1", "128B/LVT/M2"]
    assert len({key for _, key in cells}) == 2


# ---------------------------------------------------------------------------
# End-to-end worker runs (in-process, warm session)
# ---------------------------------------------------------------------------

@pytest.fixture()
def warm_sessions(paper_session):
    # default_cache_path must match the seed key, else a spec with
    # cache_path=None would trigger a fresh characterization.
    cache_path = paper_session.cache.path
    provider = SessionProvider(default_cache_path=cache_path)
    provider.seed(paper_session, cache_path=cache_path)
    return provider


@pytest.fixture()
def db_path(tmp_path):
    return str(tmp_path / "jobs.db")


def test_worker_runs_job_and_stores_sweep(db_path, warm_sessions,
                                          paper_session):
    queue = JobQueue(db_path)
    job_id = queue.submit("study", SPEC)
    stats = run_worker(db_path, once=True, poll_interval=0.05,
                       sessions=warm_sessions, worker_id="t-w1")
    assert stats.jobs_done == 1
    assert stats.jobs_failed == 0
    assert stats.cells_computed == 2
    assert stats.cells_skipped == 0

    job = queue.get(job_id)
    assert job.state == "done"
    assert job.progress["completed"] == job.progress["total"] == 2
    store = ExperimentStore(db_path)
    sweep = load_sweep_results(store, job.result_key)
    assert set(sweep.results) == {(128, "lvt", "M1"), (128, "lvt", "M2")}

    # Bit-identity against a direct in-process run of the same cell.
    direct, _ = execute_study_task(paper_session, DesignSpace(),
                                   StudyTask(128, "lvt", "M1"))
    assert (result_to_payload(sweep.results[(128, "lvt", "M1")])
            == result_to_payload(direct))

    # Provenance names the job and the worker.
    spec = normalize_study_spec(SPEC)
    (_, cell_key), _ = study_cell_keys(paper_session, spec)
    provenance = store.provenance(cell_key)
    assert provenance["worker"] == "t-w1"
    assert provenance["inputs"]["job"] == job_id


def test_resubmitted_job_skips_stored_cells(db_path, warm_sessions):
    queue = JobQueue(db_path)
    queue.submit("study", SPEC)
    run_worker(db_path, once=True, poll_interval=0.05,
               sessions=warm_sessions)
    # Same matrix, scrambled spelling -> same keys -> all cells skipped.
    second = queue.submit("study", {"capacities": [128],
                                    "flavors": ["lvt"],
                                    "methods": ["M2", "M1"]})
    stats = run_worker(db_path, once=True, poll_interval=0.05,
                       sessions=warm_sessions)
    assert stats.jobs_done == 1
    assert stats.cells_computed == 0
    assert stats.cells_skipped == 2
    first_key = queue.get(queue.list_jobs(state="done")[-1].id).result_key
    assert queue.get(second).result_key == first_key


def test_partial_checkpoint_resume_computes_only_missing(
        db_path, warm_sessions, paper_session):
    """Simulated crash: first attempt dies after one cell; the retry
    must recompute exactly the other cell."""
    queue = JobQueue(db_path)
    store = ExperimentStore(db_path)
    spec = normalize_study_spec(SPEC)
    cells = study_cell_keys(paper_session, spec)

    # Pre-store cell 0 as if a crashed worker had checkpointed it.
    task0, key0 = cells[0]
    result0, _ = execute_study_task(paper_session, DesignSpace(), task0)
    store.put(key0, result_to_payload(result0))

    queue.submit("study", SPEC)
    stats = run_worker(db_path, once=True, poll_interval=0.05,
                       sessions=warm_sessions)
    assert stats.jobs_done == 1
    assert stats.cells_computed == 1
    assert stats.cells_skipped == 1
    assert store.has(cells[1][1])


def test_cancelled_job_is_lost_not_done(db_path, warm_sessions):
    queue = JobQueue(db_path)
    store = ExperimentStore(db_path)
    job_id = queue.submit("study", SPEC)
    job = queue.claim("t-w1")
    queue.cancel(job_id)
    outcome = execute_study_job(job, queue, store, "t-w1",
                                warm_sessions)
    # The first cell is computed before the heartbeat sees the cancel.
    assert outcome == ("lost", 1, 0)
    assert queue.get(job_id).state == "cancelled"


def test_concurrent_workers_count_only_their_own_cells(tmp_path,
                                                       warm_sessions):
    """Two workers running side by side in one process each report the
    cells of their own job."""
    lockstep = threading.Barrier(2, timeout=60)

    def log(line):
        # Both workers log the same four lines (the claim, one per
        # cell, the outcome); meeting at each keeps both jobs in flight
        # at once.
        lockstep.wait()

    specs = [dict(SPEC, capacities=[128]), dict(SPEC, capacities=[256])]
    stats = [None, None]

    def work(index):
        path = str(tmp_path / ("jobs-%d.db" % index))
        JobQueue(path).submit("study", specs[index])
        stats[index] = run_worker(path, once=True, poll_interval=0.05,
                                  sessions=warm_sessions, log=log)

    threads = [threading.Thread(target=work, args=(index,))
               for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert not any(thread.is_alive() for thread in threads)
    assert [(s.jobs_done, s.cells_computed, s.cells_skipped)
            for s in stats] == [(1, 2, 0), (1, 2, 0)]


def test_log_labels_each_cell_by_its_own_outcome(db_path, warm_sessions,
                                                 paper_session):
    """A stored cell logs ``cached`` even when a computed cell came
    first, and a computed one logs ``done``."""
    store = ExperimentStore(db_path)
    cells = study_cell_keys(paper_session, normalize_study_spec(SPEC))
    task, key = cells[1]
    result, _ = execute_study_task(paper_session, DesignSpace(), task)
    store.put(key, result_to_payload(result))

    JobQueue(db_path).submit("study", SPEC)
    lines = []
    stats = run_worker(db_path, once=True, poll_interval=0.05,
                       sessions=warm_sessions, log=lines.append)
    assert (stats.cells_computed, stats.cells_skipped) == (1, 1)
    assert [line.split()[1:] for line in lines
            if line.startswith("  [")] == [["128B/LVT/M1", "done"],
                                           ["128B/LVT/M2", "cached"]]


def test_unknown_job_kind_fails(db_path, warm_sessions):
    queue = JobQueue(db_path)
    job_id = queue.submit("telepathy", {}, max_attempts=1)
    stats = run_worker(db_path, once=True, poll_interval=0.05,
                       sessions=warm_sessions)
    assert stats.jobs_failed == 1
    job = queue.get(job_id)
    assert job.state == "failed"
    assert "telepathy" in job.error


def test_invalid_spec_fails_the_job(db_path, warm_sessions):
    queue = JobQueue(db_path)
    job_id = queue.submit("study", {"capacities": [100]}, max_attempts=1)
    stats = run_worker(db_path, once=True, poll_interval=0.05,
                       sessions=warm_sessions)
    assert stats.jobs_failed == 1
    assert "powers of two" in queue.get(job_id).error


def test_max_jobs_limits_the_loop(db_path, warm_sessions):
    queue = JobQueue(db_path)
    queue.submit("study", SPEC)
    queue.submit("study", SPEC)
    stats = run_worker(db_path, max_jobs=2, poll_interval=0.05,
                       sessions=warm_sessions)
    assert stats.jobs_done == 2
    assert queue.counts()["done"] == 2


def test_load_sweep_results_missing_record_raises(db_path):
    store = ExperimentStore(db_path)
    with pytest.raises(JobError):
        load_sweep_results(store, "sweep-missing")


def test_load_sweep_results_missing_cell_raises(db_path):
    store = ExperimentStore(db_path)
    store.put("sweep-t", {"spec": {"voltage_mode": "paper"},
                          "cells": ["cell-gone"]})
    with pytest.raises(JobError):
        load_sweep_results(store, "sweep-t")
