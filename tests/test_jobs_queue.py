"""Durable job queue: lifecycle, leases, crash requeue, durability."""

import gc
import json
import os
import sys
import threading
import time

import pytest

from repro.errors import JobError
from repro.jobs import JobQueue, JOB_STATES
from repro.store import ExperimentStore

from .conftest import (
    open_fd_count,
    python_process,
    sqlite_side_files,
    succeeds_in_fork,
)


@pytest.fixture()
def queue(tmp_path):
    return JobQueue(str(tmp_path / "jobs.db"))


def test_submit_and_get(queue):
    job_id = queue.submit("study", {"capacities": [128]})
    job = queue.get(job_id)
    assert job.id == job_id
    assert job.kind == "study"
    assert job.spec == {"capacities": [128]}
    assert job.state == "queued"
    assert job.attempts == 0
    assert job.worker is None
    assert not job.terminal


def test_get_missing_raises(queue):
    with pytest.raises(JobError) as excinfo:
        queue.get("job-nope")
    assert excinfo.value.job_id == "job-nope"


def test_counts_zero_filled(queue):
    counts = queue.counts()
    assert set(counts) == set(JOB_STATES)
    assert all(value == 0 for value in counts.values())
    queue.submit("study", {})
    assert queue.counts()["queued"] == 1


def test_claim_empty_queue_returns_none(queue):
    assert queue.claim("w1") is None


def test_claim_marks_running_with_lease(queue):
    job_id = queue.submit("study", {})
    job = queue.claim("w1", lease_seconds=30.0)
    assert job.id == job_id
    assert job.state == "running"
    assert job.worker == "w1"
    assert job.attempts == 1
    assert job.lease_expires_at > time.time()
    # Nothing else to claim while the lease is live.
    assert queue.claim("w2") is None


def test_claim_fifo_within_priority(queue):
    first = queue.submit("study", {"n": 1})
    second = queue.submit("study", {"n": 2})
    assert queue.claim("w").id == first
    assert queue.claim("w").id == second


def test_priority_beats_age(queue):
    queue.submit("study", {"n": "old"})
    urgent = queue.submit("study", {"n": "urgent"}, priority=10)
    assert queue.claim("w").id == urgent


def test_heartbeat_extends_lease_and_records_progress(queue):
    job_id = queue.submit("study", {})
    queue.claim("w1", lease_seconds=5.0)
    assert queue.heartbeat(job_id, "w1", lease_seconds=60.0,
                           progress={"completed": 3, "total": 16})
    job = queue.get(job_id)
    assert job.progress == {"completed": 3, "total": 16}
    assert job.lease_expires_at > time.time() + 30


def test_heartbeat_fails_for_wrong_worker_or_state(queue):
    job_id = queue.submit("study", {})
    queue.claim("w1")
    assert not queue.heartbeat(job_id, "w2", 30.0)
    queue.cancel(job_id)
    assert not queue.heartbeat(job_id, "w1", 30.0)


def test_complete(queue):
    job_id = queue.submit("study", {})
    queue.claim("w1")
    assert queue.complete(job_id, "w1", result_key="sweep-abc")
    job = queue.get(job_id)
    assert job.state == "done"
    assert job.terminal
    assert job.result_key == "sweep-abc"
    assert job.finished_at is not None


def test_complete_fails_after_ownership_lost(queue):
    job_id = queue.submit("study", {})
    queue.claim("w1")
    queue.cancel(job_id)
    assert not queue.complete(job_id, "w1")
    assert queue.get(job_id).state == "cancelled"


def test_cancel_queued_and_running(queue):
    queued = queue.submit("study", {})
    assert queue.cancel(queued)
    assert queue.get(queued).state == "cancelled"
    running = queue.submit("study", {})
    queue.claim("w1")
    assert queue.cancel(running)
    assert queue.get(running).state == "cancelled"


def test_cancel_terminal_returns_false(queue):
    job_id = queue.submit("study", {})
    queue.claim("w1")
    queue.complete(job_id, "w1")
    assert queue.cancel(job_id) is False


def test_cancel_missing_raises(queue):
    with pytest.raises(JobError):
        queue.cancel("job-nope")


def test_fail_requeues_until_attempts_exhausted(queue):
    job_id = queue.submit("study", {}, max_attempts=2)
    queue.claim("w1")
    assert queue.fail(job_id, "w1", "boom 1") == "queued"
    assert queue.get(job_id).state == "queued"
    queue.claim("w1")
    assert queue.fail(job_id, "w1", "boom 2") == "failed"
    job = queue.get(job_id)
    assert job.state == "failed"
    assert job.terminal
    assert "boom 2" in job.error


def test_fail_by_non_owner_is_ignored(queue):
    job_id = queue.submit("study", {})
    queue.claim("w1")
    assert queue.fail(job_id, "w2", "not mine") is None
    assert queue.get(job_id).state == "running"


def test_expired_lease_is_requeued_on_next_claim(queue):
    """The crash-recovery core: a dead worker's job goes back to the
    queue as soon as any worker claims, no janitor required."""
    job_id = queue.submit("study", {})
    queue.claim("w1", lease_seconds=0.02)
    time.sleep(0.05)
    job = queue.claim("w2", lease_seconds=30.0)
    assert job is not None
    assert job.id == job_id
    assert job.worker == "w2"
    assert job.attempts == 2
    # The dead worker's late heartbeat must bounce.
    assert not queue.heartbeat(job_id, "w1", 30.0)


def test_expired_lease_with_exhausted_attempts_fails(queue):
    job_id = queue.submit("study", {}, max_attempts=1)
    queue.claim("w1", lease_seconds=0.02)
    time.sleep(0.05)
    assert queue.claim("w2") is None
    job = queue.get(job_id)
    assert job.state == "failed"
    assert "lease expired" in job.error


def test_list_jobs_filtering(queue):
    a = queue.submit("study", {})
    queue.submit("study", {})
    queue.claim("w1")
    assert {job.id for job in queue.list_jobs(state="running")} == {a}
    assert len(queue.list_jobs()) == 2
    assert len(queue.list_jobs(limit=1)) == 1
    with pytest.raises(JobError):
        queue.list_jobs(state="bogus")


def test_queue_is_durable_across_instances(tmp_path):
    path = str(tmp_path / "jobs.db")
    job_id = JobQueue(path).submit("study", {"capacities": [128]})
    job = JobQueue(path).get(job_id)
    assert job.state == "queued"
    assert job.spec == {"capacities": [128]}


def test_concurrent_claims_hand_out_each_job_once(queue):
    for _ in range(8):
        queue.submit("study", {})
    claimed = []
    lock = threading.Lock()

    def worker(name):
        while True:
            job = queue.claim(name)
            if job is None:
                return
            with lock:
                claimed.append(job.id)

    threads = [threading.Thread(target=worker, args=("w%d" % i,))
               for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(claimed) == 8
    assert len(set(claimed)) == 8


def test_job_payload_is_jsonable(queue):
    import json

    job_id = queue.submit("study", {"capacities": [128]})
    payload = queue.get(job_id).to_payload()
    assert json.loads(json.dumps(payload))["id"] == job_id
    assert payload["state"] == "queued"


# ---------------------------------------------------------------------------
# Connection lifecycle
# ---------------------------------------------------------------------------

def test_close_leaves_no_wal_and_next_call_reopens(queue):
    job_id = queue.submit("study", {})
    assert sqlite_side_files(queue.path)      # WAL mode, held open
    queue.close()
    assert sqlite_side_files(queue.path) == []
    assert queue.get(job_id).state == "queued"
    with queue:
        assert queue.claim("w1").id == job_id
    assert sqlite_side_files(queue.path) == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors through /proc (Linux)")
def test_dropped_queues_close_at_once(tmp_path):
    """With the cycle collector off, 50 open/use/drop cycles must not
    leave a descriptor (or a WAL) behind."""
    path = str(tmp_path / "jobs.db")
    before = open_fd_count()
    gc.disable()
    try:
        for _ in range(50):
            queue = JobQueue(path)
            job_id = queue.submit("study", {})
            assert queue.claim("w1").id == job_id
            del queue
        assert open_fd_count() == before
    finally:
        gc.enable()
    assert sqlite_side_files(path) == []


def test_submit_is_visible_at_once_to_another_process(queue):
    job_id = queue.submit("study", {"capacities": [128]})
    reader = python_process(
        "import sys\n"
        "from repro.jobs import JobQueue\n"
        "job = JobQueue(sys.argv[1]).get(sys.argv[2])\n"
        "print(job.state, job.spec['capacities'][0])",
        queue.path, job_id)
    out, err = reader.communicate(timeout=120)
    assert reader.returncode == 0, err
    assert out.split() == ["queued", "128"]


_CLAIM_ALL = """
import json, sys
from repro.jobs import JobQueue
queue = JobQueue(sys.argv[1])
print("ready", flush=True)
sys.stdin.readline()
claimed = []
while True:
    job = queue.claim(sys.argv[2])
    if job is None:
        break
    claimed.append(job.id)
print(json.dumps(claimed))
"""


def test_two_processes_claim_each_job_once(queue):
    """Two worker processes drain one queue file at the same moment
    (released together once both are ready) while this process holds
    its own connection open."""
    job_ids = {queue.submit("study", {"n": index}) for index in range(200)}
    workers = [python_process(_CLAIM_ALL, queue.path, "w%d" % index)
               for index in range(2)]
    for worker in workers:
        assert worker.stdout.readline().strip() == "ready"
    for worker in workers:
        worker.stdin.write("go\n")
        worker.stdin.flush()
    claimed = []
    for worker in workers:
        out, err = worker.communicate(timeout=120)
        assert worker.returncode == 0, err
        claimed += json.loads(out)
    assert len(claimed) == len(job_ids)
    assert set(claimed) == job_ids
    assert queue.counts()["running"] == len(job_ids)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_opens_its_own_connection(queue):
    first = queue.submit("study", {})
    inherited = queue._db

    def child():
        job = queue.claim("child")
        return (job is not None and job.id == first
                and queue._db is not None and queue._db is not inherited)

    assert succeeds_in_fork(child)
    assert queue._db is inherited
    assert queue.get(first).worker == "child"
    second = queue.submit("study", {})
    assert queue.claim("parent").id == second


def test_threads_share_one_queue_and_store_connection(tmp_path):
    """Eight threads (more than the cores) drive one queue object and
    one store object on one file, switching every microsecond: every
    job is claimed once and every checkpoint lands, so no call ran on
    the shared connection inside another's transaction."""
    path = str(tmp_path / "jobs.db")
    queue, store = JobQueue(path), ExperimentStore(path)
    job_ids = {queue.submit("study", {"n": index}) for index in range(80)}
    claimed, errors = [], []

    def worker(name):
        try:
            while True:
                job = queue.claim(name)
                if job is None:
                    return
                store.put("cell-%s" % job.id, {"by": name})
                assert queue.heartbeat(job.id, name, progress={"n": 1})
                assert store.has("cell-%s" % job.id)
                assert queue.complete(job.id, name, result_key=job.id)
                claimed.append(job.id)
        except Exception as exc:      # reported below, with its thread
            errors.append("%s: %r" % (name, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=("w%d" % i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(claimed) == sorted(job_ids)
    assert queue.counts()["done"] == len(job_ids)
    assert store.count("cell") == len(job_ids)
