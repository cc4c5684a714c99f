"""Service-level jobs API, store dedup, request-id correlation, and
client backoff — a real server with background job workers."""

from __future__ import annotations

import time

import pytest

from repro import perf
from repro.errors import ServiceError
from repro.service import ServerThread, ServiceClient, ServiceConfig

from .conftest import CACHE_PATH

SPEC = {"capacities": [128], "flavors": ["lvt"], "methods": ["M1", "M2"]}


@pytest.fixture(scope="module")
def service(paper_session, tmp_path_factory):
    db_path = str(tmp_path_factory.mktemp("jobs") / "jobs.db")
    config = ServiceConfig(port=0, executor="thread", workers=2,
                           max_wait_ms=5.0, cache_path=CACHE_PATH,
                           jobs_path=db_path, job_workers=1,
                           job_poll_ms=50.0)
    with ServerThread(config, session=paper_session) as running:
        yield running


@pytest.fixture()
def client(service):
    with ServiceClient(port=service.port) as c:
        yield c


def counter_value(name):
    return perf.get_registry().snapshot()["counters"].get(name, 0)


# ---------------------------------------------------------------------------
# Jobs API
# ---------------------------------------------------------------------------

def test_submit_runs_to_done_with_results(client):
    accepted = client.submit_job(SPEC)
    assert accepted["state"] == "queued"
    assert accepted["kind"] == "study"

    job = client.wait_for_job(accepted["id"], timeout=300.0,
                              interval=0.1)
    assert job["state"] == "done"
    assert job["progress"]["completed"] == job["progress"]["total"] == 2
    result = job["result"]
    assert result["key"].startswith("sweep-")
    assert len(result["cells"]) == 2
    for cell in result["cells"]:
        assert cell["capacity_bytes"] == 128
        assert cell["flavor"] == "lvt"
        assert cell["metrics"]["edp"] > 0
        assert "landscape" not in cell


def test_optimize_deduped_against_job_results(client):
    """A cell the background worker already computed must come straight
    out of the experiment store — no second engine search."""
    job = client.submit_job(SPEC)
    client.wait_for_job(job["id"], timeout=300.0, interval=0.1)

    before = counter_value("service.engine.optimize_searches")
    payload = client.optimize(128, flavor="lvt", method="M1",
                              engine="vectorized")
    after = counter_value("service.engine.optimize_searches")
    assert after == before
    assert payload["meta"]["stored"] is True
    assert payload["metrics"]["edp"] > 0
    assert payload["engine"] == "vectorized"


def test_submit_bad_spec_is_400(client):
    status, payload, _ = client.request(
        "POST", "/v1/jobs",
        {"kind": "study", "spec": {"capacities": [100]}}, check=False)
    assert status == 400
    assert "powers of two" in payload["error"]


def test_submit_unknown_kind_is_400(client):
    status, payload, _ = client.request(
        "POST", "/v1/jobs", {"kind": "telepathy", "spec": {}},
        check=False)
    assert status == 400
    assert "kind" in payload["error"]


def test_jobs_listing_and_counts(client):
    job = client.submit_job(SPEC)
    client.wait_for_job(job["id"], timeout=300.0, interval=0.1)
    listing = client.jobs()
    assert any(entry["id"] == job["id"] for entry in listing["jobs"])
    assert listing["counts"]["done"] >= 1
    # /healthz and /metrics surface the same counts.
    assert client.healthz()["jobs"]["done"] >= 1
    metrics = client.metrics()
    assert metrics["jobs"]["workers"] == 1
    assert metrics["store"]["total"] >= 1


def test_unknown_job_is_404(client):
    status, payload, _ = client.request("GET", "/v1/jobs/job-nope",
                                        check=False)
    assert status == 404
    assert "job-nope" in payload["error"]


def test_cancel_terminal_job_is_409(client):
    job = client.submit_job(SPEC)
    client.wait_for_job(job["id"], timeout=300.0, interval=0.1)
    with pytest.raises(ServiceError) as excinfo:
        client.cancel_job(job["id"])
    assert excinfo.value.status == 409


def test_jobs_method_policy(client):
    status, _, headers = client.request("PUT", "/v1/jobs", body={},
                                        check=False)
    assert status == 405
    assert "POST" in headers.get("allow", "")
    status, _, headers = client.request("POST", "/v1/jobs/some-id",
                                        body={}, check=False)
    assert status == 405


def test_jobs_disabled_server_answers_404(paper_session):
    config = ServiceConfig(port=0, executor="thread", workers=1,
                           cache_path=CACHE_PATH)
    with ServerThread(config, session=paper_session) as running:
        with ServiceClient(port=running.port) as c:
            status, payload, _ = c.request("POST", "/v1/jobs",
                                           {"kind": "study", "spec": {}},
                                           check=False)
            assert status == 404
            assert "jobs" in payload["error"]


def test_submit_answers_queued_when_claimed_before_the_answer(
        paper_session, tmp_path):
    """A worker may claim a job the moment its insert commits; the 202
    still describes the job as submitted."""
    config = ServiceConfig(port=0, executor="thread", workers=1,
                           cache_path=CACHE_PATH,
                           jobs_path=str(tmp_path / "race-jobs.db"),
                           job_workers=0)
    with ServerThread(config, session=paper_session) as running:
        queue = running.server.jobs
        enqueue = queue.enqueue

        def enqueue_then_claim(*args, **kwargs):
            job = enqueue(*args, **kwargs)
            assert queue.claim("other-worker", 30.0).id == job.id
            return job

        queue.enqueue = enqueue_then_claim
        with ServiceClient(port=running.port) as c:
            accepted = c.submit_job(SPEC)
            assert accepted["state"] == "queued"
            assert accepted["attempts"] == 0
            assert c.job(accepted["id"])["state"] == "running"


def test_metrics_exposes_queue_depth_gauges(paper_session, tmp_path):
    config = ServiceConfig(port=0, executor="thread", workers=2,
                           cache_path=CACHE_PATH,
                           jobs_path=str(tmp_path / "gauge-jobs.db"),
                           job_workers=0)
    with ServerThread(config, session=paper_session) as service:
        with ServiceClient(port=service.port) as client:
            client.submit_job({"capacities": [128], "flavors": ["lvt"],
                               "methods": ["M1"]})
            gauges = client.metrics()["gauges"]
    assert gauges["jobs.queued"] == 1
    for state in ("running", "done", "failed", "cancelled"):
        assert gauges["jobs.%s" % state] == 0


# ---------------------------------------------------------------------------
# Request-id correlation
# ---------------------------------------------------------------------------

def test_request_id_echoed(client):
    _, _, headers = client.request("GET", "/healthz",
                                   request_id="my-rid-42")
    assert headers["x-request-id"] == "my-rid-42"


def test_request_id_minted_when_absent(service):
    import json
    import socket

    raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    with socket.create_connection(("127.0.0.1", service.port),
                                  timeout=30) as sock:
        sock.sendall(raw)
        response = sock.recv(65536).decode("latin-1")
    head = response.split("\r\n\r\n", 1)[0]
    rid_lines = [line for line in head.split("\r\n")
                 if line.lower().startswith("x-request-id:")]
    assert len(rid_lines) == 1
    assert rid_lines[0].split(":", 1)[1].strip().startswith("req-")
    assert json.loads(response.split("\r\n\r\n", 1)[1])["status"] == "ok"


def test_request_id_attached_to_compute_responses(client):
    payload_headers = client.request(
        "POST", "/v1/optimize",
        {"capacity_bytes": 128, "flavor": "lvt", "method": "M2"},
        request_id="rid-compute-1")[2]
    assert payload_headers["x-request-id"] == "rid-compute-1"


# ---------------------------------------------------------------------------
# Client 429 backoff (satellite: Retry-After honored, bounded)
# ---------------------------------------------------------------------------

def test_client_retries_429_with_backoff(paper_session):
    """Against a zero-capacity server every attempt 429s; the client
    must sleep between attempts and surface the final 429."""
    config = ServiceConfig(port=0, executor="thread", workers=1,
                           max_pending=0, cache_path=CACHE_PATH)
    with ServerThread(config, session=paper_session) as running:
        client = ServiceClient(port=running.port, max_retries=2,
                               backoff_base=0.05, backoff_cap=0.2)
        with client:
            start = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.optimize(128)
            elapsed = time.monotonic() - start
    assert excinfo.value.status == 429
    # Two sleeps, each capped at 0.2 s but at least the base schedule.
    assert 0.1 <= elapsed


def test_backoff_honors_retry_after_and_cap():
    """Deterministic unit check of the retry schedule: Retry-After
    dominates the exponential floor, the cap bounds both."""
    client = ServiceClient(port=1, max_retries=3, backoff_base=0.1,
                           backoff_cap=1.5)
    sleeps = []
    responses = [
        (429, {}, {"retry-after": "0.4"}),   # hint above the floor
        (429, {}, {}),                       # no hint -> floor 0.2
        (429, {}, {"retry-after": "60"}),    # hint above the cap
        (200, {"ok": True}, {}),
    ]
    client._roundtrip = lambda *a: responses[len(sleeps)]

    import repro.service.client as client_module
    original_sleep = client_module.time.sleep
    client_module.time.sleep = sleeps.append
    try:
        status, payload, _ = client.request("POST", "/v1/optimize", {})
    finally:
        client_module.time.sleep = original_sleep
    assert status == 200 and payload == {"ok": True}
    assert sleeps == [0.4, 0.2, 1.5]


def test_check_false_does_not_retry_429():
    client = ServiceClient(port=1, max_retries=5)
    calls = []

    def fake_roundtrip(*a):
        calls.append(1)
        return (429, {"error": "full"}, {"retry-after": "1"})

    client._roundtrip = fake_roundtrip
    status, _, _ = client.request("POST", "/v1/optimize", {},
                                  check=False)
    assert status == 429
    assert len(calls) == 1
