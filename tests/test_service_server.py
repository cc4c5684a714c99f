"""End-to-end tests of the optimization service (repro.service).

A real server on an ephemeral port, driven by the real client over
localhost.  The acceptance-critical properties live here:

* two concurrent identical optimize requests cost exactly one engine
  invocation (singleflight);
* a coalesced Monte Carlo batch is bit-identical to serial
  one-at-a-time calls against the engine directly;
* process workers answer bit-identically to the thread executor;
* /metrics accounts for requests, batches, cache hits, and engine perf.
"""

from __future__ import annotations

import json
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import perf
from repro.cell.montecarlo import run_cell_montecarlo
from repro.cell.sram6t import SRAM6TCell
from repro.errors import ServiceError
from repro.service import ServerThread, ServiceClient, ServiceConfig
from repro.service.server import ROUTES

from .conftest import CACHE_PATH


@pytest.fixture(scope="module")
def service(paper_session):
    """One shared thread-executor server for the module."""
    config = ServiceConfig(port=0, executor="thread", workers=2)
    with ServerThread(config, session=paper_session) as running:
        yield running


@pytest.fixture()
def client(service):
    with ServiceClient(port=service.port) as c:
        yield c


def counter_value(name):
    return perf.get_registry().snapshot()["counters"].get(name, 0)


# ---------------------------------------------------------------------------
# Basic endpoints
# ---------------------------------------------------------------------------

def test_healthz(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["executor"] == "thread"
    assert health["uptime_seconds"] >= 0


def test_unknown_path_is_404(client):
    status, payload, _ = client.request("GET", "/nope", check=False)
    assert status == 404
    assert "unknown path" in payload["error"]


def test_wrong_method_is_405(client):
    status, _, headers = client.request("GET", "/v1/optimize", check=False)
    assert status == 405
    assert headers.get("allow") == "POST"
    status, _, headers = client.request("POST", "/healthz", body={},
                                        check=False)
    assert status == 405
    assert headers.get("allow") == "GET"


#: Every endpoint and exactly the methods it serves (``{job_id}`` is
#: filled with an unknown id).
ENDPOINT_METHODS = {
    "/healthz": {"GET"},
    "/metrics": {"GET"},
    "/v1/optimize": {"POST"},
    "/v1/pareto": {"POST"},
    "/v1/yield": {"POST"},
    "/v1/evaluate": {"POST"},
    "/v1/montecarlo": {"POST"},
    "/v1/jobs": {"GET", "POST"},
    "/v1/jobs/{job_id}": {"GET", "DELETE"},
}


def test_route_table(paper_session, tmp_path):
    assert {route.template for route in ROUTES} == set(ENDPOINT_METHODS)
    config = ServiceConfig(port=0, executor="thread", workers=1,
                           cache_path=CACHE_PATH,
                           jobs_path=str(tmp_path / "routes.db"),
                           job_workers=0)
    with ServerThread(config, session=paper_session) as running:
        with ServiceClient(port=running.port) as c:
            for template, methods in ENDPOINT_METHODS.items():
                path = template.replace("{job_id}", "job-nope")
                for method in {"GET", "POST", "PUT", "DELETE",
                               "PATCH"} - methods:
                    status, _, headers = c.request(method, path,
                                                   check=False)
                    assert status == 405, (method, path)
                    assert set(headers["allow"].split(", ")) == methods
            status, payload, _ = c.request("GET", "/v1/nope",
                                           check=False)
            assert status == 404
            assert "unknown path" in payload["error"]
            for method, path in (("GET", "/v1/fleet"),
                                 ("GET", "/v1/fleet/metrics"),
                                 ("GET", "/v1/store/cell-0123abcd"),
                                 ("PUT", "/v1/store/cell-0123abcd"),
                                 ("POST", "/v1/jobs/claim"),
                                 ("POST", "/v1/jobs/job-nope/heartbeat")):
                status, _, _ = c.request(method, path, body={},
                                         check=False)
                assert status in (404, 405), (method, path)

            # Every POST answers 503 while draining; GETs still answer.
            running.server._draining = True
            try:
                for path in ("/v1/optimize", "/v1/jobs"):
                    status, payload, _ = c.request("POST", path, body={},
                                                   check=False)
                    assert status == 503, path
                    assert "draining" in payload["error"]
                assert c.healthz()["status"] == "draining"
            finally:
                running.server._draining = False

        # A body shorter than its Content-Length, then EOF: 400, and
        # the server keeps serving new connections.
        with socket.create_connection(("127.0.0.1", running.port),
                                      timeout=30) as sock:
            sock.sendall(b"POST /v1/optimize HTTP/1.1\r\n"
                         b"Content-Length: 100\r\n\r\n"
                         b'{"capacity_bytes": 1')
            sock.shutdown(socket.SHUT_WR)
            response = sock.recv(65536).decode("latin-1")
        assert response.startswith("HTTP/1.1 400 ")
        with ServiceClient(port=running.port) as c:
            assert c.healthz()["status"] == "ok"


def test_sequential_requests_reuse_one_connection(service):
    with ServiceClient(port=service.port) as client:
        for _ in range(5):
            client.healthz()
        assert client.connections_opened == 1


def test_invalid_body_is_400(client):
    status, payload, _ = client.request(
        "POST", "/v1/optimize", body={"capacity_bytes": 100},
        check=False)
    assert status == 400
    assert "power of two" in payload["error"]
    status, payload, _ = client.request("POST", "/v1/evaluate", body={},
                                        check=False)
    assert status == 400
    assert "design" in payload["error"]


def test_malformed_json_is_400(service):
    raw = (b"POST /v1/optimize HTTP/1.1\r\n"
           b"Content-Length: 9\r\n\r\nnot json!")
    with socket.create_connection(("127.0.0.1", service.port),
                                  timeout=30) as sock:
        sock.sendall(raw)
        response = sock.recv(65536).decode("latin-1")
    assert response.startswith("HTTP/1.1 400 ")
    body = json.loads(response.split("\r\n\r\n", 1)[1])
    assert "JSON" in body["error"]


def test_client_error_raises_service_error(client):
    with pytest.raises(ServiceError) as excinfo:
        client.optimize(100)
    assert excinfo.value.status == 400


# ---------------------------------------------------------------------------
# Optimize / evaluate correctness and caching
# ---------------------------------------------------------------------------

def test_optimize_matches_direct_engine(client, paper_session):
    from repro.opt import DesignSpace, ExhaustiveOptimizer, make_policy

    served = client.optimize(1024, flavor="hvt", method="M2")
    optimizer = ExhaustiveOptimizer(
        paper_session.model("hvt"), DesignSpace(),
        paper_session.constraint("hvt"),
    )
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    direct = optimizer.optimize(1024 * 8, policy)
    assert served["design"]["n_r"] == direct.design.n_r
    assert served["design"]["n_c"] == direct.design.n_c
    assert served["design"]["v_ddc"] == direct.design.v_ddc
    assert served["design"]["v_wl"] == direct.design.v_wl
    assert served["metrics"]["edp"] == pytest.approx(direct.metrics.edp,
                                                     rel=0, abs=0)
    assert served["n_evaluated"] == direct.n_evaluated


def test_repeat_request_hits_result_cache(client):
    first = client.optimize(4096, flavor="hvt", method="M1")
    second = client.optimize(4096, flavor="hvt", method="M1")
    assert first["meta"]["cached"] is False
    assert second["meta"]["cached"] is True
    first.pop("meta")
    second.pop("meta")
    assert first == second


def test_field_order_shares_cache_key(client):
    # Canonicalization: same request spelled differently is one key
    # (and a legacy ``engine`` field is ignored).
    a = client.request("POST", "/v1/optimize", {
        "capacity_bytes": 16384, "flavor": "hvt", "method": "M2",
    })[1]
    b = client.request("POST", "/v1/optimize", {
        "method": "M2", "engine": "vectorized", "flavor": "hvt",
        "capacity_bytes": 16384,
    })[1]
    assert a["meta"]["cached"] is False
    assert b["meta"]["cached"] is True


def test_evaluate_matches_direct_model(client, paper_session):
    design = {"n_r": 64, "n_c": 32, "n_pre": 2, "n_wr": 2,
              "v_ddc": 0.60, "v_ssc": 0.0, "v_wl": 0.55, "v_bl": 0.0}
    served = client.evaluate(design, flavor="lvt")
    model = paper_session.model("lvt")
    from repro.array.model import DesignPoint
    direct = model.evaluate(64 * 32, DesignPoint(**design))
    assert served["metrics"]["edp"] == direct.edp
    assert served["metrics"]["e_total"] == direct.e_total
    assert served["metrics"]["d_array"] == direct.d_array
    margins = paper_session.constraint("lvt").margins(
        design["v_ddc"], design["v_ssc"], design["v_wl"], design["v_bl"])
    assert served["margins"]["hsnm"] == float(margins[0])


# ---------------------------------------------------------------------------
# Pareto endpoint
# ---------------------------------------------------------------------------

def test_pareto_matches_direct_front(client, paper_session):
    from repro.opt import DesignSpace, ExhaustiveOptimizer, make_policy
    from repro.opt.pareto import pareto_front

    served = client.pareto(1024, flavor="hvt", method="M2")
    optimizer = ExhaustiveOptimizer(
        paper_session.model("hvt"), DesignSpace(),
        paper_session.constraint("hvt"),
    )
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    landscape = optimizer.optimize_reference(
        1024 * 8, policy, keep_landscape=True).landscape
    expected = pareto_front(landscape)
    assert len(served["front"]) == len(expected)
    for row, p in zip(served["front"], expected):
        assert row["d_array"] == p.d_array
        assert row["e_total"] == p.e_total
        assert row["edp"] == p.edp
        assert row["n_r"] == p.n_r
        assert row["v_ssc"] == p.v_ssc
        assert row["n_pre"] == p.n_pre
        assert row["n_wr"] == p.n_wr
    assert served["n_tiles"] == len(landscape)
    assert "engine" not in served and "tiles_pruned" not in served


def test_pareto_best_weighted_unit_exponents_match_optimize(client):
    served = client.pareto(1024, flavor="hvt", method="M2")
    direct = client.optimize(1024, flavor="hvt", method="M2")
    picked = served["best_weighted"]
    assert picked["energy_exponent"] == 1.0
    assert picked["delay_exponent"] == 1.0
    assert picked["point"]["edp"] == direct["metrics"]["edp"]
    assert picked["point"]["n_r"] == direct["design"]["n_r"]


def test_pareto_repeat_request_hits_result_cache(client):
    first = client.pareto(4096, flavor="hvt", method="M1")
    second = client.pareto(4096, flavor="hvt", method="M1")
    assert first["meta"]["cached"] is False
    assert second["meta"]["cached"] is True
    first.pop("meta")
    second.pop("meta")
    assert first == second


def test_pareto_invalid_exponent_is_400(client):
    for bad in (0, -1.5, "x"):
        status, payload, _ = client.request(
            "POST", "/v1/pareto",
            body={"capacity_bytes": 1024, "energy_exponent": bad},
            check=False)
        assert status == 400
        assert "energy_exponent" in payload["error"]


def test_pareto_store_dedups_across_exponents(paper_session, tmp_path):
    # The stored front is exponent-free: two requests differing only in
    # the E^a D^b query run ONE sweep, and the server re-derives each
    # answer's best_weighted pick from the stored plain-data front.
    config = ServiceConfig(port=0, executor="thread", workers=2,
                           store_path=str(tmp_path / "store.db"))
    with ServerThread(config, session=paper_session) as running:
        before = counter_value("service.engine.pareto_sweeps")
        with ServiceClient(port=running.port) as c:
            a = c.pareto(512, flavor="lvt", method="M1")
            b = c.pareto(512, flavor="lvt", method="M1",
                         energy_exponent=1.0, delay_exponent=2.0)
        after = counter_value("service.engine.pareto_sweeps")
    assert after - before == 1
    assert a["front"] == b["front"]
    assert b["best_weighted"]["delay_exponent"] == 2.0
    # An ED^2 pick can only trade energy for delay relative to EDP.
    assert (b["best_weighted"]["point"]["d_array"]
            <= a["best_weighted"]["point"]["d_array"])


# ---------------------------------------------------------------------------
# Yield endpoint
# ---------------------------------------------------------------------------

def test_yield_matches_direct_study_cell(client, paper_session):
    from repro.yields.study import compute_yield_cell

    served = client.yield_study(1024, flavor="hvt", method="M2")
    direct = compute_yield_cell(paper_session, 1024, "hvt", "M2")
    expected = direct.summary()
    for field in ("delta_z", "sigma0", "delta_relaxed",
                  "sense_voltage_relaxed", "baseline_edp", "relaxed_edp",
                  "edp_gain", "yield_coded"):
        assert served[field] == expected[field], field
    assert served["code_described"] == "(72,64) SECDED"
    assert served["baseline_result"]["design"] is not None
    assert served["relaxed_result"]["metrics"]["edp"] \
        == expected["relaxed_edp"]
    assert "engine" not in served


def test_yield_none_code_reproduces_fixed_delta(client):
    served = client.yield_study(1024, flavor="hvt", method="M2",
                                code="none")
    assert served["delta_z"] == 0.0
    assert served["edp_gain"] == 0.0
    assert served["baseline_result"]["design"] \
        == served["relaxed_result"]["design"]
    assert served["relaxed_edp"] == served["baseline_edp"]


def test_yield_repeat_request_hits_result_cache(client):
    first = client.yield_study(1024, flavor="hvt", method="M2")
    second = client.yield_study(1024, flavor="hvt", method="M2")
    assert second["meta"]["cached"] is True
    first.pop("meta")
    second.pop("meta")
    assert first == second


def test_yield_invalid_inputs_are_400(client):
    status, payload, _ = client.request(
        "POST", "/v1/yield",
        body={"capacity_bytes": 1024, "code": "not-a-code"},
        check=False)
    assert status == 400
    assert "code" in payload["error"]
    status, payload, _ = client.request(
        "POST", "/v1/yield",
        body={"capacity_bytes": 1024, "y_target": 1.5},
        check=False)
    assert status == 400
    assert "y_target" in payload["error"]
    for sampler in ("bogus", "naive", "antithetic", "stratified"):
        status, payload, _ = client.request(
            "POST", "/v1/yield",
            body={"capacity_bytes": 1024, "sampler": sampler},
            check=False)
        assert status == 400
        assert "sampler" in payload["error"]


def test_yield_store_dedups_repeat_cells(paper_session, tmp_path):
    # A second server sharing the store serves the cell without
    # re-running either search (the study-cell payload is
    # content-addressed like /v1/optimize and /v1/pareto).
    store_path = str(tmp_path / "store.db")
    config = ServiceConfig(port=0, executor="thread", workers=2,
                           store_path=store_path)
    with ServerThread(config, session=paper_session) as running:
        with ServiceClient(port=running.port) as c:
            first = c.yield_study(512, flavor="hvt", method="M2")
    before = counter_value("service.engine.yield_cells")
    with ServerThread(config, session=paper_session) as running:
        with ServiceClient(port=running.port) as c:
            second = c.yield_study(512, flavor="hvt", method="M2")
    after = counter_value("service.engine.yield_cells")
    assert after == before
    assert second["meta"]["stored"] is True
    assert second["relaxed_edp"] == first["relaxed_edp"]
    assert second["baseline_result"] == first["baseline_result"]


# ---------------------------------------------------------------------------
# Singleflight: N identical concurrent requests -> one engine invocation
# ---------------------------------------------------------------------------

def test_concurrent_identical_optimize_runs_engine_once(service):
    before = counter_value("service.engine.optimize_searches")

    def call():
        with ServiceClient(port=service.port) as c:
            return c.optimize(256, flavor="lvt", method="M1")

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda _: call(), range(2)))

    after = counter_value("service.engine.optimize_searches")
    assert after - before == 1
    assert results[0]["design"] == results[1]["design"]
    assert results[0]["metrics"] == results[1]["metrics"]
    # At least one of the two answers was computed (not a cache hit),
    # and neither triggered a second search.
    assert any(not r["meta"]["cached"] for r in results)


# ---------------------------------------------------------------------------
# Bad input is refused before it can join (and fail) a batch
# ---------------------------------------------------------------------------

EVALUATE_DESIGN = {"n_r": 64, "n_c": 32, "n_pre": 2, "n_wr": 2,
                   "v_ddc": 0.60, "v_ssc": 0.0, "v_wl": 0.55, "v_bl": 0.0}


@pytest.mark.parametrize("route, bad, good", [
    ("/v1/montecarlo",
     {"n": 4, "seed": -1, "flavor": "hvt", "metrics": ["hsnm"]},
     {"n": 4, "seed": 1, "flavor": "hvt", "metrics": ["hsnm"]}),
    ("/v1/evaluate",
     {"flavor": "lvt", "design": dict(EVALUATE_DESIGN, v_ddc=float("nan"))},
     {"flavor": "lvt", "design": EVALUATE_DESIGN}),
    ("/v1/evaluate",
     {"flavor": "lvt", "design": dict(EVALUATE_DESIGN, v_bl=float("inf"))},
     {"flavor": "lvt", "design": EVALUATE_DESIGN}),
    ("/v1/evaluate",
     {"flavor": "lvt", "design": dict(EVALUATE_DESIGN, v_ssc=10 ** 400)},
     {"flavor": "lvt", "design": EVALUATE_DESIGN}),
], ids=["negative-seed", "nan-float", "infinite-float", "float-overflow"])
def test_bad_input_is_400_and_spares_its_batch_mates(paper_session, route,
                                                     bad, good):
    # One worker, so a bad body that got past validation could end up
    # waiting behind, or (Monte Carlo) sharing a dispatch with, the
    # good one.
    config = ServiceConfig(port=0, executor="thread", workers=1)
    with ServerThread(config, session=paper_session) as running:
        def post(body):
            with ServiceClient(port=running.port) as c:
                return c.request("POST", route, body, check=False)[:2]

        status, payload = post(bad)
        assert status == 400, payload
        with ThreadPoolExecutor(max_workers=2) as pool:
            bad_answer, good_answer = pool.map(post, (bad, good))
    assert bad_answer[0] == 400
    assert good_answer[0] == 200, good_answer[1]


# ---------------------------------------------------------------------------
# Monte Carlo: coalesced batches are bit-identical to serial calls
# ---------------------------------------------------------------------------

def test_coalesced_montecarlo_is_bit_identical_to_serial(paper_session):
    # A large first draw holds its group's dispatch open (a few hundred
    # ms); the two draws sent while it runs coalesce into one vectorized
    # solve that leaves when it finishes.
    config = ServiceConfig(port=0, executor="thread", workers=2,
                           max_batch=8)
    specs = [(400, 11), (4, 7), (5, 0)]
    with ServerThread(config, session=paper_session) as running:
        before = counter_value("service.engine.mc_coalesced_batches")

        def call(spec):
            n, seed = spec
            with ServiceClient(port=running.port) as c:
                return c.montecarlo(n, flavor="hvt", seed=seed,
                                    metrics=("hsnm",),
                                    include_samples=True)

        with ThreadPoolExecutor(max_workers=3) as pool:
            first = pool.submit(call, specs[0])
            with ServiceClient(port=running.port) as c:
                deadline = time.monotonic() + 30
                while (c.healthz()["pending"] < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.002)
            late = list(pool.map(call, specs[1:]))
            served = [first.result()] + late
        after = counter_value("service.engine.mc_coalesced_batches")
        with ServiceClient(port=running.port) as c:
            mc_batches = c.metrics()["batch_sizes"]["montecarlo"]

    assert after - before == 1, "the two late draws did not coalesce"
    assert (mc_batches["count"], mc_batches["max"]) == (2, 2)
    cell = SRAM6TCell.from_library(paper_session.library, "hvt")
    vdd = paper_session.library.vdd
    for (n, seed), payload in zip(specs, served):
        direct = run_cell_montecarlo(
            cell, n_samples=n, seed=seed, vdd=vdd, metrics=("hsnm",),
        )
        expected = [float(v) for v in direct.metric("hsnm").values]
        assert payload["samples"]["hsnm"] == expected   # bitwise equal
        assert payload["metrics"]["hsnm"]["mean"] == pytest.approx(
            direct.metric("hsnm").mean)
        assert payload["n"] == n and payload["seed"] == seed


def test_fused_optimize_requests_policy_batch_bit_identically(
        paper_session):
    # Optimize has no batched kernel: two concurrent requests of one
    # group are two dispatches of one, and each answers its own search
    # exactly.
    config = ServiceConfig(port=0, executor="thread", workers=2)
    with ServerThread(config, session=paper_session) as running:
        def call(method):
            with ServiceClient(port=running.port) as c:
                return c.optimize(512, flavor="hvt", method=method)

        with ThreadPoolExecutor(max_workers=2) as pool:
            served = list(pool.map(call, ("M1", "M2")))
        with ServiceClient(port=running.port) as c:
            batches = c.metrics()["batch_sizes"]["optimize"]

    assert (batches["count"], batches["max"]) == (2, 1)
    from repro.opt import DesignSpace, ExhaustiveOptimizer, make_policy
    optimizer = ExhaustiveOptimizer(
        paper_session.model("hvt"), DesignSpace(),
        paper_session.constraint("hvt")
    )
    for method, payload in zip(("M1", "M2"), served):
        policy = make_policy(method, paper_session.yield_levels("hvt"))
        direct = optimizer.optimize_reference(512 * 8, policy)
        assert payload["design"]["n_r"] == direct.design.n_r
        assert payload["design"]["v_ssc"] == float(direct.design.v_ssc)
        assert payload["metrics"]["edp"] == direct.metrics.edp
        assert payload["method"] == method


@pytest.mark.parametrize("legacy", ["loop", "numpy"])
def test_montecarlo_ignores_a_legacy_engine_field(client, legacy):
    """Older clients name a cell engine; any value is accepted and
    changes nothing, and no answer names an engine."""
    body = {"n": 5, "seed": 9, "flavor": "hvt", "metrics": ["hsnm"],
            "include_samples": True}
    status, plain, _ = client.request("POST", "/v1/montecarlo", body,
                                      check=False)
    assert status == 200, plain
    status, legacy_answer, _ = client.request(
        "POST", "/v1/montecarlo", dict(body, engine=legacy), check=False)
    assert status == 200, legacy_answer
    assert legacy_answer["samples"] == plain["samples"]
    assert "engine" not in plain and "engine" not in legacy_answer


def test_montecarlo_failure_spares_its_batch_mates(paper_session,
                                                   monkeypatch):
    """A draw that fails the merged solve answers 422 alone; its
    batch-mates are re-solved one by one and answer exactly as a batch
    without it."""
    from repro.errors import CharacterizationError
    from repro.service import engines

    merged = engines.run_cell_montecarlo_multi

    def fragile(cell, specs, **kwargs):
        if any(seed == 13 for _, seed in specs):
            raise CharacterizationError("pathological draw")
        return merged(cell, specs, **kwargs)

    monkeypatch.setattr(engines, "run_cell_montecarlo_multi", fragile)
    items = [{"n": 3, "seed": seed, "include_samples": True}
             for seed in (1, 13, 2)]
    job = {"kind": "montecarlo", "flavor": "hvt", "metrics": ["hsnm"],
           "items": items}
    first, failed, last = engines.execute_job(paper_session, job)
    assert failed == {"ok": False, "status": 422,
                      "error": "pathological draw"}
    assert [first, last] == engines.execute_job(
        paper_session, dict(job, items=[items[0], items[2]]))


def test_montecarlo_summary_fields(client):
    payload = client.montecarlo(8, flavor="hvt", seed=3,
                                metrics=("hsnm", "rsnm"))
    assert set(payload["metrics"]) == {"hsnm", "rsnm"}
    for stats in payload["metrics"].values():
        assert set(stats) == {"mean", "sigma", "mu_minus_3sigma",
                              "yield_at_floor"}
    assert 0.0 <= payload["joint_yield_at_floor"] <= 1.0
    assert "samples" not in payload


# ---------------------------------------------------------------------------
# Process executor
# ---------------------------------------------------------------------------

def test_process_executor_answers_like_the_thread_executor(paper_session,
                                                           client):
    """Process workers build their session from the on-disk cache and
    take the parent's margin memos; every answer is bit-identical to
    the shared-session thread executor's."""
    def ask(c):
        return [c.optimize(1024, flavor="hvt", method="M2"),
                c.optimize(256, flavor="lvt", method="M1"),
                c.evaluate(EVALUATE_DESIGN, flavor="lvt"),
                c.evaluate(dict(EVALUATE_DESIGN, v_ssc=-0.1), flavor="hvt")]

    config = ServiceConfig(port=0, executor="process", workers=2,
                           cache_path=CACHE_PATH)
    with ServerThread(config, session=paper_session) as running:
        with ServiceClient(port=running.port) as c:
            assert c.healthz()["executor"] == "process"
            served = ask(c)
    expected = ask(client)
    for payload in served + expected:
        payload.pop("meta")
    assert served == expected


# ---------------------------------------------------------------------------
# Backpressure and drain
# ---------------------------------------------------------------------------

def test_backpressure_answers_429_with_retry_after(paper_session):
    config = ServiceConfig(port=0, executor="thread", workers=1,
                           max_pending=0)
    with ServerThread(config, session=paper_session) as running:
        with ServiceClient(port=running.port) as c:
            status, payload, headers = c.request(
                "POST", "/v1/optimize", {"capacity_bytes": 128},
                check=False)
            assert status == 429
            assert "capacity" in payload["error"]
            assert int(headers["retry-after"]) >= 1
            # GET endpoints stay available under pressure.
            assert c.healthz()["status"] == "ok"


def test_drained_server_refuses_connections(paper_session):
    config = ServiceConfig(port=0, executor="thread", workers=1)
    with ServerThread(config, session=paper_session) as running:
        port = running.port
        with ServiceClient(port=port) as c:
            assert c.healthz()["status"] == "ok"
    with pytest.raises((ConnectionError, OSError)):
        socket.create_connection(("127.0.0.1", port), timeout=2).close()


# ---------------------------------------------------------------------------
# Metrics endpoint
# ---------------------------------------------------------------------------

def test_metrics_accounts_for_traffic(client):
    client.optimize(128, flavor="hvt", method="M2")
    client.optimize(128, flavor="hvt", method="M2")   # cache hit
    client.request("GET", "/nope", check=False)       # a 404
    metrics = client.metrics()

    requests = metrics["requests"]
    assert requests["total"] >= 3
    assert requests["by_route"].get("/v1/optimize", 0) >= 2
    assert requests["by_class"].get("2xx", 0) >= 2
    assert requests["errors_by_route"].get("/nope", 0) >= 1

    latency = metrics["latency_ms"]["/v1/optimize"]
    assert latency["count"] >= 2
    assert latency["p50"] <= latency["p99"]
    assert "le_inf" in latency["buckets"]

    assert metrics["batch_sizes"]["optimize"]["count"] >= 1
    assert metrics["cache"]["hits"] >= 1
    assert metrics["singleflight"]["flights"] >= 1
    assert metrics["batching"] == {"pending": 0, "max_batch": 8,
                                   "max_pending": 64,
                                   "coalescing_kinds": ["montecarlo"]}

    # Engine perf merged into the payload (thread executor records in
    # the server process; "workers" holds process-pool deltas).
    server_perf = metrics["perf"]["server"]
    assert server_perf["counters"].get("service.engine.optimize_searches",
                                       0) >= 1
    assert "service.job.optimize" in server_perf["timers"]
    assert "counters" in metrics["perf"]["workers"]
