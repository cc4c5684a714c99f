"""Synchronous client for the optimization service (stdlib only).

A thin convenience wrapper over :mod:`http.client` with one persistent
keep-alive connection, JSON encode/decode, and one method per endpoint::

    with ServiceClient(port=8787) as client:
        best = client.optimize(4096, flavor="hvt", method="M2")
        print(best["design"], best["metrics"]["edp"])

Non-2xx answers raise :class:`repro.errors.ServiceError` carrying the
HTTP status (and ``retry_after`` for 429s); pass ``check=False`` to
:meth:`ServiceClient.request` to get the raw ``(status, payload,
headers)`` instead — the tests exercise backpressure that way.
"""

from __future__ import annotations

import http.client
import json
import time
import uuid

from ..errors import ServiceError


class ServiceClient:
    """One keep-alive HTTP connection to a running service.

    Backpressure handling: when the server answers ``429`` (its pending
    queue is full) and ``check=True``, the client sleeps and retries up
    to ``max_retries`` times, honoring the server's ``Retry-After`` hint
    but never waiting less than exponential backoff from
    ``backoff_base`` nor more than ``backoff_cap`` per attempt.  With
    ``check=False`` the raw 429 is returned untouched (the
    backpressure tests rely on that).
    """

    def __init__(self, host="127.0.0.1", port=8787, timeout=300.0,
                 max_retries=2, backoff_base=0.05, backoff_cap=5.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: Sockets opened over this client's lifetime.  Sequential
        #: requests ride one keep-alive connection, so this stays at 1
        #: until the server closes it (asserted in the tests — load
        #: generators depend on the reuse).
        self.connections_opened = 0
        self._conn = None

    # -- plumbing ----------------------------------------------------------

    def _connection(self):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self.connections_opened += 1
        return self._conn

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def request(self, method, path, body=None, check=True,
                request_id=None):
        """One logical round trip; returns ``(status, payload, headers)``.

        ``check=True`` raises :class:`ServiceError` on any non-2xx
        status, after retrying 429s with Retry-After-aware backoff.  A
        stale keep-alive connection (server restarted, idle timeout) is
        retried once on a fresh connection.  ``request_id`` is sent as
        ``X-Request-Id``; the server echoes it (or its own) back.
        """
        budget = self.max_retries if check else 0
        for backoff_attempt in range(budget + 1):
            status, payload, response_headers = self._roundtrip(
                method, path, body, request_id)
            if status != 429 or backoff_attempt >= budget:
                break
            retry_after = response_headers.get("retry-after")
            delay = min(
                max(float(retry_after) if retry_after else 0.0,
                    self.backoff_base * 2 ** backoff_attempt),
                self.backoff_cap,
            )
            time.sleep(delay)
        if check and not 200 <= status < 300:
            retry_after = response_headers.get("retry-after")
            raise ServiceError(
                "%s %s failed: HTTP %d: %s"
                % (method, path, status,
                   payload.get("error", "(no error body)")),
                status=status,
                retry_after=float(retry_after) if retry_after else None,
            )
        return status, payload, response_headers

    def _roundtrip(self, method, path, body, request_id):
        """One wire round trip (no status policy, no 429 retries)."""
        encoded = None
        headers = {"X-Request-Id": request_id or
                   "cli-%s" % uuid.uuid4().hex[:12]}
        if body is not None:
            encoded = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=encoded, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                self.close()
                if attempt:
                    raise
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"error": "undecodable response body"}
        response_headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        return response.status, payload, response_headers

    # -- endpoints ---------------------------------------------------------

    def healthz(self):
        return self.request("GET", "/healthz")[1]

    def metrics(self):
        return self.request("GET", "/metrics")[1]

    def optimize(self, capacity_bytes, flavor="hvt", method="M2",
                 engine="vectorized"):
        """Min-EDP design for one capacity; returns the result payload."""
        return self.request("POST", "/v1/optimize", {
            "capacity_bytes": capacity_bytes,
            "flavor": flavor,
            "method": method,
            "engine": engine,
        })[1]

    def pareto(self, capacity_bytes, flavor="hvt", method="M2",
               engine="pruned", energy_exponent=1.0, delay_exponent=1.0):
        """Energy-delay Pareto front for one capacity.

        The payload carries the full ``front`` plus a ``best_weighted``
        pick minimizing ``E^energy_exponent * D^delay_exponent`` over
        the front ((1, 1) recovers the EDP optimum).
        """
        return self.request("POST", "/v1/pareto", {
            "capacity_bytes": capacity_bytes,
            "flavor": flavor,
            "method": method,
            "engine": engine,
            "energy_exponent": energy_exponent,
            "delay_exponent": delay_exponent,
        })[1]

    def yield_study(self, capacity_bytes, flavor="hvt", method="M2",
                    engine="pruned", code="secded", y_target=0.9):
        """One ECC-relaxed yield study cell.

        The payload carries both optima (``baseline_result`` /
        ``relaxed_result``), the relaxed margin floor and sensing
        window, the per-cell failure estimate, the composed array
        yield, and the headline ``edp_gain``.
        """
        return self.request("POST", "/v1/yield", {
            "capacity_bytes": capacity_bytes,
            "flavor": flavor,
            "method": method,
            "engine": engine,
            "code": code,
            "y_target": y_target,
        })[1]

    def evaluate(self, design, flavor="hvt"):
        """Metrics/margins of one explicit design point.

        ``design`` maps the :class:`~repro.array.model.DesignPoint`
        fields (n_r, n_c, n_pre, n_wr, v_ddc, v_wl, optional
        v_ssc/v_bl).
        """
        return self.request("POST", "/v1/evaluate", {
            "flavor": flavor,
            "design": dict(design),
        })[1]

    def submit_job(self, spec=None, kind="study", priority=0,
                   max_attempts=3):
        """Submit a durable study sweep; returns the 202 job payload."""
        return self.request("POST", "/v1/jobs", {
            "kind": kind,
            "spec": dict(spec or {}),
            "priority": priority,
            "max_attempts": max_attempts,
        })[1]

    def job(self, job_id):
        """Status/progress of one job (plus results once done)."""
        return self.request("GET", "/v1/jobs/%s" % job_id)[1]

    def jobs(self):
        """All jobs (newest first) plus per-state counts."""
        return self.request("GET", "/v1/jobs")[1]

    def cancel_job(self, job_id):
        """Cancel a queued/running job; raises ServiceError(409) once
        the job is terminal."""
        return self.request("DELETE", "/v1/jobs/%s" % job_id)[1]

    def wait_for_job(self, job_id, timeout=600.0, interval=0.25):
        """Poll until the job reaches a terminal state; returns it."""
        deadline = time.monotonic() + timeout
        while True:
            payload = self.job(job_id)
            if payload["state"] in ("done", "failed", "cancelled"):
                return payload
            if time.monotonic() >= deadline:
                raise ServiceError(
                    "job %s still %r after %.0f s"
                    % (job_id, payload["state"], timeout), status=504)
            time.sleep(interval)

    def montecarlo(self, n, flavor="hvt", seed=0, metrics=("hsnm", "rsnm"),
                   engine="batched", include_samples=False):
        """Cell margin distributions from an n-sample Monte Carlo."""
        return self.request("POST", "/v1/montecarlo", {
            "flavor": flavor,
            "n": n,
            "seed": seed,
            "metrics": list(metrics),
            "engine": engine,
            "include_samples": include_samples,
        })[1]
