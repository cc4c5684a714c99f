"""The asyncio optimization server.

Request lifecycle::

    connection -> parse (http.py) -> route table (ROUTES)
        -> normalize (api.py)
        -> result cache (cache.py)            hit? answer immediately
        -> experiment store (repro.store)     stored? answer from it
        -> singleflight (cache.py)            identical in flight? join it
        -> batcher (batching.py)              Monte Carlo coalesces behind
                                              its group's in-flight solve
        -> worker pool (engines.py)           one dispatch per batch
        -> cache fill + response

Endpoints (:data:`ROUTES`, one handler each):

* ``POST /v1/optimize``    — min-EDP design for one capacity/flavor/method
* ``POST /v1/pareto``      — energy-delay Pareto front (+ ``E^a D^b``
  pick) for one capacity/flavor/method
* ``POST /v1/yield``       — ECC-relaxed yield study cell (fixed-delta
  baseline vs margin-relaxed search under a code)
* ``POST /v1/evaluate``    — metrics/margins of one explicit design point
* ``POST /v1/montecarlo``  — cell margin distributions
* ``POST /v1/jobs``        — submit a durable study sweep (202 Accepted)
* ``GET  /v1/jobs``        — list jobs + per-state counts
* ``GET  /v1/jobs/{id}``   — job status/progress (+ results when done)
* ``DELETE /v1/jobs/{id}`` — cancel (409 once terminal)
* ``GET  /healthz``        — liveness + drain state
* ``GET  /metrics``        — counters, latency/batch histograms, cache
  stats, and engine perf merged from every worker

One dispatcher (:meth:`OptimizationServer._route`) matches the table,
answers 405 with an ``Allow`` header for a method a route does not
serve, 503 for every POST while draining, and maps the exceptions
handlers raise to statuses in one place (:func:`_error_response`).

The jobs endpoints exist when the config names a ``jobs_path``; results
are checkpointed per cell to the shared experiment store
(:mod:`repro.store`), which also fronts ``/v1/optimize`` so the service,
job workers, the study runner, and the CLI never repeat a search any of
them has finished.  Every response carries an ``X-Request-Id`` header
(echoing the caller's, or freshly minted) that also tags the
``repro.service`` dispatch logs.

Backpressure: when queued-plus-executing items reach ``max_pending``
the server answers ``429`` with a ``Retry-After`` header instead of
letting latency grow without bound.  ``drain()`` (SIGTERM in the CLI)
stops accepting, finishes everything in flight, and shuts the pool
down — in-flight callers get their answers, new ones get ``503``.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import os
import re
import signal
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .api import PARSERS, BadRequest, parse_request
from .batching import BatchQueue, QueueFull
from .cache import ResultCache, Singleflight
from .engines import (
    COALESCING_KINDS,
    best_weighted_fields,
    execute_job,
    run_job_in_worker,
)
from .http import ProtocolError, read_request, write_response
from .metrics import ServiceMetrics
from ..analysis.experiments import (
    DEFAULT_CACHE_PATH,
    FLAVORS,
    METHODS,
    Session,
)
from ..analysis.runner import session_pool, warm_session
from ..errors import JobError
from ..jobs import JobQueue
from ..jobs.worker import SessionProvider, normalize_study_spec, run_worker
from ..opt import DesignSpace
from ..store import (
    ExperimentStore,
    make_provenance,
    pareto_cell_key,
    payload_json_safe,
    study_cell_key,
    yield_cell_key,
)

logger = logging.getLogger("repro.service")


@dataclass
class ServiceConfig:
    """Tunable knobs of one server instance."""

    host: str = "127.0.0.1"
    port: int = 8787              # 0 = ephemeral (tests)
    executor: str = "thread"      # "thread" shares one session; "process"
                                  # forks warm workers (CPU-bound scale)
    workers: int = 0              # 0 = os.cpu_count()
    max_batch: int = 8            # largest coalesced Monte Carlo batch
    max_pending: int = 64         # queued+executing bound (429 beyond)
    cache_path: str = DEFAULT_CACHE_PATH
    voltage_mode: str = "paper"
    jobs_path: str = None         # durable queue SQLite; None = no jobs API
    store_path: str = None        # experiment store; None = share jobs_path
    job_workers: int = 1          # background job worker threads
    job_lease_seconds: float = 30.0
    job_poll_ms: float = 200.0    # idle poll of the job workers

    def resolved_workers(self):
        return self.workers or os.cpu_count() or 1

    def resolved_store_path(self):
        """The store location, when any store is configured at all."""
        return self.store_path or self.jobs_path


def _job_from_group(group_key, items):
    """Rebuild the plain-data job a worker executes from a batch."""
    kind = group_key[0]
    if kind in ("optimize", "pareto", "yield", "evaluate"):
        return {"kind": kind, "flavor": group_key[1], "items": items}
    if kind == "montecarlo":
        _, flavor, metrics = group_key
        return {"kind": kind, "flavor": flavor, "metrics": list(metrics),
                "items": items}
    raise ValueError("unknown batch group kind %r" % (kind,))


class Route:
    """One endpoint: a path template and its handler per HTTP method.

    ``handlers`` maps each method the endpoint serves to the name of an
    :class:`OptimizationServer` coroutine method called as
    ``handler(request, request_id, **fields)``, where ``fields`` holds
    the path segments matched by ``{name}`` in the template.  A
    ``jobs`` route exists only on a server started with a jobs queue.
    """

    def __init__(self, template, handlers, jobs=False):
        self.template = template
        self.handlers = handlers
        self.allow = ", ".join(handlers)
        self.jobs = jobs
        self.pattern = re.compile("/".join(
            "(?P<%s>[^/]+)" % part[1:-1] if part.startswith("{")
            else re.escape(part)
            for part in template.split("/")) + r"\Z")


#: Every endpoint the server answers.
ROUTES = (
    Route("/healthz", {"GET": "_health"}),
    Route("/metrics", {"GET": "_metrics"}),
    *(Route(path, {"POST": "_handle_api"}) for path in PARSERS),
    Route("/v1/jobs", {"GET": "_list_jobs", "POST": "_submit_job"},
          jobs=True),
    Route("/v1/jobs/{job_id}", {"GET": "_get_job", "DELETE": "_cancel_job"},
          jobs=True),
)


def _error_response(exc):
    """The ``(status, payload, headers)`` answer to an exception a
    handler raised — the one place errors map to statuses."""
    headers = {}
    if isinstance(exc, ProtocolError):
        status = exc.status
    elif isinstance(exc, BadRequest):
        status = 400
    elif isinstance(exc, JobError):
        status = 404            # the queue knows no job by that id
    elif isinstance(exc, QueueFull):
        status = 429
        headers["Retry-After"] = "%d" % exc.retry_after
    else:
        logger.error("unhandled error in a handler", exc_info=exc)
        return 500, {"error": "%s: %s" % (type(exc).__name__, exc)}, {}
    return status, {"error": str(exc)}, headers


class OptimizationServer:
    """One service instance: sockets, batcher, pool, cache, metrics."""

    def __init__(self, config=None, session=None):
        self.config = config or ServiceConfig()
        self.session = session      # may be pre-built (tests/bench)
        self.metrics = ServiceMetrics()
        self._cache = ResultCache()
        self._flight = Singleflight()
        self._batcher = None
        self._pool = None
        self._server = None
        self._writers = set()
        self._conn_tasks = set()
        self._draining = False
        self._started_at = None
        self.port = None
        self.jobs = None            # JobQueue when jobs_path is set
        self.store = None           # ExperimentStore when configured
        self._job_threads = []
        self._job_stop = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        """Build the pool + batcher and start listening.

        Blocking setup (session build, margin warm-up) runs before the
        socket opens, so a request can never observe a half-built
        server.
        """
        config = self.config
        if config.executor not in ("thread", "process"):
            raise ValueError(
                "executor must be 'thread' or 'process', got %r"
                % (config.executor,)
            )
        if self.session is None:
            self.session = Session.create(
                cache_path=config.cache_path or None,
                voltage_mode=config.voltage_mode,
            )
        workers = config.resolved_workers()
        if config.executor == "process":
            space = DesignSpace()
            warm_session(self.session, space, FLAVORS, METHODS)
            self._pool = session_pool(self.session, space, workers)
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-service"
            )
        self._batcher = BatchQueue(
            self._dispatch,
            max_batch=config.max_batch,
            max_pending=config.max_pending,
            on_batch=self.metrics.observe_batch,
            coalesce=COALESCING_KINDS,
        )
        self._start_jobs()
        self._server = await asyncio.start_server(
            self._handle_connection, config.host, config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        return self

    def _start_jobs(self):
        """Open the queue/store and start the background worker pool.

        The workers share the server's warm session through a seeded
        :class:`SessionProvider`, so a submitted sweep starts computing
        immediately — no per-job characterization.
        """
        config = self.config
        store_path = config.resolved_store_path()
        if store_path:
            self.store = ExperimentStore(store_path)
        if not config.jobs_path:
            return
        self.jobs = JobQueue(config.jobs_path)
        provider = SessionProvider(
            default_cache_path=config.cache_path or None)
        provider.seed(self.session, cache_path=config.cache_path or None)
        self._job_stop = threading.Event()
        for index in range(max(0, config.job_workers)):
            worker_id = "svc-%d-w%d" % (os.getpid(), index)
            thread = threading.Thread(
                target=run_worker,
                kwargs=dict(
                    queue_path=config.jobs_path, store=self.store,
                    worker_id=worker_id,
                    lease_seconds=config.job_lease_seconds,
                    poll_interval=config.job_poll_ms / 1e3,
                    stop=self._job_stop, sessions=provider,
                    default_cache_path=config.cache_path or None,
                ),
                name="repro-job-%s" % worker_id, daemon=True,
            )
            thread.start()
            self._job_threads.append(thread)

    async def drain(self):
        """Graceful shutdown: stop accepting, finish in-flight work."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._batcher is not None:
            await self._batcher.drain()
        # In-flight responses are resolved by now; close lingering
        # keep-alive connections so their handler tasks finish.
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()
        # Let handler tasks observe the close and finish, so loop
        # teardown never cancels one mid-await (noisy otherwise).
        if self._conn_tasks:
            await asyncio.wait(set(self._conn_tasks), timeout=5)
        if self._job_stop is not None:
            # Job workers notice the stop flag at the next cell/poll
            # boundary; an unfinished sweep keeps its checkpoints and is
            # re-queued when its lease expires.
            self._job_stop.set()
            loop = asyncio.get_running_loop()
            for thread in self._job_threads:
                await loop.run_in_executor(None, thread.join, 60)
        # The job threads are gone and every request is answered, so
        # nothing uses the store or queue connections any more.
        for db in (self.store, self.jobs):
            if db is not None:
                db.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self, group_key, items):
        # Correlation ids ride along with the batch items; strip them
        # before the job crosses the executor boundary.
        request_ids = [item.pop("_request_id", None) for item in items]
        logger.debug("dispatch %s batch of %d rid=%s", group_key[0],
                     len(items),
                     ",".join(rid or "-" for rid in request_ids))
        job = _job_from_group(group_key, items)
        loop = asyncio.get_running_loop()
        if self.config.executor == "process":
            payloads, snapshot = await loop.run_in_executor(
                self._pool, run_job_in_worker, job
            )
            self.metrics.merge_worker_snapshot(snapshot)
        else:
            payloads = await loop.run_in_executor(
                self._pool, execute_job, self.session, job
            )
        return payloads

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader, writer):
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    await write_response(writer, exc.status,
                                         {"error": str(exc)},
                                         keep_alive=False)
                    break
                if request is None:
                    break
                start = time.perf_counter()
                # Callers may supply their own correlation id; otherwise
                # one is minted here.  Either way it is echoed back and
                # threaded through the dispatch logs.
                request_id = (request.headers.get("x-request-id")
                              or "req-%s" % uuid.uuid4().hex[:12])
                status, payload, headers = await self._route(request,
                                                             request_id)
                elapsed = time.perf_counter() - start
                headers = dict(headers or {})
                headers["X-Request-Id"] = request_id
                self.metrics.observe_request(request.path, status,
                                             elapsed)
                logger.debug("%s %s -> %d (%.1f ms) rid=%s",
                             request.method, request.path, status,
                             elapsed * 1e3, request_id)
                keep = request.keep_alive and not self._draining
                await write_response(writer, status, payload, headers,
                                     keep_alive=keep)
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _route(self, request, request_id):
        """``(status, payload, extra_headers)`` for one request."""
        for route in ROUTES:
            match = route.pattern.match(request.path)
            if match is not None:
                break
        else:
            return 404, {"error": "unknown path %r" % request.path}, {}
        if route.jobs and self.jobs is None:
            return 404, {"error": "jobs are not enabled on this server "
                                  "(start it with a jobs path, e.g. "
                                  "repro serve --jobs jobs.db)"}, {}
        handler = route.handlers.get(request.method)
        if handler is None:
            return 405, {"error": "use %s" % " or ".join(route.handlers)}, \
                {"Allow": route.allow}
        if request.method == "POST" and self._draining:
            return 503, {"error": "server is draining"}, {}
        try:
            return await getattr(self, handler)(request, request_id,
                                                **match.groupdict())
        except Exception as exc:
            return _error_response(exc)

    # -- compute endpoints -------------------------------------------------

    async def _handle_api(self, request, request_id):
        route = request.path
        req = parse_request(route, request.json())
        key = req.key()
        hit, item = self._cache.get(key)
        if hit:
            return self._item_response(item, cached=True)
        store_key = self._store_key(route, req)
        if store_key is not None:
            stored = await asyncio.get_running_loop().run_in_executor(
                None, self.store.get, store_key)
            if stored is not None:
                # Someone — a job worker, a past service run, the study
                # runner — already computed this exact search; serve it
                # from the experiment store and warm the in-memory
                # cache on the way out.
                response = payload_json_safe(stored)
                response.pop("landscape", None)
                if route == "/v1/pareto":
                    # The stored front is exponent-free; the E^a D^b
                    # pick is re-derived per request from plain data.
                    response["best_weighted"] = best_weighted_fields(
                        response["front"], req.energy_exponent,
                        req.delay_exponent,
                    )
                item = {"ok": True, "result": response}
                self._cache.put(key, item)
                return self._item_response(item, cached=True,
                                           stored=True)
        future, leader = self._flight.join(key)
        if not leader:
            # An identical request is already computing; share its
            # outcome (a QueueFull included, which answers 429).
            item = await future
            return self._item_response(item, cached=False, coalesced=True)
        try:
            item_fields = req.item()
            item_fields["_request_id"] = request_id
            batch_future = self._batcher.enqueue(req.group_key(),
                                                 item_fields)
            item = await batch_future
        except BaseException as exc:
            self._flight.reject(key, exc)
            # Mark retrieved so a flight with no followers does not log
            # an "exception was never retrieved" warning at GC.
            future.exception()
            raise
        store_payload = item.pop("store_payload", None)
        if item["ok"]:
            if store_key is not None and store_payload is not None:
                await asyncio.get_running_loop().run_in_executor(
                    None, self.store.put, store_key, store_payload,
                    make_provenance(
                        inputs={"route": route, "request_id": request_id,
                                "capacity_bytes": req.capacity_bytes,
                                "flavor": req.flavor,
                                "method": req.method},
                        worker="service",
                    ))
            self._cache.put(key, item)
        self._flight.resolve(key, item)
        return self._item_response(item, cached=False)

    def _store_key(self, route, req):
        """The experiment-store key of a request, when it has one.

        ``/v1/optimize`` answers address exactly one study-matrix cell,
        so the service deduplicates against job workers, the study
        runner, and the CLI; ``/v1/pareto`` fronts key the same cell
        identity under their own kind (exponent-free, so requests that
        differ only in the ``best_weighted`` query share one sweep).
        """
        if self.store is None:
            return None
        if route == "/v1/optimize":
            return study_cell_key(self.session, DesignSpace(),
                                  req.capacity_bytes, req.flavor,
                                  req.method)
        if route == "/v1/pareto":
            return pareto_cell_key(self.session, DesignSpace(),
                                   req.capacity_bytes, req.flavor,
                                   req.method)
        if route == "/v1/yield":
            return yield_cell_key(self.session, DesignSpace(),
                                  req.capacity_bytes, req.flavor,
                                  req.method, req.code, req.y_target,
                                  sampler=req.sampler,
                                  ci_target=req.ci_target,
                                  max_samples=req.max_samples)
        return None

    def _item_response(self, item, cached, coalesced=False, stored=False):
        if item["ok"]:
            payload = dict(item["result"])
            payload["meta"] = {"cached": cached, "coalesced": coalesced,
                               "stored": stored}
            return 200, payload, {}
        return item["status"], {"error": item["error"]}, {}

    # -- jobs endpoints ----------------------------------------------------

    async def _submit_job(self, request, request_id):
        body = request.json()
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        kind = body.get("kind", "study")
        if kind != "study":
            raise BadRequest("unknown job kind %r" % (kind,))
        try:
            spec = normalize_study_spec(body.get("spec") or {})
        except JobError as exc:
            raise BadRequest(str(exc)) from exc
        priority = body.get("priority", 0)
        max_attempts = body.get("max_attempts", 3)
        for name, value in (("priority", priority),
                            ("max_attempts", max_attempts)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise BadRequest("%s must be an integer" % name)
        if max_attempts < 1:
            raise BadRequest("max_attempts must be >= 1")
        # Answer with the row as inserted: a background worker may claim
        # the job the moment the insert commits, so a read-back could
        # already say "running".
        job = await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.jobs.enqueue(kind, spec, priority,
                                            max_attempts))
        logger.debug("job %s submitted (%d cells) rid=%s", job.id,
                     len(spec["capacities"]) * len(spec["flavors"])
                     * len(spec["methods"]), request_id)
        return 202, job.to_payload(), \
            {"Location": "/v1/jobs/%s" % job.id}

    async def _list_jobs(self, request, request_id):
        loop = asyncio.get_running_loop()
        jobs = await loop.run_in_executor(None, self.jobs.list_jobs,
                                          None, 100)
        counts = await loop.run_in_executor(None, self.jobs.counts)
        return 200, {"jobs": [job.to_payload() for job in jobs],
                     "counts": counts}, {}

    async def _get_job(self, request, request_id, job_id):
        loop = asyncio.get_running_loop()
        job = await loop.run_in_executor(None, self.jobs.get, job_id)
        payload = job.to_payload()
        if job.state == "done" and job.result_key:
            result = await loop.run_in_executor(
                None, self._sweep_payload, job.result_key)
            if result is not None:
                payload["result"] = result
        return 200, payload, {}

    async def _cancel_job(self, request, request_id, job_id):
        loop = asyncio.get_running_loop()
        cancelled = await loop.run_in_executor(None, self.jobs.cancel,
                                               job_id)
        job = await loop.run_in_executor(None, self.jobs.get, job_id)
        if not cancelled:
            return 409, {"error": "job %s is already %s"
                                  % (job_id, job.state),
                         "job": job.to_payload()}, {}
        logger.debug("job %s cancelled rid=%s", job_id, request_id)
        return 200, job.to_payload(), {}

    def _sweep_payload(self, result_key):
        """The JSON view of a finished sweep (spec + per-cell results)."""
        record = self.store.get(result_key)
        if record is None:
            return None
        cells = []
        for key in record.get("cells", []):
            cell = self.store.get(key)
            if cell is not None:
                cell = payload_json_safe(cell)
                cell.pop("landscape", None)
                cells.append(cell)
        return {"key": result_key, "spec": record.get("spec"),
                "cells": cells}

    # -- introspection endpoints -------------------------------------------

    async def _health(self, request, request_id):
        payload = {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(
                time.monotonic() - (self._started_at or time.monotonic()),
                3,
            ),
            "pending": self._batcher.pending if self._batcher else 0,
            "executor": self.config.executor,
            "workers": self.config.resolved_workers(),
        }
        if self.jobs is not None:
            payload["jobs"] = self.jobs.counts()
        return 200, payload, {}

    async def _metrics(self, request, request_id):
        extra = {
            "cache": self._cache.stats(),
            "singleflight": self._flight.stats(),
            "batching": {
                "pending": self._batcher.pending if self._batcher else 0,
                "max_batch": self.config.max_batch,
                "max_pending": self.config.max_pending,
                "coalescing_kinds": sorted(COALESCING_KINDS),
            },
        }
        gauges = {}
        if self.jobs is not None:
            counts = self.jobs.counts()
            extra["jobs"] = {
                "counts": counts,
                "workers": len(self._job_threads),
                "lease_seconds": self.config.job_lease_seconds,
            }
            # Flat queue-depth gauges under stable names for scrapers.
            for state in ("queued", "running", "done", "failed",
                          "cancelled"):
                gauges["jobs.%s" % state] = counts.get(state, 0)
        if self.store is not None:
            extra["store"] = self.store.stats()
        extra["gauges"] = gauges
        return 200, self.metrics.render(extra=extra), {}


async def serve_forever(config, session=None):
    """CLI entry: start, serve until SIGTERM/SIGINT, drain, return."""
    server = OptimizationServer(config, session=session)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)
    print("repro service listening on http://%s:%d  "
          "(executor=%s workers=%d batch<=%d)"
          % (config.host, server.port, config.executor,
             config.resolved_workers(), config.max_batch))
    await stop.wait()
    print("draining...")
    await server.drain()
    print("drained; %d requests served." % server.metrics.total_requests)
    return server


class ServerThread:
    """Run a server on a background thread (tests, benchmarks, smoke).

    ::

        with ServerThread(ServiceConfig(port=0), session=session) as srv:
            client = ServiceClient(port=srv.port)
            ...

    Entering starts the loop thread and blocks until the socket is
    listening (re-raising any startup failure); exiting requests a
    drain and joins the thread.
    """

    def __init__(self, config=None, session=None):
        self.config = config or ServiceConfig(port=0)
        self._session = session
        self.server = None
        self.port = None
        self._thread = None
        self._loop = None
        self._stop = None
        self._ready = threading.Event()
        self._error = None

    def __enter__(self):
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service-loop")
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            self._thread.join()
            raise self._error
        self.port = self.server.port
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    def _run(self):
        async def body():
            self.server = OptimizationServer(self.config,
                                             session=self._session)
            try:
                await self.server.start()
            except Exception as exc:
                self._error = exc
                self._ready.set()
                return
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            await self.server.drain()

        asyncio.run(body())

    def stop(self):
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=120)
        self._loop = None
