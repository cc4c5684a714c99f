"""repro.service: async EDP-optimization server.

A stdlib-only (asyncio + json) HTTP service wrapping the repository's
optimization engines:

* :mod:`~repro.service.server` — the asyncio server, request routing,
  graceful drain (:class:`~repro.service.server.OptimizationServer`)
* :mod:`~repro.service.api` — request schemas, cache keys, batch groups
* :mod:`~repro.service.batching` — backlog batcher (Monte Carlo
  coalesces behind its in-flight solve; nothing waits for a timer)
* :mod:`~repro.service.cache` — LRU result cache and singleflight
* :mod:`~repro.service.engines` — batch-job execution on worker pools
* :mod:`~repro.service.metrics` — counters and latency/batch histograms
* :mod:`~repro.service.client` — synchronous convenience client
* :mod:`~repro.service.smoke` — end-to-end smoke check (CI entry)

Start one with ``PYTHONPATH=src python -m repro.cli serve`` and see
``docs/SERVICE.md`` for the protocol.
"""

from .api import (
    BadRequest,
    EvaluateRequest,
    MonteCarloRequest,
    OptimizeRequest,
    parse_request,
)
from .batching import BatchQueue, QueueFull
from .cache import ResultCache, Singleflight
from .client import ServiceClient
from .metrics import Histogram, ServiceMetrics
from .server import (
    OptimizationServer,
    ServerThread,
    ServiceConfig,
    serve_forever,
)

__all__ = [
    "BadRequest",
    "BatchQueue",
    "EvaluateRequest",
    "Histogram",
    "MonteCarloRequest",
    "OptimizationServer",
    "OptimizeRequest",
    "QueueFull",
    "ResultCache",
    "ServerThread",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
    "Singleflight",
    "parse_request",
    "serve_forever",
]
