"""End-to-end smoke check: boot the service, drive it, drain it.

Run as::

    PYTHONPATH=src python -m repro.service.smoke [--executor thread]

Boots a real server on an ephemeral port, then asserts the full
request path works: /healthz, an optimize (a computed search), the same
optimize again (result-cache hit), an evaluate of the returned design,
a small Monte Carlo, a Pareto front whose unit-exponent pick matches
the optimize answer, and /metrics accounting for all of it.  Exits
non-zero on the first failed expectation — CI's ``service-smoke`` job
is exactly this module.
"""

from __future__ import annotations

import argparse
import sys
import time

from .client import ServiceClient
from .server import ServerThread, ServiceConfig
from ..analysis.experiments import DEFAULT_CACHE_PATH, Session


def check(condition, label):
    if not condition:
        raise AssertionError("smoke check failed: %s" % label)
    print("  ok: %s" % label)


def run_smoke(executor="thread", workers=2, cache_path=DEFAULT_CACHE_PATH):
    started = time.perf_counter()
    print("building session (cache: %s)..." % (cache_path or "disabled"))
    session = Session.create(cache_path=cache_path or None,
                             voltage_mode="paper")
    config = ServiceConfig(port=0, executor=executor, workers=workers,
                           cache_path=cache_path)
    print("starting %s-executor server..." % executor)
    with ServerThread(config, session=session) as running:
        with ServiceClient(port=running.port) as client:
            health = client.healthz()
            check(health["status"] == "ok", "/healthz reports ok")

            first = client.optimize(128, flavor="hvt", method="M2")
            check(first["design"]["n_r"] * first["design"]["n_c"]
                  == 128 * 8, "optimize returns a 128 B design")
            check(first["metrics"]["edp"] > 0, "optimize EDP is positive")
            check(first["meta"]["cached"] is False,
                  "first optimize is a cache miss")

            second = client.optimize(128, flavor="hvt", method="M2")
            check(second["meta"]["cached"] is True,
                  "repeat optimize is a cache hit")
            check(second["design"] == first["design"],
                  "cached design matches")

            evaluated = client.evaluate(first["design"], flavor="hvt")
            check(evaluated["yield_ok"] is True,
                  "optimal design satisfies the yield constraint")
            check(abs(evaluated["metrics"]["edp"]
                      - first["metrics"]["edp"])
                  <= 1e-9 * abs(first["metrics"]["edp"]),
                  "evaluate agrees with the optimizer's EDP")

            mc = client.montecarlo(8, flavor="hvt", seed=1,
                                   metrics=("hsnm",))
            check(mc["n"] == 8 and "hsnm" in mc["metrics"],
                  "montecarlo returns hsnm stats")

            pareto = client.pareto(128, flavor="hvt", method="M2")
            check(len(pareto["front"]) >= 1,
                  "pareto returns a non-empty front")
            check(min(p["edp"] for p in pareto["front"])
                  == pareto["best_weighted"]["point"]["edp"],
                  "unit-exponent best_weighted is the front's EDP min")
            check(pareto["best_weighted"]["point"]["edp"]
                  == first["metrics"]["edp"],
                  "pareto EDP optimum matches /v1/optimize")

            metrics = client.metrics()
            check(metrics["requests"]["total"] >= 5,
                  "/metrics counted the requests")
            check(metrics["cache"]["hits"] >= 1,
                  "/metrics shows the cache hit")
            check(metrics["batch_sizes"],
                  "/metrics has batch-size histograms")
    print("smoke passed in %.1f s (executor=%s)"
          % (time.perf_counter() - started, executor))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Service smoke check (boot, drive, drain).")
    parser.add_argument("--executor", choices=("thread", "process"),
                        default="thread")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--cache", default=DEFAULT_CACHE_PATH,
                        help="characterization cache path ('' disables)")
    args = parser.parse_args(argv)
    return run_smoke(executor=args.executor, workers=args.workers,
                     cache_path=args.cache)


if __name__ == "__main__":
    sys.exit(main())
