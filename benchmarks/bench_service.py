"""Optimization-service benchmark: Monte Carlo coalescing on vs off.

Standalone script (not a pytest benchmark) so CI can run it directly::

    PYTHONPATH=src python benchmarks/bench_service.py --quick

Boots a real server twice — once with coalescing on (``max_batch=8``:
Monte Carlo draws that arrive while their group's solve is in flight
leave together, up to 8, when it finishes) and once with it off
(``max_batch=1``: every request dispatches alone) — and drives each
with the same closed-loop mixed workload from N concurrent clients:
unique-seed Monte Carlo draws (engine work that coalesces), design-point
evaluations (a few distinct designs, so the result cache sees repeats),
and a sprinkle of optimize calls (cache hits after first touch).
Both servers share one session, on which the mix's optimize cells run
once, unmeasured, before either scenario starts, so neither pays the
session's first searches.

Writes the machine-readable ``BENCH_service.json`` baseline (repo
root): exact p50/p95/p99 latency from the raw samples, throughput, the
server's batch-size histogram, and cache hit rates for both scenarios.

A second scenario drives ``/v1/pareto`` against a store-backed server:
every combo's front is swept exactly once, repeat requests resolve
from the result cache, and requests
differing only in their ``E^a D^b`` exponents dedup through the
exponent-free store payload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro.analysis.experiments import Session
from repro.analysis.runner import StudyTask, execute_study_task
from repro.service import ServerThread, ServiceClient, ServiceConfig

_HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(_HERE, "..", "BENCH_service.json")
CACHE_PATH = os.path.join(_HERE, "..", ".repro_cache.json")

#: Clients x requests-per-client per scenario.
FULL = {"clients": 8, "requests": 60, "mc_samples": 4}
QUICK = {"clients": 4, "requests": 15, "mc_samples": 3}

#: A few distinct design points so /v1/evaluate traffic repeats (cache).
DESIGNS = tuple(
    {"n_r": n_r, "n_c": 32, "n_pre": 2, "n_wr": 2,
     "v_ddc": v_ddc, "v_ssc": 0.0, "v_wl": v_wl, "v_bl": 0.0}
    for n_r, v_ddc, v_wl in (
        (64, 0.60, 0.55), (128, 0.65, 0.60), (64, 0.70, 0.65),
        (256, 0.60, 0.60),
    )
)

OPTIMIZE_CAPACITIES = (128, 256, 1024)


def _worker(port, worker_id, sizing, seed_base):
    """One closed-loop client; returns its per-request latencies [s]."""
    latencies = []
    with ServiceClient(port=port) as client:
        for j in range(sizing["requests"]):
            start = time.perf_counter()
            if j % 5 == 0:
                client.evaluate(DESIGNS[(worker_id + j) % len(DESIGNS)],
                                flavor="hvt")
            elif j % 5 == 1:
                client.optimize(
                    OPTIMIZE_CAPACITIES[(worker_id + j)
                                        % len(OPTIMIZE_CAPACITIES)],
                    flavor="hvt", method="M2")
            else:
                client.montecarlo(
                    sizing["mc_samples"], flavor="hvt",
                    seed=seed_base + worker_id * 10_000 + j,
                    metrics=("hsnm",))
            latencies.append(time.perf_counter() - start)
    return latencies


def _warm_up(session):
    """Run the mix's optimize cells once on the shared session,
    unmeasured.  The first search of a cell fills the session's margin
    memo; without this the batching-on scenario, which runs first,
    would absorb those cold searches and the on/off ratio would measure
    the order of the scenarios instead of coalescing."""
    for capacity in OPTIMIZE_CAPACITIES:
        execute_study_task(session, None, StudyTask(capacity, "hvt", "M2"))


def _percentile(samples, q):
    """Exact percentile from the raw samples (nearest-rank)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def _run_scenario(label, session, sizing, batching, seed_base):
    config = ServiceConfig(
        port=0, executor="thread", workers=max(2, sizing["clients"] // 2),
        max_batch=8 if batching else 1,
        cache_path=CACHE_PATH,
    )
    with ServerThread(config, session=session) as running:
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=sizing["clients"]) as pool:
            futures = [
                pool.submit(_worker, running.port, worker_id, sizing,
                            seed_base)
                for worker_id in range(sizing["clients"])
            ]
            latencies = [s for f in futures for s in f.result()]
        elapsed = time.perf_counter() - start
        with ServiceClient(port=running.port) as client:
            metrics = client.metrics()

    batch_sizes = {
        kind: {"count": h["count"], "mean": h["sum"] / h["count"],
               "max": h["max"], "buckets": h["buckets"]}
        for kind, h in metrics["batch_sizes"].items()
    }
    report = {
        "batching": batching,
        "requests": len(latencies),
        "seconds": elapsed,
        "throughput_rps": len(latencies) / elapsed,
        "latency_ms": {
            "mean": sum(latencies) / len(latencies) * 1e3,
            "p50": _percentile(latencies, 0.50) * 1e3,
            "p95": _percentile(latencies, 0.95) * 1e3,
            "p99": _percentile(latencies, 0.99) * 1e3,
            "max": max(latencies) * 1e3,
        },
        "batch_sizes": batch_sizes,
        "cache": {
            "hits": metrics["cache"]["hits"],
            "misses": metrics["cache"]["misses"],
            "hit_rate": metrics["cache"]["hit_rate"],
        },
        "singleflight": metrics["singleflight"],
    }
    print("%-13s %4d req in %6.2f s  %6.1f req/s  "
          "p50=%6.1f ms  p95=%6.1f ms  p99=%6.1f ms  cache=%.0f%%"
          % (label, report["requests"], elapsed,
             report["throughput_rps"], report["latency_ms"]["p50"],
             report["latency_ms"]["p95"], report["latency_ms"]["p99"],
             100.0 * report["cache"]["hit_rate"]))
    return report


#: The distinct /v1/pareto requests of the Pareto scenario.
PARETO_COMBOS = tuple(
    (capacity, method)
    for capacity in OPTIMIZE_CAPACITIES
    for method in ("M1", "M2")
)


def _run_pareto_scenario(label, session, store_path):
    """Three concurrent waves over PARETO_COMBOS: a cold sweep, an
    exponent-shifted wave (store dedup: zero new sweeps), and an exact
    repeat (result-cache hits)."""
    from repro import perf

    def counter(name):
        return perf.get_registry().snapshot()["counters"].get(name, 0)

    config = ServiceConfig(
        port=0, executor="thread", workers=2,
        cache_path=CACHE_PATH, store_path=store_path,
    )
    before_sweeps = counter("service.engine.pareto_sweeps")
    with ServerThread(config, session=session) as running:
        def call(combo, energy_exponent, delay_exponent):
            capacity, method = combo
            start = time.perf_counter()
            with ServiceClient(port=running.port) as client:
                payload = client.pareto(
                    capacity, flavor="hvt", method=method,
                    energy_exponent=energy_exponent,
                    delay_exponent=delay_exponent)
            return time.perf_counter() - start, payload

        start = time.perf_counter()
        latencies = []
        payloads = []
        for exponents in ((1.0, 1.0), (1.0, 2.0), (1.0, 1.0)):
            with ThreadPoolExecutor(
                    max_workers=len(PARETO_COMBOS)) as pool:
                wave = list(pool.map(
                    lambda combo: call(combo, *exponents),
                    PARETO_COMBOS,
                ))
            latencies += [seconds for seconds, _ in wave]
            payloads.append([payload for _, payload in wave])
        elapsed = time.perf_counter() - start
        with ServiceClient(port=running.port) as client:
            metrics = client.metrics()

    report = {
        "requests": len(latencies),
        "combos": len(PARETO_COMBOS),
        "seconds": elapsed,
        "throughput_rps": len(latencies) / elapsed,
        "latency_ms": {
            "mean": sum(latencies) / len(latencies) * 1e3,
            "p50": _percentile(latencies, 0.50) * 1e3,
            "max": max(latencies) * 1e3,
        },
        "sweeps": counter("service.engine.pareto_sweeps") - before_sweeps,
        "front_sizes": {
            "%dB/%s" % combo: len(payload["front"])
            for combo, payload in zip(PARETO_COMBOS, payloads[0])
        },
        "cache": {
            "hits": metrics["cache"]["hits"],
            "misses": metrics["cache"]["misses"],
        },
    }
    print("%-13s %4d req in %6.2f s  %6.1f req/s  sweeps=%d  "
          "cache hits=%d"
          % (label, report["requests"], elapsed,
             report["throughput_rps"], report["sweeps"],
             report["cache"]["hits"]))

    # Every front must be non-empty, exponent-shifted answers must share
    # the cold wave's fronts (store dedup, no second sweep), and the
    # exact repeats must be cache hits.
    for wave in payloads:
        assert all(payload["front"] for payload in wave)
    for cold, shifted in zip(payloads[0], payloads[1]):
        assert cold["front"] == shifted["front"]
        assert shifted["best_weighted"]["delay_exponent"] == 2.0
    assert report["sweeps"] == len(PARETO_COMBOS), (
        "store dedup failed: exponent-shifted wave re-ran sweeps"
    )
    assert all(p["meta"]["cached"] for p in payloads[2])
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizing (fewer clients/requests)")
    parser.add_argument("--output", default=BASELINE_PATH,
                        help="where to write BENCH_service.json")
    args = parser.parse_args(argv)
    sizing = QUICK if args.quick else FULL

    print("building session (warm characterization cache)...")
    session = Session.create(cache_path=CACHE_PATH, voltage_mode="paper")
    print("warming the session: %d optimize cells, unmeasured..."
          % len(OPTIMIZE_CAPACITIES))
    _warm_up(session)

    print("driving %d clients x %d requests per scenario..."
          % (sizing["clients"], sizing["requests"]))
    batched = _run_scenario("batching-on", session, sizing,
                            batching=True, seed_base=1_000_000)
    unbatched = _run_scenario("batching-off", session, sizing,
                              batching=False, seed_base=2_000_000)

    print("driving 3 waves of %d concurrent /v1/pareto requests..."
          % len(PARETO_COMBOS))
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        pareto = _run_pareto_scenario(
            "pareto", session, os.path.join(tmp, "store.db"))

    baseline = {
        "schema": "BENCH_service/v1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "cpus": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "mode": "quick" if args.quick else "full",
        "config": {
            "clients": sizing["clients"],
            "requests_per_client": sizing["requests"],
            "mc_samples": sizing["mc_samples"],
            "executor": "thread",
            "workload": "60% montecarlo / 20% evaluate / 20% optimize",
        },
        "batching_on": batched,
        "batching_off": unbatched,
        "throughput_ratio": (batched["throughput_rps"]
                             / unbatched["throughput_rps"]),
        "pareto": pareto,
    }
    with open(args.output, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("throughput ratio (on/off): %.2fx"
          % baseline["throughput_ratio"])
    print("service baseline written to %s" % args.output)

    # Sanity gates: batching must actually have coalesced work, and the
    # repeated evaluate/optimize traffic must have hit the cache.
    mc_batches = batched["batch_sizes"].get("montecarlo")
    assert mc_batches and mc_batches["max"] > 1, (
        "batching-on scenario never coalesced a Monte Carlo batch"
    )
    assert batched["cache"]["hits"] > 0, "cache saw no repeat traffic"
    return 0


if __name__ == "__main__":
    sys.exit(main())
