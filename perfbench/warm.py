"""``warm_study``: the study as a notebook, a jobs worker or a series of
``repro`` commands runs it -- no HTTP, the simulator confined to
set-up.

Set-up loads a :class:`Session` from a scratch copy of the tracked
cache and runs the paper's 20-cell EDP matrix once (what one
``repro table4`` costs, yield-margin warm-up included).  The timed
phase then walks whole cycles over the 11 capacities 64 B..64 KB, each
cycle in a seed-shuffled order; every capacity is swept three ways
over both flavors and both methods:

* ``edp`` -- ``run_study``;
* ``pareto`` -- ``run_study(objective="pareto")``;
* ``jobs`` -- the same EDP sweep as a durable job: ``JobQueue.submit``
  plus ``run_worker(once=True)`` on a fresh queue/store file, so every
  cell is checkpointed.

A host-speed probe runs between operations.  Last comes one ECC-yield
sweep, ``run_study(objective="yield")``, over 16KB/HVT/M2 plus one
seed-picked HVT/M2 cell; it is reported raw (the probe tracks this
numpy-heavy phase worse than no correction at all).  Every call uses ``workers=1``, as the CLI
does, and names no engine.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import time
import uuid

from common import (
    ROOT,
    TRACKED_CACHE,
    HostProbe,
    check,
    peak_rss_mb,
    percentile,
    timing_summary,
    warm_probe,
)
from tracing import untraced

NAME = "warm_study"

CAPACITIES = tuple(64 << i for i in range(11))          # 64 B .. 64 KB
KINDS = ("edp", "pareto", "jobs")

#: Timed-phase cycles per second of ``--seconds``: one cycle (33
#: operations) takes about 2.2 s on a 2-vCPU cloud VM.
CYCLE_SECONDS = 2.2

#: The yield sweep's fixed cell and its seed-picked partner (HVT/M2
#: cells whose yield search costs about the same).
YIELD_FIXED = 16384
YIELD_PARTNERS = (1024, 4096)

HEADLINE_TXT = os.path.join(ROOT, "benchmarks", "output", "headline.txt")
TABLE4_TXT = os.path.join(ROOT, "benchmarks", "output",
                          "table4_design_params.txt")
BENCH_YIELD = os.path.join(ROOT, "BENCH_yield.json")


def setup(params, tmp_dir):
    """Session from a scratch copy of the tracked cache, then the
    paper's EDP matrix."""
    from repro.analysis.experiments import Session
    from repro.analysis.runner import run_study

    cache_path = os.path.join(tmp_dir, "warm-cache-%s.json"
                              % uuid.uuid4().hex)
    shutil.copyfile(TRACKED_CACHE, cache_path)
    session = Session.create(cache_path=cache_path, voltage_mode="paper")
    return session, run_study(session=session, workers=1)


def plan(seed, cycles, capacities=CAPACITIES):
    """The timed phase's capacity order and the yield partner cell."""
    rng = random.Random(seed)
    order = [c for _ in range(cycles)
             for c in rng.sample(capacities, len(capacities))]
    return order, rng.choice(YIELD_PARTNERS)


def work(params, tmp_dir):
    from repro.analysis.experiments import compute_headline
    from repro.analysis.runner import run_study
    from repro.jobs import JobQueue, run_worker
    from repro.jobs.worker import (
        SessionProvider,
        normalize_study_spec,
        study_cell_keys,
    )
    from repro.store import ExperimentStore, result_to_payload

    session, matrix = setup(params, tmp_dir)
    checks = []
    with open(HEADLINE_TXT) as handle:
        checks.append(check("warm.headline_equals_tracked",
                            compute_headline(matrix.sweep).report() + "\n"
                            == handle.read()))
    with open(TABLE4_TXT) as handle:
        checks.append(check("warm.table4_prefix_of_tracked",
                            handle.read().startswith(matrix.sweep.report())))

    cache_path = session.cache.path
    sessions = SessionProvider(default_cache_path=cache_path)
    sessions.seed(session, cache_path=cache_path)
    if params["smoke"]:
        order, partner = plan(params["seed"], 1, CAPACITIES[:2])
    else:
        cycles = max(1, round(params["seconds"] / CYCLE_SECONDS))
        order, partner = plan(params["seed"], cycles)

    probe = HostProbe()
    warm_probe(probe)
    ops, failures, mismatched = [], [], {"pareto": 0, "jobs": 0}
    for index, capacity in enumerate(order):
        db_path = os.path.join(tmp_dir, "jobs-%d.db" % index)
        spec = {"capacities": [capacity], "cache_path": cache_path}
        queue = JobQueue(db_path)
        operations = {
            "edp": lambda: run_study(
                session=session, capacities=(capacity,), workers=1).sweep,
            "pareto": lambda: run_study(
                session=session, capacities=(capacity,), workers=1,
                objective="pareto").sweep,
            "jobs": lambda: (queue.submit("study", spec),
                             run_worker(db_path, once=True,
                                        sessions=sessions))[1],
        }
        done = {}
        for kind in KINDS:
            start = time.perf_counter()
            try:
                done[kind] = operations[kind]()
            except Exception as exc:   # counted and reported; run goes on
                failures.append("%s %d B: %s: %s" % (
                    kind, capacity, type(exc).__name__, exc))
                continue
            ops.append((kind, time.perf_counter() - start))
            probe.sample()
        if len(done) < len(KINDS):
            continue
        # Output checks, outside the timed operations.
        edp, pareto = done["edp"].results, done["pareto"].results
        if set(pareto) != set(edp) or any(
                min(p.edp for p in pareto[key].front)
                != edp[key].metrics.edp for key in edp):
            mismatched["pareto"] += 1
        with untraced():
            store = ExperimentStore(db_path)
            if done["jobs"].jobs_done != 1 or any(
                    store.get(key, touch=False) != json.loads(json.dumps(
                        result_to_payload(edp[task.key])))
                    for task, key in study_cell_keys(
                        session, normalize_study_spec(spec))):
                mismatched["jobs"] += 1
    checks += [
        check("warm.operations_ran", not failures, "; ".join(failures)),
        check("warm.pareto_min_edp_equals_edp_optimum",
              not mismatched["pareto"],
              "%d capacities differ" % mismatched["pareto"]),
        check("warm.jobs_payloads_equal_run_study", not mismatched["jobs"],
              "%d capacities differ" % mismatched["jobs"]),
    ]

    yield_cells = (partner, YIELD_FIXED)
    start = time.perf_counter()
    sweep = run_study(session=session, capacities=yield_cells,
                      flavors=("hvt",), methods=("M2",), workers=1,
                      objective="yield").sweep
    seconds = time.perf_counter() - start
    with open(BENCH_YIELD) as handle:
        expected = [cell["edp_gain"] for cell in json.load(handle)["cells"]
                    if (cell["capacity_bytes"], cell["flavor"],
                        cell["method"]) == (YIELD_FIXED, "hvt", "M2")]
    checks.append(check(
        "warm.yield_16kb_edp_gain_equals_bench_yield",
        expected and sweep.get(YIELD_FIXED, "hvt", "M2").edp_gain
        == expected[0]))
    return {
        "ops": ops,
        "op_failures": len(failures),
        "yield": {"seconds": seconds, "cells": list(yield_cells)},
        "probes": probe.samples,
        "rss_mb": peak_rss_mb(),
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# Orchestrator side
# ---------------------------------------------------------------------------

def summarize(result):
    """``{kind: [seconds]}`` of one work child's sweeps, raw and
    normalized by the probes taken between them."""
    factor = HostProbe(result["probes"]).factor()
    raw, norm = {}, {}
    for kind, seconds in result["ops"]:
        raw.setdefault(kind, []).append(seconds)
        norm.setdefault(kind, []).append(seconds / factor)
    return raw, norm


def _work(run, params, traced=False):
    result = (run.trace_work(NAME, params) if traced
              else run.work(NAME, params))
    run.add_checks(result["checks"])
    run.count_ops(len(result["ops"]) + result["op_failures"] + 1,
                  result["op_failures"])
    return result, summarize(result)


def _phase_seconds(result, summary):
    """Time of a work child's timed phase: normalized sweeps plus the
    raw yield sweep."""
    return sum(map(sum, summary[1].values())) + result["yield"]["seconds"]


def measure(run):
    params = {"seed": run.seed, "seconds": run.seconds, "smoke": run.smoke}
    if not run.trace:
        run.setup_samples(NAME, params)
    result, summary = _work(run, params)
    if run.trace:
        traced, traced_summary = _work(run, params, traced=True)
        run.set_overhead(_phase_seconds(traced, traced_summary),
                         _phase_seconds(result, summary))
        return
    raw, norm = summary
    yield_s = result["yield"]["seconds"]
    every = [s for kind in KINDS for s in norm.get(kind, [])]
    ops = timing_summary(every)
    run.metric("task_s", yield_s)
    run.metric("op_ms", ops["median"] * 1e3)
    run.metric("op_p90_ms", percentile(every, 90) * 1e3)
    run.metric("peak_rss_mb", result["rss_mb"])
    run.note("operations: %s" % _describe(ops))
    for kind in KINDS:
        stats = timing_summary(norm[kind])
        run.workload_metric("%s_sweep_ms" % kind, stats["median"] * 1e3, "ms")
        run.note("%s sweeps: %s; raw median %.2f ms" % (
            kind, _describe(stats), statistics.median(raw[kind]) * 1e3))
    run.workload_metric("yield_sweep_s", yield_s, "s")
    run.note("yield sweep over %s B (HVT/M2), raw"
             % "+".join(str(c) for c in result["yield"]["cells"]))
    run.note("probe between operations: %s"
             % HostProbe(result["probes"]).describe())


def _describe(stats):
    return "n=%d, " % stats["n"] + ", ".join(
        "%s %.2f ms" % (k, v * 1e3) for k, v in stats.items() if k != "n")
