"""Command-line entry point: regenerate any paper figure/table.

Usage::

    python -m repro.cli calibration
    python -m repro.cli fig2
    python -m repro.cli fig3
    python -m repro.cli fig5
    python -m repro.cli table4 --voltage-mode paper
    python -m repro.cli fig7 --workers 4
    python -m repro.cli headline --profile
    python -m repro.cli montecarlo --samples 2000 --metrics hsnm,rsnm,wm
    python -m repro.cli all
    python -m repro.cli pareto --capacities 16384 --flavors hvt
    python -m repro.cli yield --capacities 16384 --code secded
    python -m repro.cli serve --port 8787 --jobs jobs.db
    python -m repro.cli jobs submit --queue jobs.db --capacities 128,1024
    python -m repro.cli jobs work --queue jobs.db
    python -m repro.cli jobs watch job-abc123 --queue jobs.db
    python -m repro.cli store ls --store jobs.db

The first run characterizes the device/cell/periphery stack with the
built-in simulator (a few minutes) and caches the results; later runs
are fast.

``serve`` starts the optimization service (:mod:`repro.service`): an
asyncio HTTP server exposing /v1/optimize, /v1/pareto, /v1/yield,
/v1/evaluate and /v1/montecarlo with Monte Carlo batching, a result
cache, and /metrics telemetry — see ``docs/SERVICE.md``.  With
``--jobs PATH`` it also exposes the durable jobs API (/v1/jobs) with a
background worker pool.

``jobs`` and ``store`` drive the durable queue and the
content-addressed experiment store directly (submit/status/watch/
cancel/work and ls/show/gc) — see ``docs/JOBS.md``.

``--workers N`` fans the optimization matrix (table4 / fig7 / headline,
pareto, yield) over a process pool (see :mod:`repro.analysis.runner`);
``--profile`` prints the :mod:`repro.perf` telemetry report after the
run.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import perf
from .analysis import (
    Session,
    breakdown_study,
    calibration_checkpoints,
    corners_study,
    fig2_cell_vdd_scaling,
    fig3_read_assists,
    fig5_write_assists,
    run_selfcheck,
    run_study,
    temperature_study,
    word_width_study,
)
from .analysis.serialize import save_json
from .cell.montecarlo import required_margin_fraction, run_cell_montecarlo
from .cell.sram6t import SRAM6TCell
from .devices.library import DeviceLibrary

#: Paper artifacts first, extension studies after.
EXPERIMENTS = ("calibration", "fig2", "fig3", "fig5", "table4", "fig7",
               "headline", "corners", "temperature", "breakdown",
               "wordwidth", "selfcheck", "montecarlo", "all")

#: What "all" expands to (the paper's artifacts).
PAPER_SET = ("calibration", "fig2", "fig3", "fig5", "table4", "fig7",
             "headline")


def run_montecarlo(options):
    """The ``montecarlo`` entry point: cell margin distributions.

    Runs directly on the device library (no array characterization
    needed).
    """
    library = DeviceLibrary.default_7nm()
    cell = SRAM6TCell.from_library(library, options.flavor)
    metrics = tuple(
        name.strip() for name in options.metrics.split(",") if name.strip()
    )
    result = run_cell_montecarlo(
        cell, n_samples=options.samples, seed=options.seed,
        vdd=library.vdd, metrics=metrics,
    )
    return result, _montecarlo_report(result, library.vdd, options.flavor)


def _montecarlo_report(result, vdd, flavor):
    floor = 0.35 * vdd
    lines = [
        "Monte Carlo cell margins: flavor=%s n=%d Vdd=%.3f V"
        % (flavor, result.n_samples, vdd),
        "yield floor 0.35*Vdd = %.4f V" % floor,
    ]
    for name, samples in result.metrics.items():
        lines.append(
            "  %-5s mean=%7.4f V  sigma=%7.4f V  mu-3sigma=%7.4f V  "
            "yield@floor=%.4f"
            % (name, samples.mean, samples.sigma,
               samples.mu_minus_k_sigma(3.0), samples.yield_at(floor))
        )
    required = required_margin_fraction(result, vdd=vdd)
    lines.append(
        "  required nominal margin for mu-3sigma >= 0 (fraction of Vdd): "
        + ", ".join("%s=%.3f" % (name, value)
                    for name, value in required.items())
    )
    if len(result.metrics) > 1:
        lines.append("  joint yield at the floor: %.4f"
                     % result.worst_case_yield(floor))
    return "\n".join(lines)


def run_experiment(name, session, options=None):
    """Run one experiment; returns (result, text report)."""
    if name == "calibration":
        result = calibration_checkpoints(session)
        return result, result.report()
    if name == "fig2":
        result = fig2_cell_vdd_scaling(session)
        return result, result.report()
    if name == "fig3":
        result = fig3_read_assists(session)
        return result, result.report()
    if name == "fig5":
        result = fig5_write_assists(session)
        return result, result.report()
    if name in ("table4", "fig7", "headline"):
        sweep = run_study(session=session,
                          workers=options.workers if options else 1).sweep
        if name == "table4":
            return sweep, sweep.report()
        if name == "fig7":
            return sweep, sweep.fig7_report()
        headline = sweep.headline()
        return headline, headline.report()
    if name == "corners":
        result = corners_study(session)
        return result, result.report()
    if name == "temperature":
        result = temperature_study(session)
        return result, result.report()
    if name == "breakdown":
        result = breakdown_study(session)
        return result, result.report()
    if name == "wordwidth":
        result = word_width_study(session)
        return result, result.report()
    if name == "selfcheck":
        result = run_selfcheck(session)
        return result, result.report()
    raise ValueError("unknown experiment %r" % (name,))


def run_pareto(argv):
    """The ``pareto`` subcommand: energy-delay Pareto fronts per cell.

    Rides the same :func:`repro.analysis.run_study` path as the paper
    sweeps with ``objective="pareto"``.  Alongside the front table it
    prints each cell's ``E^a * D^b`` minimizer for the requested
    exponents ((1, 1) = the EDP optimum).
    """
    from .analysis.experiments import CAPACITIES_BYTES, FLAVORS, METHODS
    from .opt.pareto import best_weighted

    parser = argparse.ArgumentParser(
        prog="repro pareto",
        description="Sweep energy-delay Pareto fronts over the study "
                    "matrix (see docs/PERF.md on the search).",
    )
    parser.add_argument("--capacities", default=None,
                        help="comma-separated capacities in bytes "
                             "(default: the paper's five)")
    parser.add_argument("--flavors", default=None,
                        help="comma-separated subset of lvt,hvt")
    parser.add_argument("--methods", default=None,
                        help="comma-separated subset of M1,M2")
    parser.add_argument("--energy-exponent", type=float, default=1.0,
                        help="a in the E^a * D^b pick (default 1)")
    parser.add_argument("--delay-exponent", type=float, default=1.0,
                        help="b in the E^a * D^b pick (default 1)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker count (1 = serial)")
    parser.add_argument("--cache", default=".repro_cache.json",
                        help="characterization cache path ('' disables)")
    parser.add_argument("--voltage-mode", choices=("measured", "paper"),
                        default="paper")
    parser.add_argument("--json", default=None,
                        help="also dump the sweep to this path")
    parser.add_argument("--profile", action="store_true",
                        help="print the perf telemetry report at the end")
    args = parser.parse_args(argv)

    capacities = (_parse_csv(args.capacities, int) if args.capacities
                  else CAPACITIES_BYTES)
    flavors = _parse_csv(args.flavors) if args.flavors else FLAVORS
    methods = _parse_csv(args.methods) if args.methods else METHODS
    run = run_study(
        capacities=capacities, flavors=flavors, methods=methods,
        workers=args.workers, cache_path=args.cache,
        voltage_mode=args.voltage_mode, objective="pareto",
    )
    sweep = run.sweep
    print(sweep.report())
    print()
    print("best E^%.3g * D^%.3g design per cell:"
          % (args.energy_exponent, args.delay_exponent))
    for key in sorted(sweep.results):
        result = sweep.results[key]
        point = best_weighted(result.front, args.energy_exponent,
                              args.delay_exponent)
        print("  %6dB %-3s %-2s  %4dx%-4d pre=%-2d wr=%-2d "
              "Vssc=%+.3f  D=%.3e s  E=%.3e J"
              % (key[0], key[1].upper(), key[2], point.n_r,
                 key[0] * 8 // point.n_r, point.n_pre, point.n_wr,
                 point.v_ssc, point.d_array, point.e_total))
    if args.json:
        save_json(sweep, args.json)
        print("result saved to %s" % args.json)
    if args.profile:
        print()
        print(perf.get_registry().report())
    return 0


def run_yield(argv):
    """The ``yield`` subcommand: ECC-relaxed co-optimization study.

    Each cell runs the fixed-delta baseline search *and* the
    margin-relaxed search under the requested code at the requested
    array yield target (``objective="yield"`` on
    :func:`repro.analysis.run_study`), then reports the relaxed floor,
    the relaxed sensing window, and the EDP gain with every check-bit
    column and ECC logic term charged.
    """
    from .analysis.experiments import CAPACITIES_BYTES, FLAVORS, METHODS
    from .opt.constraints import YIELD_SAMPLERS

    parser = argparse.ArgumentParser(
        prog="repro yield",
        description="Compare fixed-delta optima against ECC-relaxed "
                    "yield-target optima (see docs/MODELING.md section "
                    "8 on the failure model).",
    )
    parser.add_argument("--capacities", default=None,
                        help="comma-separated capacities in bytes "
                             "(default: the paper's five)")
    parser.add_argument("--flavors", default=None,
                        help="comma-separated subset of lvt,hvt")
    parser.add_argument("--methods", default=None,
                        help="comma-separated subset of M1,M2")
    parser.add_argument("--code", default="secded",
                        help="ECC scheme: none, secded, or secded-xN "
                             "(N-way interleaved; default secded)")
    parser.add_argument("--y-target", type=float, default=0.9,
                        help="array yield target in (0, 1) "
                             "(default 0.9)")
    parser.add_argument("--sampler", choices=YIELD_SAMPLERS,
                        default="gaussian",
                        help="margin-floor relaxation estimator: "
                             "gaussian closed form (default) or shifted "
                             "(mean-shift importance sampling)")
    parser.add_argument("--ci-target", type=float, default=0.1,
                        help="relative 95%% CI half-width the sampled "
                             "relaxation targets (default 0.1)")
    parser.add_argument("--max-samples", type=int, default=4096,
                        help="adaptive sample cap per rail pair for "
                             "--sampler shifted (default 4096)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker count (1 = serial)")
    parser.add_argument("--cache", default=".repro_cache.json",
                        help="characterization cache path ('' disables)")
    parser.add_argument("--voltage-mode", choices=("measured", "paper"),
                        default="paper")
    parser.add_argument("--json", default=None,
                        help="also dump the per-cell summaries to this "
                             "path")
    parser.add_argument("--profile", action="store_true",
                        help="print the perf telemetry report at the end")
    args = parser.parse_args(argv)

    capacities = (_parse_csv(args.capacities, int) if args.capacities
                  else CAPACITIES_BYTES)
    flavors = _parse_csv(args.flavors) if args.flavors else FLAVORS
    methods = _parse_csv(args.methods) if args.methods else METHODS
    run = run_study(
        capacities=capacities, flavors=flavors, methods=methods,
        workers=args.workers, cache_path=args.cache,
        voltage_mode=args.voltage_mode,
        objective="yield", code=args.code, y_target=args.y_target,
        sampler=args.sampler, ci_target=args.ci_target,
        max_samples=args.max_samples,
    )
    sweep = run.sweep
    print(sweep.report())
    best = max(sweep.results.values(), key=lambda cell: cell.edp_gain)
    print()
    print("best cell: %s  gain=%+.2f%%  (relaxed floor %.1f mV, "
          "dVs %.0f mV, array yield %.6g)"
          % (best.label, 100.0 * best.edp_gain,
             best.delta_relaxed * 1e3,
             best.sense_voltage_relaxed * 1e3, best.yield_coded))
    if args.json:
        save_json({"code": sweep.code, "y_target": sweep.y_target,
                   "sampler": sweep.sampler,
                   "voltage_mode": sweep.voltage_mode,
                   "cells": sweep.summaries()}, args.json)
        print("result saved to %s" % args.json)
    if args.profile:
        print()
        print(perf.get_registry().report())
    return 0


def run_serve(argv):
    """The ``serve`` subcommand: run the optimization service."""
    import asyncio

    from .service.server import ServiceConfig, serve_forever

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve /v1/optimize, /v1/pareto, /v1/yield, "
                    "/v1/evaluate and /v1/montecarlo over HTTP, plus "
                    "/v1/jobs with --jobs; Monte Carlo draws coalesce "
                    "behind an in-flight solve (see docs/SERVICE.md).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787,
                        help="listen port (0 = ephemeral)")
    parser.add_argument("--executor",
                        choices=("auto", "thread", "process"),
                        default="thread",
                        help="worker pool type: thread shares one warm "
                             "session; process forks workers that each "
                             "get a copy of it; auto picks process on "
                             "multi-core hosts and thread on single-CPU "
                             "ones")
    parser.add_argument("--workers", type=int, default=0,
                        help="pool size (0 = cpu count)")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="largest Monte Carlo batch that coalesces "
                             "behind an in-flight solve (1 disables "
                             "coalescing)")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="in-flight bound; beyond it requests get 429")
    parser.add_argument("--cache", default=".repro_cache.json",
                        help="characterization cache path ('' disables)")
    parser.add_argument("--voltage-mode", choices=("measured", "paper"),
                        default="paper")
    parser.add_argument("--jobs", default=None, metavar="PATH",
                        help="enable the durable jobs API backed by this "
                             "SQLite file (see docs/JOBS.md)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="experiment store path (default: the --jobs "
                             "file; fronts /v1/optimize with "
                             "cross-process dedup)")
    parser.add_argument("--job-workers", type=int, default=1,
                        help="background job worker threads")
    parser.add_argument("--job-lease", type=float, default=30.0,
                        help="job claim lease / heartbeat horizon [s]")
    args = parser.parse_args(argv)
    executor = args.executor
    if executor == "auto":
        # Explicit --executor process is always honored; auto avoids
        # forking a pool that would serialize on a single core.
        if (os.cpu_count() or 1) > 1:
            executor = "process"
        else:
            executor = "thread"
            print("single-CPU host: --executor auto selected the "
                  "shared-session thread pool")
    config = ServiceConfig(
        host=args.host, port=args.port, executor=executor,
        workers=args.workers, max_batch=args.max_batch,
        max_pending=args.max_pending,
        cache_path=args.cache, voltage_mode=args.voltage_mode,
        jobs_path=args.jobs, store_path=args.store,
        job_workers=args.job_workers, job_lease_seconds=args.job_lease,
    )
    asyncio.run(serve_forever(config))
    return 0


def _parse_csv(text, cast=str):
    return [cast(part.strip()) for part in text.split(",") if part.strip()]


def run_jobs(argv):
    """The ``jobs`` subcommand: drive the durable queue from the shell."""
    import json as json_module
    import time as time_module

    from .jobs import JobQueue, load_sweep_results
    from .store import ExperimentStore

    parser = argparse.ArgumentParser(
        prog="repro jobs",
        description="Submit, inspect and execute durable study sweeps "
                    "(see docs/JOBS.md).",
    )
    parser.add_argument("action",
                        choices=("submit", "status", "watch", "cancel",
                                 "work"))
    parser.add_argument("job_id", nargs="?", default=None,
                        help="job id (status/watch/cancel)")
    parser.add_argument("--queue", default="jobs.db",
                        help="queue SQLite path (default: jobs.db)")
    parser.add_argument("--store", default=None,
                        help="experiment store path (default: the queue "
                             "file)")
    parser.add_argument("--capacities", default=None,
                        help="submit: comma-separated capacities in bytes")
    parser.add_argument("--flavors", default=None,
                        help="submit: comma-separated subset of lvt,hvt")
    parser.add_argument("--methods", default=None,
                        help="submit: comma-separated subset of M1,M2")
    parser.add_argument("--voltage-mode", choices=("measured", "paper"),
                        default="paper")
    parser.add_argument("--cache", default=".repro_cache.json",
                        help="characterization cache for the executing "
                             "worker")
    parser.add_argument("--priority", type=int, default=0)
    parser.add_argument("--max-attempts", type=int, default=3)
    parser.add_argument("--timeout", type=float, default=3600.0,
                        help="watch: give up after this long [s]")
    parser.add_argument("--once", action="store_true",
                        help="work: run one job and exit")
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="work: exit after this many jobs")
    # Intermixed parsing so `jobs watch --queue x <job-id>` works (plain
    # parse_args cannot match an optional positional after options).
    args = parser.parse_intermixed_args(argv)

    if args.action == "work":
        from .jobs.worker import main as worker_main

        worker_argv = ["--queue", args.queue, "--cache", args.cache]
        if args.store:
            worker_argv += ["--store", args.store]
        if args.once:
            worker_argv += ["--once"]
        if args.max_jobs is not None:
            worker_argv += ["--max-jobs", str(args.max_jobs)]
        return worker_main(worker_argv)

    queue = JobQueue(args.queue)
    if args.action == "submit":
        spec = {"voltage_mode": args.voltage_mode,
                "cache_path": args.cache or None}
        if args.capacities:
            spec["capacities"] = _parse_csv(args.capacities, int)
        if args.flavors:
            spec["flavors"] = _parse_csv(args.flavors)
        if args.methods:
            spec["methods"] = _parse_csv(args.methods)
        from .jobs.worker import normalize_study_spec

        spec = normalize_study_spec(spec)
        job_id = queue.submit("study", spec, priority=args.priority,
                              max_attempts=args.max_attempts)
        print("submitted %s: %d-cell study sweep"
              % (job_id, len(spec["capacities"]) * len(spec["flavors"])
                 * len(spec["methods"])))
        print("run it with: python -m repro.cli jobs work --queue %s"
              % args.queue)
        return 0
    if args.action == "status":
        if args.job_id:
            print(json_module.dumps(queue.get(args.job_id).to_payload(),
                                    indent=2, sort_keys=True))
            return 0
        counts = queue.counts()
        print("queue %s: %s" % (args.queue, "  ".join(
            "%s=%d" % (state, counts[state]) for state in counts)))
        for job in queue.list_jobs(limit=20):
            progress = job.progress or {}
            print("  %-16s %-9s attempt %d/%d  %s/%s cells  %s"
                  % (job.id, job.state, job.attempts, job.max_attempts,
                     progress.get("completed", "-"),
                     progress.get("total", "-"), job.error or ""))
        return 0
    if args.action == "cancel":
        if not args.job_id:
            parser.error("cancel needs a job id")
        if queue.cancel(args.job_id):
            print("cancelled %s" % args.job_id)
            return 0
        print("%s is already terminal (%s)"
              % (args.job_id, queue.get(args.job_id).state))
        return 1
    # watch
    if not args.job_id:
        parser.error("watch needs a job id")
    deadline = time_module.monotonic() + args.timeout
    last = None
    while True:
        job = queue.get(args.job_id)
        progress = job.progress or {}
        line = "%s  %s/%s cells  (attempt %d)" % (
            job.state, progress.get("completed", 0),
            progress.get("total", "?"), job.attempts)
        if line != last:
            print(line, flush=True)
            last = line
        if job.terminal:
            break
        if time_module.monotonic() >= deadline:
            print("timed out after %.0f s" % args.timeout)
            return 1
        time_module.sleep(0.5)
    if job.state == "done" and job.result_key:
        store = ExperimentStore(args.store or args.queue)
        sweep = load_sweep_results(store, job.result_key)
        print()
        # A job may sweep any sub-matrix, so render cell by cell rather
        # than through the full-matrix Table 4 report.
        for (capacity, flavor, method) in sorted(sweep.results):
            result = sweep.results[(capacity, flavor, method)]
            design = result.design
            print("  %6dB %-3s %-2s  %3dx%-3d pre=%d wr=%d  "
                  "Vddc=%.2f Vwl=%.2f  EDP=%.3e"
                  % (capacity, flavor.upper(), method, design.n_r,
                     design.n_c, design.n_pre, design.n_wr,
                     design.v_ddc, design.v_wl, result.metrics.edp))
        return 0
    if job.state != "done":
        print("job ended %s: %s" % (job.state, job.error or ""))
        return 1
    return 0


def run_store(argv):
    """The ``store`` subcommand: inspect the experiment store."""
    import json as json_module
    import time

    from .store import ExperimentStore

    parser = argparse.ArgumentParser(
        prog="repro store",
        description="List, show and garbage-collect stored experiment "
                    "results (see docs/JOBS.md).",
    )
    parser.add_argument("action", choices=("ls", "show", "gc"))
    parser.add_argument("key", nargs="?", default=None,
                        help="result key (show)")
    parser.add_argument("--store", default="jobs.db",
                        help="store SQLite path (default: jobs.db)")
    parser.add_argument("--kind", default=None,
                        help="filter by kind (cell, sweep)")
    parser.add_argument("--limit", type=int, default=50)
    parser.add_argument("--older-than", type=float, default=None,
                        metavar="SECONDS",
                        help="gc: only entries not read for this long")
    parser.add_argument("--dry-run", action="store_true",
                        help="gc: list victims without deleting")
    # Intermixed parsing so `store show --store x <key>` works (plain
    # parse_args cannot match an optional positional after options).
    args = parser.parse_intermixed_args(argv)

    store = ExperimentStore(args.store)
    if args.action == "ls":
        stats = store.stats()
        print("store %s: %d entries" % (args.store, stats["total"]))
        for kind, entry in stats["by_kind"].items():
            print("  %-6s %4d entries  %8d payload bytes"
                  % (kind, entry["count"], entry["payload_bytes"]))
        for row in store.ls(kind=args.kind, limit=args.limit):
            print("  %s  %7d B  used %s" % (
                row["key"], row["payload_bytes"],
                time.strftime("%Y-%m-%d %H:%M:%S",
                              time.localtime(row["last_used_at"]))))
        return 0
    if args.action == "show":
        if not args.key:
            parser.error("show needs a result key")
        payload = store.get(args.key, touch=False)
        if payload is None:
            print("no entry %r" % args.key)
            return 1
        print(json_module.dumps(
            {"key": args.key, "payload": payload,
             "provenance": store.provenance(args.key)},
            indent=2, sort_keys=True))
        return 0
    victims = store.gc(older_than_seconds=args.older_than,
                       kind=args.kind, dry_run=args.dry_run)
    verb = "would delete" if args.dry_run else "deleted"
    print("%s %d entr%s" % (verb, len(victims),
                            "y" if len(victims) == 1 else "ies"))
    for key in victims:
        print("  %s" % key)
    return 0


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] == "pareto":
            return run_pareto(argv[1:])
        if argv and argv[0] == "yield":
            return run_yield(argv[1:])
        if argv and argv[0] == "serve":
            return run_serve(argv[1:])
        if argv and argv[0] == "jobs":
            return run_jobs(argv[1:])
        if argv and argv[0] == "store":
            return run_store(argv[1:])
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        os.close(sys.stdout.fileno())
        return 0
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the DAC'16 SRAM EDP co-optimization paper.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="which figure/table to regenerate")
    parser.add_argument("--voltage-mode", choices=("measured", "paper"),
                        default="paper",
                        help="V_DDC/V_WL presets: our measured minima or "
                             "the paper's reported values (default)")
    parser.add_argument("--cache", default=".repro_cache.json",
                        help="characterization cache path ('' disables)")
    parser.add_argument("--json", default=None,
                        help="also dump the result object to this path")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker count for the optimization sweeps "
                             "(1 = serial; >1 fans the capacity x flavor "
                             "x method matrix over a process pool)")
    parser.add_argument("--samples", type=int, default=200,
                        help="montecarlo: number of Monte Carlo samples")
    parser.add_argument("--seed", type=int, default=0,
                        help="montecarlo: random seed for the Vt draws")
    parser.add_argument("--metrics", default="hsnm,rsnm,wm",
                        help="montecarlo: comma-separated margin metrics "
                             "(hsnm, rsnm, wm)")
    parser.add_argument("--flavor", choices=("lvt", "hvt"), default="hvt",
                        help="montecarlo: cell flavor")
    parser.add_argument("--profile", action="store_true",
                        help="print the perf telemetry report at the end")
    args = parser.parse_args(argv)

    last_result = None
    if args.experiment == "montecarlo":
        # Needs no array characterization; skip the Session entirely.
        result, text = run_montecarlo(args)
        print("=" * 72)
        print("# montecarlo")
        print("=" * 72)
        print(text)
        print()
        last_result = result
    else:
        session = Session.create(
            cache_path=args.cache or None,
            voltage_mode=args.voltage_mode,
        )
        names = PAPER_SET if args.experiment == "all" else (
            args.experiment,
        )
        for name in names:
            result, text = run_experiment(name, session, args)
            print("=" * 72)
            print("# %s" % name)
            print("=" * 72)
            print(text)
            print()
            last_result = result
    if args.json and last_result is not None:
        save_json(last_result, args.json)
        print("result saved to %s" % args.json)
    if args.profile:
        print()
        print(perf.get_registry().report())
    return 0


if __name__ == "__main__":
    sys.exit(main())
