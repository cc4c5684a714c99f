#!/usr/bin/env python3
"""End-to-end benchmark of the SRAM EDP co-optimization flow.

Run from the root of a checkout::

    python3 perfbench/run.py --workload warm_study --seed 1 \\
        --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``cold_characterize`` -- one flavor's characterization from an empty
  cache (simulator, device model, cache writes);
* ``warm_study`` -- EDP, Pareto and durable-job sweeps over a warm
  session, then one ECC-yield sweep (search, array model, store, jobs,
  yields);
* ``service_mix`` -- two closed-loop clients against ``repro serve``
  (HTTP, batching, result cache, store, search).

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced and then traced, and prints every per-layer metric
plus ``trace.overhead_pct``.  Either way the last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--smoke`` shrinks the warm and service workloads to a minimal size
(the benchmark's own tests use it).
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import statistics
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = {
    "cold_characterize": "cold",
    "warm_study": "warm",
    "service_mix": "service",
}

#: End-to-end metrics, reported by every workload (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "task_s": "s",
    "op_ms": "ms",
    "op_p90_ms": "ms",
}

#: Fresh processes timed per run for ``setup_s``.
SETUP_SAMPLES = 3

#: Budget for one work child [s]; a run must end within 180 s.
WORK_TIMEOUT = 150


class Run:
    """One benchmark invocation: its settings and everything it found."""

    def __init__(self, args, tmp_dir):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.smoke = args.smoke
        self.tmp_dir = tmp_dir
        self.metrics = {}
        self.layer_metrics = {}
        self.workload_metrics = []
        self.checks = []
        self.attempted = 0
        self.failed = 0
        self.notes = []

    # -- recording ---------------------------------------------------------

    def metric(self, name, value):
        self.metrics[name] = float(value)

    def workload_metric(self, name, value, unit):
        """A workload-specific metric, printed for readers only."""
        self.workload_metrics.append((name, float(value), unit))

    def note(self, text):
        self.notes.append(text)

    def count_ops(self, attempted, failed=0):
        self.attempted += attempted
        self.failed += failed

    def add_checks(self, checks):
        """Each check is one attempted item; a failed one is a failure."""
        for check in checks:
            self.checks.append(check)
            self.count_ops(1, 0 if check["ok"] else 1)

    # -- child processes ---------------------------------------------------

    def setup_samples(self, workload, params):
        """``setup_s``: median set-up time over fresh child processes,
        host-normalized by a probe thread sampling while they run."""
        count = 1 if self.smoke else SETUP_SAMPLES
        with common.ProbeSampler() as sampler:
            samples = [
                common.time_setup_child(
                    ["setup", workload, json.dumps(params)], self.tmp_dir)
                for _ in range(count)
            ]
        factor = sampler.probe.factor()
        self.metric("setup_s", statistics.median(samples) / factor)
        self.note("setup samples [s]: %s raw, host factor %.3f"
                  % (" ".join("%.3f" % s for s in samples), factor))

    def work(self, workload, params, trace_out=None):
        if trace_out is not None:
            params = dict(params, trace_out=trace_out)
        return common.run_child(["work", workload, json.dumps(params)],
                                self.tmp_dir, WORK_TIMEOUT)

    def trace_work(self, workload, params):
        """The traced run: the work child with the span wrappers
        installed; the per-layer metrics come from its span file."""
        import tracing

        path = tracing.trace_path(workload)
        result = self.work(workload, params, trace_out=path)
        self.layer_metrics.update(tracing.layer_metrics(
            tracing.load_spans(path)))
        return result

    def set_overhead(self, traced_s, reference_s):
        """``trace.overhead_pct`` from host-normalized phase times."""
        self.layer_metrics["trace.overhead_pct"] = (
            100.0 * (traced_s - reference_s) / reference_s)
        self.note("tracing overhead: %.3f s traced vs %.3f s untraced "
                  "(host-normalized)" % (traced_s, reference_s))

    # -- output ------------------------------------------------------------

    def expected_metrics(self):
        if self.trace:
            import tracing

            return dict(tracing.LAYER_UNITS)
        return dict(END_TO_END)

    def emit(self):
        expected = self.expected_metrics()
        missing = sorted(set(expected) - set(self.metrics_out()))
        if missing:
            raise RuntimeError("workload did not measure: %s"
                               % ", ".join(missing))
        out = self.metrics_out()
        if self.trace:
            import tracing

            self.notes += ["not visible from outside the program: " + text
                           for text in tracing.BLIND_SPOTS]
        print("== %s seed=%d seconds=%d trace=%d%s" % (
            self.workload, self.seed, self.seconds, self.trace,
            " smoke" if self.smoke else ""))
        for text in self.notes:
            print("   %s" % text)
        for check in self.checks:
            print("   check %-44s %s%s" % (
                check["name"], "ok" if check["ok"] else "FAILED",
                "  " + check["detail"] if check["detail"] else ""))
        for name, value, unit in self.workload_metrics:
            print("   %-26s %14.6g %s" % (name, value, unit))
        print("   %-26s %14.6g %s  (%d of %d)" % (
            "error_rate", self.failed / max(self.attempted, 1), "1",
            self.failed, self.attempted))
        for name in sorted(out):
            print("%-29s %14.6g %s" % (name, out[name], expected[name]))
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": out[name], "unit": expected[name]}
                        for name in sorted(expected)},
        }
        print(json.dumps(result))

    def metrics_out(self):
        return self.layer_metrics if self.trace else self.metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="length of the timed phase [s]")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes, for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        common.require_checkout()
    except (common.CheckoutError, ImportError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    digest = common.tree_digest()
    # Bytecode is compiled before anything is timed; children only read
    # it (PYTHONDONTWRITEBYTECODE).
    compileall.compile_dir(common.SRC, quiet=1)
    compileall.compile_dir(common.HERE, quiet=1, maxlevels=0)
    tmp_dir = common.make_tmp_dir(args.workload)
    os.environ["TMPDIR"] = tmp_dir
    run = Run(args, tmp_dir)
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        module.measure(run)
    except Exception:
        traceback.print_exc()
        print("perfbench: %s failed; no result" % args.workload,
              file=sys.stderr)
        return 1
    finally:
        common.remove_tmp_dir(tmp_dir)
    run.add_checks([common.check(
        "checkout_unchanged", common.tree_digest() == digest,
        "every file but scratch and build output, .repro_cache.json "
        "included, hashed before and after")])
    run.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
