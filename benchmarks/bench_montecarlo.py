"""Monte Carlo benchmark: production vs scalar-reference throughput.

Standalone script (not a pytest benchmark) so CI can run it directly::

    PYTHONPATH=src python benchmarks/bench_montecarlo.py --quick

Writes the machine-readable ``BENCH_montecarlo.json`` baseline (repo
root) tracking the Monte Carlo throughput of
:func:`~repro.cell.montecarlo.run_cell_montecarlo` (the lane-batched
production path, recorded as ``batched``) against
:func:`~repro.cell.montecarlo.run_cell_montecarlo_reference` (the scalar
per-sample loop, recorded as ``loop``).  The reference is far too slow
to run at the full sample count (it is the point of this benchmark), so
each is timed at its own sample count and compared on **per-sample
throughput**, recorded as such.  A small equal-count parity run asserts
the two stay bit-identical, so the speedup is a pure-performance
number.

The ``margins`` section times the margin solves a session makes on the
half-circuit solve's production device kernel (the three devices of a
half circuit in one stacked call, up to ``snm._STACK_MAX_BLOCK``
elements per device) against its per-device kernel: one bisection step
and one butterfly at 121 points, the 25-level RSNM axis of
``YieldConstraint.margins_grid``, ``snm_samples`` at 120 x 41 (the
margin-sample memo's shape) and 16 x 121, a 16-sample write-margin Monte
Carlo and the 5-lane negative-BL flip sweep of a cold characterization.
Every leg asserts that both kernels return the same bits (the RSNM axis
against the scalar per-level loop), and ``crossover`` times 121-point
``snm_samples`` on each kernel across block sizes, the measurement
behind the constant.  Pointed at a checkout without the stacked kernel
(``PYTHONPATH=<checkout>/src``), both columns time the per-device
kernel and ``crossover`` is null.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from repro import perf
from repro.cell import snm
from repro.cell.bias import CellBias
from repro.cell.montecarlo import (
    batched_cell,
    run_cell_montecarlo,
    run_cell_montecarlo_reference,
    sample_shift_matrix,
)
from repro.cell.sram6t import SRAM6TCell
from repro.cell.write import flip_wordline_voltage_batch
from repro.devices.library import DeviceLibrary
from repro.opt.constraints import YieldConstraint
from repro.opt.space import DesignSpace

_HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(_HERE, "..", "BENCH_montecarlo.json")

METRICS = ("hsnm", "rsnm", "wm")

#: Sample counts: production runs the acceptance-gate count; the scalar
#: reference runs a small slice and is normalized per sample.
FULL = {"batched": 2000, "loop": 40, "parity": 6, "min_speedup": 20.0}
QUICK = {"batched": 200, "loop": 8, "parity": 4, "min_speedup": 5.0}

#: Schema leg name -> the Monte Carlo path it times.
RUNNERS = {"batched": run_cell_montecarlo,
           "loop": run_cell_montecarlo_reference}

#: Timed runs per kernel of each margin leg (the kernels alternate and
#: the medians are recorded).
MARGIN_REPEATS = {
    "full": {"step": 15, "butterfly": 15, "rsnm_axis": 5,
             "snm_samples_120x41": 7, "snm_samples_16x121": 7,
             "wm_16": 3, "flip_sweep_5": 3, "crossover": 7},
    "quick": {"step": 5, "butterfly": 5, "rsnm_axis": 2,
              "snm_samples_120x41": 2, "snm_samples_16x121": 2,
              "wm_16": 1, "flip_sweep_5": 1, "crossover": 2},
}

#: Net-current evaluations per timed run of the ``step`` leg.
STEP_CALLS = 50

#: Sample counts of the ``crossover`` table's 121-point snm_samples.
CROSSOVER_SAMPLES = (1, 4, 8, 12, 14, 16, 24, 40)


@contextmanager
def kernel(stacked):
    """Run the half-circuit solve on one device kernel: the stacked one
    at any block size, or one call per device.  A checkout without the
    stacked kernel has only the per-device one."""
    saved = getattr(snm, "_STACK_MAX_BLOCK", None)
    if saved is None:
        yield
        return
    snm._STACK_MAX_BLOCK = math.inf if stacked else 0
    try:
        yield
    finally:
        snm._STACK_MAX_BLOCK = saved


def _net_current(cell, bias, v_in):
    """``v_out -> net current`` of the left half circuit at ``v_in`` on
    the kernel in force."""
    net_current = getattr(snm, "_net_current", None)
    if net_current is None:
        return lambda v_out: snm._half_circuit_current(
            cell, "l", v_in, v_out, bias, True)
    return net_current(cell, "l", v_in, bias, True, bias.v_ssc - 0.1,
                       bias.v_ddc + 0.1)


def _margin_legs(cell, flavor, library):
    """Leg name -> (per-device block size, run, reference): ``run(i)``
    solves on the kernel in force; ``reference(i)``, run on the
    per-device kernel, must return its bits.  ``i`` numbers the timed
    runs."""
    vdd = library.vdd
    read = CellBias.read(vdd=vdd, v_ddc=0.55, v_ssc=-0.1)
    axis = [float(v) for v in DesignSpace().v_ssc_values]
    v_bl_axis = np.linspace(-0.2, 0.0, 5).reshape(-1, 1)

    def step(i):
        v_in = np.linspace(read.v_ssc, read.v_ddc, snm.DEFAULT_POINTS)
        current = _net_current(cell, read, v_in)
        v_out = np.full_like(v_in, 0.2)
        return [current(v_out) for _ in range(STEP_CALLS)][-1]

    def butterfly(i):
        # A rail pair no earlier run solved, as a new /v1/evaluate pays.
        bias = read.with_rails(v_ddc=0.55 + 1e-4 * i)
        return snm.butterfly(cell, bias, access_on=True).snm

    def constraint():
        fresh = YieldConstraint(library, flavor, 0.35 * vdd)
        fresh._hsnm = fresh._v_flip = 0.0    # RSNM is all it solves
        return fresh

    def rsnm_axis(i):
        return constraint().margins_grid(0.55, axis, 0.55)[1]

    def rsnm_loop(i):
        scalar = constraint()
        return np.array([scalar.rsnm(0.55, v) for v in axis])

    def samples(n, points):
        cell_n = batched_cell(cell, sample_shift_matrix(n, seed=0))

        def run(i):
            return snm.snm_samples(cell_n, read, access_on=True,
                                   points=points)
        return n * points, run, run

    def wm(i):
        return run_cell_montecarlo(cell, n_samples=16,
                                   metrics=("wm",)).metric("wm").values

    def flip_sweep(i):
        return flip_wordline_voltage_batch(
            cell, len(v_bl_axis), vdd=vdd, v_bl_low=v_bl_axis,
            resolution=0.002)

    return {
        "step": (snm.DEFAULT_POINTS, step, step),
        "butterfly": (snm.DEFAULT_POINTS, butterfly, butterfly),
        "rsnm_axis": (len(axis) * snm.DEFAULT_POINTS, rsnm_axis,
                      rsnm_loop),
        "snm_samples_120x41": samples(120, 41),
        "snm_samples_16x121": samples(16, 121),
        "wm_16": (16, wm, wm),
        "flip_sweep_5": (len(v_bl_axis), flip_sweep, flip_sweep),
    }


def _timed(run, *args):
    start = time.perf_counter()
    value = run(*args)
    return value, time.perf_counter() - start


def margin_legs(cell, flavor, library, mode):
    """The ``margins`` section: every leg on the production kernel and
    on the per-device one, alternating, with their bits compared."""
    repeats = MARGIN_REPEATS[mode]
    legs = {}
    for name, (block, run, reference) in _margin_legs(
            cell, flavor, library).items():
        runs = repeats[name]
        production, per_device = [], []
        bit_identical = True
        for i in range(runs):
            value, seconds = _timed(run, i)
            production.append(seconds)
            with kernel(stacked=False):
                expected, seconds = _timed(reference, i)
            per_device.append(seconds)
            bit_identical &= (np.asarray(value).tobytes()
                              == np.asarray(expected).tobytes())
        assert bit_identical, "%s: the kernels disagree" % name
        scale = 1e3 / (STEP_CALLS if name == "step" else 1)
        production_ms = statistics.median(production) * scale
        per_device_ms = statistics.median(per_device) * scale
        legs[name] = {
            "block": block,
            "runs": runs,
            "production_ms": production_ms,
            "per_device_ms": per_device_ms,
            "speedup": per_device_ms / production_ms,
            "bit_identical": bit_identical,
        }
    return {
        "stack_max_block": getattr(snm, "_STACK_MAX_BLOCK", None),
        "legs": legs,
        "crossover": crossover(cell, library, repeats["crossover"]),
    }


def crossover(cell, library, runs):
    """121-point snm_samples on each kernel, forced at every block size
    (None on a checkout with only the per-device kernel)."""
    if getattr(snm, "_STACK_MAX_BLOCK", None) is None:
        return None
    read = CellBias.read(vdd=library.vdd, v_ddc=0.55, v_ssc=-0.1)
    rows = []
    for n in CROSSOVER_SAMPLES:
        cell_n = (cell if n == 1 else
                  batched_cell(cell, sample_shift_matrix(n, seed=0)))
        times = {True: [], False: []}
        for _ in range(runs):
            for stacked in (True, False):
                with kernel(stacked):
                    _, seconds = _timed(lambda: snm.snm_samples(
                        cell_n, read, access_on=True))
                times[stacked].append(seconds)
        stacked_ms = statistics.median(times[True]) * 1e3
        per_device_ms = statistics.median(times[False]) * 1e3
        rows.append({"block": n * snm.DEFAULT_POINTS, "samples": n,
                     "stacked_ms": stacked_ms,
                     "per_device_ms": per_device_ms,
                     "speedup": per_device_ms / stacked_ms})
    return rows


def _run(cell, leg, n_samples, seed):
    start = time.perf_counter()
    result = RUNNERS[leg](cell, n_samples=n_samples, seed=seed,
                          metrics=METRICS)
    return result, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizing (smaller sample counts, "
                             "relaxed speedup gate)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--flavor", choices=("lvt", "hvt"), default="hvt")
    parser.add_argument("--output", default=BASELINE_PATH,
                        help="where to write BENCH_montecarlo.json")
    args = parser.parse_args(argv)
    sizing = QUICK if args.quick else FULL

    library = DeviceLibrary.default_7nm()
    cell = SRAM6TCell.from_library(library, args.flavor)

    # Equal-count parity leg: the speedup below compares identical work.
    par_batched, _ = _run(cell, "batched", sizing["parity"], args.seed)
    par_loop, _ = _run(cell, "loop", sizing["parity"], args.seed)
    bit_identical = all(
        np.array_equal(par_batched.metric(m).values,
                       par_loop.metric(m).values)
        for m in METRICS
    )
    assert bit_identical, ("production diverged from the reference; "
                           "speedup would be meaningless")

    _, loop_seconds = _run(cell, "loop", sizing["loop"], args.seed)
    _, batched_seconds = _run(cell, "batched", sizing["batched"], args.seed)
    loop_per_sample = loop_seconds / sizing["loop"]
    batched_per_sample = batched_seconds / sizing["batched"]
    speedup = loop_per_sample / batched_per_sample
    mode = "quick" if args.quick else "full"
    margins = margin_legs(cell, args.flavor, library, mode)

    baseline = {
        "schema": "BENCH_montecarlo/v1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "cpus": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "mode": mode,
        "config": {
            "flavor": args.flavor,
            "metrics": list(METRICS),
            "seed": args.seed,
        },
        "loop": {
            "n_samples": sizing["loop"],
            "seconds": loop_seconds,
            "per_sample_ms": loop_per_sample * 1e3,
        },
        "batched": {
            "n_samples": sizing["batched"],
            "seconds": batched_seconds,
            "per_sample_ms": batched_per_sample * 1e3,
        },
        "per_sample_speedup": speedup,
        "parity": {
            "n_samples": sizing["parity"],
            "bit_identical": bit_identical,
        },
        "margins": margins,
    }
    with open(args.output, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print("Monte Carlo baseline (written to %s)" % args.output)
    print("loop:    n=%-5d %.2f s  (%.1f ms/sample)"
          % (sizing["loop"], loop_seconds, loop_per_sample * 1e3))
    print("batched: n=%-5d %.2f s  (%.1f ms/sample)"
          % (sizing["batched"], batched_seconds, batched_per_sample * 1e3))
    print("per-sample speedup: %.1fx (gate: >= %.0fx)"
          % (speedup, sizing["min_speedup"]))
    print()
    print("margin solves, production vs per-device kernel "
          "(stacked up to %s elements per device):"
          % margins["stack_max_block"])
    for name, leg in margins["legs"].items():
        print("  %-20s block %5d  %9.3f ms  vs %9.3f ms  (%.2fx)"
              % (name, leg["block"], leg["production_ms"],
                 leg["per_device_ms"], leg["speedup"]))
    for row in margins["crossover"] or ():
        print("  crossover block %5d: stacked %8.2f ms, per-device "
              "%8.2f ms (%.2fx)" % (row["block"], row["stacked_ms"],
                                    row["per_device_ms"], row["speedup"]))
    print()
    print(perf.get_registry().report())

    assert speedup >= sizing["min_speedup"], (
        "production below the %.0fx throughput gate: %.1fx"
        % (sizing["min_speedup"], speedup)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
