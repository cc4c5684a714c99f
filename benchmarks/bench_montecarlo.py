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
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from repro import perf
from repro.cell.montecarlo import (
    run_cell_montecarlo,
    run_cell_montecarlo_reference,
)
from repro.cell.sram6t import SRAM6TCell
from repro.devices.library import DeviceLibrary

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

    baseline = {
        "schema": "BENCH_montecarlo/v1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "cpus": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "mode": "quick" if args.quick else "full",
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
    print(perf.get_registry().report())

    assert speedup >= sizing["min_speedup"], (
        "production below the %.0fx throughput gate: %.1fx"
        % (sizing["min_speedup"], speedup)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
