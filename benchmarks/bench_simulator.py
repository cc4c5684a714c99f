"""Simulator benchmark: the transients and solves of a cold characterization.

Standalone script (not a pytest benchmark) so CI can run it directly::

    PYTHONPATH=src python benchmarks/bench_simulator.py --quick

Times the pieces of :func:`repro.periphery.characterize`'s cold run that
the simulator's Newton iteration and the shared device kernels carry:

* ``newton_nand2`` -- one Newton solve of the NAND2 testbench (a
  transient step on the input's rising edge, warm-started from the
  t = 0 operating point), repeated :data:`NEWTON_SOLVES` times per run;
* ``gate_nand2_large`` and ``gate_inv_large`` -- the NAND2 and inverter
  gate points at the large fit load (one transient each);
* ``write_batch_hvt16`` -- the 16-lane HVT write batch (11
  wordline-overdrive lanes on the cached V_WL axis, then the 5
  negative-BL lanes at V_WL = Vdd);
* ``flip_sweep_hvt5`` -- the 5-lane negative-BL flip-voltage sweep
  (half-circuit bisections in a damped settle loop).

Each output is checked against the value the committed
``.repro_cache.json`` holds for it, with no tolerance: the inverter fit
from its two points (the small-load point is run once, untimed), the
flip voltages, and the write-delay and write-energy LUTs on the cached
V_WL and V_BL axes.  The cache is reproduced bit for bit with numpy
2.4.6 on an AVX-512 x86-64 host; another numpy or CPU can move the last
bits with no code change, so a failed check there is not drift by
itself (rerun at a known-good commit on the same host first).

Each leg runs :data:`REPEATS` times (quick: once); the median and best
wall seconds and the CPU seconds of each run are written to
``BENCH_simulator.json`` (repo root, or ``--output``).  Pointed at
another checkout (``PYTHONPATH=<checkout>/src``) the same script times
that tree, so two trees compare in alternating processes.

Exit codes: 0 = every check equal, 1 = a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from repro.cell.sram6t import SRAM6TCell
from repro.cell.write import flip_wordline_voltage_batch
from repro.cell.write_delay import cell_write_event_batch
from repro.devices.library import DeviceLibrary
from repro.periphery.gates import (
    _DT,
    _T_RISE,
    _T_START,
    fit_gate,
    gate_loads,
    gate_point,
    nand_circuit,
)
from repro.spice.dc import operating_point, solve_from
from repro.spice.stimuli import step

_HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(_HERE, "..", "BENCH_simulator.json")
TRACKED_CACHE = os.path.join(_HERE, "..", ".repro_cache.json")

#: The cache entries the checks read (characterization VERSION v6,
#: default grids).
GATES_KEY = "v6:gates"
SCALE_KEY = "v6:write_delay_scale"
HVT_KEY = "v6:hvt:ddc11_ssc11_wl11_0.72_bl5:array"

#: Timed runs per leg.
REPEATS = {"full": 3, "quick": 1}

#: Newton solves per timed run of ``newton_nand2``.
NEWTON_SOLVES = 200

#: Flip sweep resolution of the cold characterization [V].
FLIP_RESOLUTION = 0.002


def _timed(function, repeats):
    """``(result of the last run, wall seconds, CPU seconds)`` per run."""
    walls, cpus = [], []
    for _ in range(repeats):
        wall, cpu = time.perf_counter(), time.process_time()
        result = function()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    return result, walls, cpus


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _legs(library, entry):
    """Leg name -> ``(run, check)``: ``check(result)`` returns the
    ``(what, equal)`` pairs of the leg's cache checks."""
    vdd = library.vdd
    loads = gate_loads(library)
    cell = SRAM6TCell.from_library(library, "hvt")
    v_bl_axis = np.asarray(entry["v_wl_flip_vs_vbl"]["xs"])
    v_wl_axis = np.asarray(entry["d_write_sram"]["xs"])

    def newton():
        # The NAND2 testbench's input mid-way up its first edge.
        stimulus = step(_T_START, 0.0, vdd, _T_RISE)
        circuit = nand_circuit(library, 2, 1, vdd, loads[1], stimulus)
        x0 = operating_point(circuit).x
        t = _T_START + 0.5 * _T_RISE
        return [solve_from(circuit, x0, time=t, dt=_DT, x_prev=x0)
                for _ in range(NEWTON_SOLVES)][-1]

    def write():
        v_wl = np.concatenate([v_wl_axis, np.full(len(v_bl_axis), vdd)])
        v_bl = np.concatenate([np.zeros(len(v_wl_axis)), v_bl_axis])
        return cell_write_event_batch(cell, v_wl, vdd=vdd, v_bl_low=v_bl)

    def flips():
        return flip_wordline_voltage_batch(
            cell, len(v_bl_axis), vdd=vdd,
            v_bl_low=v_bl_axis.reshape(-1, 1), resolution=FLIP_RESOLUTION)

    def check_inverter(point):
        small = gate_point(library, 1, loads[0])
        fit = fit_gate(library, 1, [small, point])
        return [("inverter fit", vars(fit) == entry["inv"])]

    def check_write(events):
        scale = entry["write_delay_scale"]
        n = len(v_wl_axis)
        return [
            (lut, _bits([e.delay * scale if lut.startswith("d_")
                         else e.energy for e in part])
             == _bits(entry[lut]["ys"]))
            for lut, part in (("d_write_sram", events[:n]),
                              ("e_write_sram", events[:n]),
                              ("d_write_negbl", events[n:]),
                              ("e_write_negbl", events[n:]))
        ]

    return {
        "newton_nand2": (newton, None),
        "gate_nand2_large": (lambda: gate_point(library, 2, loads[1]),
                             None),
        "gate_inv_large": (lambda: gate_point(library, 1, loads[1]),
                           check_inverter),
        "write_batch_hvt16": (write, check_write),
        "flip_sweep_hvt5": (flips, lambda result: [
            ("v_wl_flip_vs_vbl",
             _bits(result) == _bits(entry["v_wl_flip_vs_vbl"]["ys"]))]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizing (one timed run per leg)")
    parser.add_argument("--output", default=BASELINE_PATH,
                        help="where to write BENCH_simulator.json")
    args = parser.parse_args(argv)
    mode = "quick" if args.quick else "full"
    with open(TRACKED_CACHE) as handle:
        cache = json.load(handle)
    entry = dict(cache[HVT_KEY], inv=cache[GATES_KEY]["inv"])
    assert entry["write_delay_scale"] == cache[SCALE_KEY]
    library = DeviceLibrary.default_7nm()
    results, failed = {}, []
    for name, (run, check) in _legs(library, entry).items():
        value, walls, cpus = _timed(run, REPEATS[mode])
        checks = dict(check(value)) if check else {}
        failed += ["%s: %s" % (name, what)
                   for what, equal in checks.items() if not equal]
        results[name] = {
            "median_s": statistics.median(walls),
            "best_s": min(walls),
            "wall_s": walls,
            "cpu_s": cpus,
            "checks": checks,
        }
        if name == "newton_nand2":
            results[name]["solves_per_run"] = NEWTON_SOLVES
            results[name]["iterations"] = int(value[1])
        print("%-18s median %7.3f s  cpu %7.3f s  %s" % (
            name, results[name]["median_s"], statistics.median(cpus),
            " ".join("%s=%s" % (what, "ok" if equal else "DIFFERS")
                     for what, equal in checks.items())))

    baseline = {
        "schema": "BENCH_simulator/v1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "cpus": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "mode": mode,
        "repeats": REPEATS[mode],
        "legs": results,
    }
    with open(args.output, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if failed:
        print("FAIL: differs from the committed cache: %s"
              % "; ".join(failed))
        return 1
    print("wrote %s" % os.path.relpath(args.output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
