"""``cold_characterize``: one flavor's characterization from an empty
cache.

The simulator, the device model and the cache-write path do nearly all
the work; search, yields and the service do none.  The seed picks the
flavor.  The gate library is cut to the inverter and NAND2; every other
grid keeps its default.  Smoke mode changes nothing here: the gate fits
take most of the time and the slice is already minimal.
"""

from __future__ import annotations

import json
import os
import random
import time
import uuid

from common import TRACKED_CACHE, HostProbe, ProbeSampler, check, peak_rss_mb

NAME = "cold_characterize"


def setup(params, tmp_dir):
    """Imports, the device library and an empty cache file path."""
    from repro.devices.library import DeviceLibrary
    from repro.lut.cache import CharacterizationCache
    from repro.periphery.characterize import characterize  # noqa: F401

    path = os.path.join(tmp_dir, "cold-cache-%s.json" % uuid.uuid4().hex)
    return DeviceLibrary.default_7nm(), CharacterizationCache(path)


def work(params, tmp_dir):
    """Child side: set up, characterize, check the fresh cache."""
    from repro.periphery.characterize import (
        CharacterizationGrids,
        characterize,
    )

    library, cache = setup(params, tmp_dir)
    flavor = random.Random(params["seed"]).choice(("lvt", "hvt"))
    grids = CharacterizationGrids(nand_fan_ins=(2,))
    with ProbeSampler(clock=time.thread_time) as sampler:
        start = time.perf_counter()
        characterize(library, flavor, cache=cache, grids=grids)
        end = time.perf_counter()
    with open(cache.path) as handle:
        fresh = json.load(handle)
    return {
        "flavor": flavor,
        "characterize_s": end - start,
        "start": start,
        "end": end,
        "probes": sampler.probe.samples,
        "rss_mb": peak_rss_mb(),
        "checks": check_cache(fresh, flavor),
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _entry_mismatches(fresh, tracked):
    """Fields of a fresh array entry that differ from the tracked one
    (the NAND set aside: the slice holds NAND2 only)."""
    return [field for field in sorted(fresh)
            if field != "nands" and fresh[field] != tracked.get(field)]


def check_cache(fresh, flavor):
    """Compare a fresh cold cache with the tracked ``.repro_cache.json``."""
    from repro.periphery.characterize import VERSION, CharacterizationGrids

    with open(TRACKED_CACHE) as handle:
        tracked = json.load(handle)
    gates_key = "%s:gates" % VERSION
    gates, ref_gates = fresh.get(gates_key, {}), tracked.get(gates_key, {})
    scale_key = "%s:write_delay_scale" % VERSION
    # The slice's entry sits under the full-grid key: the grid
    # signature omits the NAND set.
    array_key = "%s:%s:%s:array" % (VERSION, flavor,
                                    CharacterizationGrids().signature())
    if array_key in fresh and array_key in tracked:
        bad = _entry_mismatches(fresh[array_key], tracked[array_key])
    else:
        bad = ["<no %s entry>" % array_key]
    return [
        check("cold.gates_inv_nand2_equal_tracked",
              gates and gates["inv"] == ref_gates.get("inv")
              and set(gates["nands"]) == {"2"}
              and gates["nands"]["2"] == ref_gates["nands"]["2"]),
        check("cold.write_delay_anchor_equal_tracked",
              scale_key in fresh
              and fresh[scale_key] == tracked.get(scale_key)),
        check("cold.array_entry_equal_tracked", not bad,
              "differs in: %s" % ", ".join(bad) if bad else ""),
    ]


# ---------------------------------------------------------------------------
# Orchestrator side
# ---------------------------------------------------------------------------

def measure(run):
    """Set-up samples, then one characterization in a work child, whose
    probe thread samples the host's speed meanwhile."""
    params = {"seed": run.seed}
    if not run.trace:
        run.setup_samples(NAME, params)
    result, factor = _work(run, params)
    seconds = result["characterize_s"] / factor
    run.note("flavor %s; characterize() %.3f s raw, host factor %.3f"
             % (result["flavor"], result["characterize_s"], factor))
    if run.trace:
        traced, traced_factor = _work(run, params, traced=True)
        run.set_overhead(traced["characterize_s"] / traced_factor, seconds)
        return
    # One operation: the op statistics are its time.
    run.metric("task_s", seconds)
    run.metric("op_ms", seconds * 1e3)
    run.metric("op_p90_ms", seconds * 1e3)
    run.metric("peak_rss_mb", result["rss_mb"])
    run.workload_metric("characterize_s", seconds, "s")


def _work(run, params, traced=False):
    result = (run.trace_work(NAME, params) if traced
              else run.work(NAME, params))
    run.add_checks(result["checks"])
    run.count_ops(1)
    probe = HostProbe(result["probes"])
    run.note("probe thread of the work process: %s" % probe.describe())
    return result, probe.factor(result["start"], result["end"])
