"""CI gate: a cold characterization must reproduce the committed cache
bit for bit.

Usage::

    PYTHONPATH=src python benchmarks/check_cold_identity.py

Each flavor is characterized with the full default grids (the NAND2-5
gate library included) into its own empty temporary cache, and every
entry of that fresh cache under the current ``VERSION`` prefix is
compared with the same key of the committed ``.repro_cache.json``.  So
both flavors' gate fits are compared, and both ways of making the
write-delay anchor: HVT takes it from its write batch's no-assist lane,
LVT from the scalar HVT write.  The comparison is JSON equality with no
tolerance: a float that moved by one ulp fails.  On a mismatch the gate
names the key and the first differing field.

This is the only check that runs the simulator end to end against the
committed answers: the tier-1 suite reads the committed cache instead of
characterizing, and the benchmark's cold workload covers one flavor's
INV+NAND2 slice.  Each flavor's line gives its wall time and the number
of process-pool workers its cold run used (0: every stage ran inline).

Exit codes: 0 = every entry equal, 1 = a mismatch or a missing entry.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager

_HERE = os.path.dirname(os.path.abspath(__file__))
TRACKED_CACHE = os.path.join(_HERE, "..", ".repro_cache.json")

#: Both device flavors the committed cache holds.
FLAVORS = ("hvt", "lvt")


def first_difference(fresh, tracked, path=""):
    """Path of the first field where two JSON values differ, or None."""
    if isinstance(fresh, dict) and isinstance(tracked, dict):
        for key in sorted(set(fresh) | set(tracked)):
            where = "%s.%s" % (path, key) if path else key
            if key not in fresh or key not in tracked:
                return where + " (missing on one side)"
            found = first_difference(fresh[key], tracked[key], where)
            if found is not None:
                return found
        return None
    if isinstance(fresh, list) and isinstance(tracked, list):
        if len(fresh) != len(tracked):
            return "%s (length %d vs %d)" % (path, len(fresh), len(tracked))
        for k, (a, b) in enumerate(zip(fresh, tracked)):
            found = first_difference(a, b, "%s[%d]" % (path, k))
            if found is not None:
                return found
        return None
    if fresh != tracked or type(fresh) is not type(tracked):
        return "%s (%r vs committed %r)" % (path, fresh, tracked)
    return None


@contextmanager
def pool_sizes():
    """Record ``max_workers`` of every process pool built in the block."""
    from concurrent.futures import process

    sizes = []
    init = process.ProcessPoolExecutor.__init__

    def spy(self, max_workers=None, *args, **kwargs):
        sizes.append(max_workers)
        init(self, max_workers, *args, **kwargs)

    process.ProcessPoolExecutor.__init__ = spy
    try:
        yield sizes
    finally:
        process.ProcessPoolExecutor.__init__ = init


def cold_cache(flavor, path):
    """Characterize ``flavor`` into an empty cache at ``path``."""
    from repro.devices.library import DeviceLibrary
    from repro.lut.cache import CharacterizationCache
    from repro.periphery.characterize import characterize

    library = DeviceLibrary.default_7nm()
    cache = CharacterizationCache(path)
    with pool_sizes() as sizes:
        start = time.perf_counter()
        characterize(library, flavor, cache=cache)
        seconds = time.perf_counter() - start
    print("%s: characterized cold in %.1f s with %d pool workers"
          % (flavor, seconds, sum(sizes)))
    with open(path) as handle:
        return json.load(handle)


def compare(fresh, tracked, version, flavor):
    """Failures of the fresh ``version`` entries of one flavor's cold
    run against ``tracked``; the shared gates and anchor must be among
    them."""
    keys = sorted(k for k in fresh if k.startswith(version + ":"))
    failures = ["%s: %s:%s is not in the fresh cache" % (flavor, version,
                                                         name)
                for name in ("gates", "write_delay_scale")
                if "%s:%s" % (version, name) not in fresh]
    if not keys:
        failures.append("%s: the fresh cache holds no %s entries"
                        % (flavor, version))
    for key in keys:
        if key not in tracked:
            failures.append("%s: %s: not in the committed cache"
                            % (flavor, key))
            continue
        where = first_difference(fresh[key], tracked[key])
        if where is not None:
            failures.append("%s: %s: differs at %s" % (flavor, key, where))
        else:
            print("%s: equal: %s" % (flavor, key))
    return failures


def main():
    from repro.periphery.characterize import VERSION

    with open(TRACKED_CACHE) as handle:
        tracked = json.load(handle)
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        for flavor in FLAVORS:
            fresh = cold_cache(flavor,
                               os.path.join(scratch, "%s.json" % flavor))
            failures += compare(fresh, tracked, VERSION, flavor)
    for failure in failures:
        print("MISMATCH " + failure)
    print("cold-identity gate: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
