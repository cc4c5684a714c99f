"""Cold characterization through the stage pool.

A cold :func:`~repro.periphery.characterize` runs the flip→write chain
in the caller and every other simulating stage in a process pool.  The
pooled run must leave the same cache bits, the same telemetry names and
counts, and the same exception types as the inline run, and a warm
start must start no process at all.
"""

import concurrent.futures.process
import importlib
import json
import multiprocessing
import multiprocessing.process
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import perf
from repro.analysis import Session
from repro.errors import CharacterizationError
from repro.lut import CharacterizationCache
from repro.periphery.characterize import (
    VERSION,
    CharacterizationGrids,
    characterize,
)

from .conftest import CACHE_PATH

# The package re-exports the function under the module's own name.
characterize_module = importlib.import_module("repro.periphery.characterize")

#: Grids small enough that an inline and a pooled cold run take about
#: 20 s together; the INV and NAND2 fits, which no grid shrinks, are
#: most of it.
GRIDS = CharacterizationGrids(
    v_ddc=(0.45, 0.7), v_ssc=(-0.1, 0.0), v_wl_points=3,
    v_bl=(-0.1, 0.0), nand_fan_ins=(2,),
)


def _spy_pool_sizes(monkeypatch):
    """Record ``max_workers`` of every process pool built from now on."""
    sizes = []
    init = concurrent.futures.process.ProcessPoolExecutor.__init__

    def spy(self, max_workers=None, *args, **kwargs):
        sizes.append(max_workers)
        init(self, max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.process.ProcessPoolExecutor,
                        "__init__", spy)
    return sizes


def _cold_run(library, path, cpus):
    """One cold HVT run on ``cpus`` CPUs: its cache file's entries, the
    perf registry it left, and the sizes of the pools it built."""
    registry = perf.get_registry()
    saved = registry.snapshot()
    registry.reset()
    try:
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            sizes = _spy_pool_sizes(monkeypatch)
            cache = CharacterizationCache(str(path))
            characterize(library, "hvt", cache=cache, grids=GRIDS)
        telemetry = registry.snapshot()
    finally:
        registry.reset()
        registry.merge(saved)
    with open(path) as handle:
        entries = json.load(handle)
    return entries, telemetry, sizes


@pytest.fixture(scope="module")
def cold_runs(library, tmp_path_factory):
    scratch = tmp_path_factory.mktemp("cold")
    return {
        "inline": _cold_run(library, scratch / "inline.json", cpus=1),
        "pooled": _cold_run(library, scratch / "pooled.json", cpus=2),
    }


def test_pooled_run_goes_through_one_worker_and_inline_through_none(
        cold_runs):
    assert cold_runs["pooled"][2] == [1]
    assert cold_runs["inline"][2] == []


def test_pooled_and_inline_cold_runs_are_bitwise_equal(cold_runs):
    pooled, inline = cold_runs["pooled"][0], cold_runs["inline"][0]
    array_key = "%s:hvt:%s:array" % (VERSION, GRIDS.signature())
    assert list(pooled) == list(inline) == [
        "%s:gates" % VERSION, "%s:write_delay_scale" % VERSION, array_key]
    for key in pooled:
        # Compared through their JSON text: a one-ulp move fails.
        assert json.dumps(pooled[key]) == json.dumps(inline[key]), key


def test_pooled_run_merges_worker_telemetry(cold_runs):
    pooled, inline = cold_runs["pooled"][1], cold_runs["inline"][1]

    def counts(telemetry):
        return ({name: data["count"]
                 for name, data in telemetry["timers"].items()},
                telemetry["counters"])

    assert counts(pooled) == counts(inline)
    assert set(pooled["timers"]) >= {
        "characterize.i_read", "characterize.v_flip",
        "characterize.d_write", "characterize.negbl"}


def _cached_gates_and_anchor():
    """A memory cache holding the committed gates and anchor entries,
    so a cold run skips the INV/NAND2 fits and the anchor write."""
    with open(CACHE_PATH) as handle:
        committed = json.load(handle)
    cache = CharacterizationCache()
    for name in ("gates", "write_delay_scale"):
        key = "%s:%s" % (VERSION, name)
        cache.put(key, committed[key])
    return cache


def _raise_characterization_error(*args, **kwargs):
    raise CharacterizationError("I_read grid failed", bracket=(0.0, 0.72))


def _skip_chain(cell, grids, vdd):
    return None


@pytest.mark.parametrize("cpus", [1, 2])
def test_failing_pool_stage_raises_its_own_type(library, monkeypatch,
                                                cpus):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    # The I_read stage runs in a pool worker (forked after the patch);
    # the chain is stubbed out to keep the run short.
    monkeypatch.setattr(characterize_module, "read_current_grid",
                        _raise_characterization_error)
    monkeypatch.setattr(characterize_module, "_flip_write_chain",
                        _skip_chain)
    with pytest.raises(CharacterizationError) as info:
        characterize(library, "hvt", cache=_cached_gates_and_anchor(),
                     grids=GRIDS)
    assert info.value.bracket == (0.0, 0.72)
    assert multiprocessing.active_children() == []


def _raise_runtime_error(cell, grids, vdd):
    raise RuntimeError("write did not complete")


def test_failing_caller_stage_shuts_the_pool_down(library, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sizes = _spy_pool_sizes(monkeypatch)
    monkeypatch.setattr(characterize_module, "_flip_write_chain",
                        _raise_runtime_error)
    with pytest.raises(RuntimeError, match="did not complete"):
        characterize(library, "hvt", cache=_cached_gates_and_anchor(),
                     grids=GRIDS)
    assert sizes == [1]
    assert multiprocessing.active_children() == []


def test_pool_leaves_one_cpu_to_the_caller(monkeypatch):
    workers = characterize_module._pool_workers
    for cpus, stages, expected in ((None, 6, 0), (1, 6, 0), (2, 6, 1),
                                   (4, 6, 3), (16, 6, 6), (16, 2, 2)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert workers(stages) == expected, (cpus, stages)


def test_multiprocessing_child_runs_every_stage_inline(monkeypatch):
    # A pool worker is daemonic and may not fork workers of its own;
    # the fork-started worker inherits the patched CPU count.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(characterize_module._pool_workers, 6).result() \
            == 0


def _no_process(*args, **kwargs):
    raise AssertionError("a warm start must not start a process")


def test_warm_start_starts_no_process(library, monkeypatch):
    monkeypatch.setattr(concurrent.futures.process.ProcessPoolExecutor,
                        "__init__", _no_process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        _no_process)
    cache = CharacterizationCache(CACHE_PATH)
    for flavor in ("hvt", "lvt"):
        assert characterize(library, flavor, cache=cache).flavor == flavor
    session = Session.create(cache_path=CACHE_PATH)
    assert set(session.chars) == {"hvt", "lvt"}
