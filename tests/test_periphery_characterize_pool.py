"""Cold characterization through the stage pool.

A cold :func:`~repro.periphery.characterize` runs the flip→write chain
in the caller and every other simulating stage in a process pool; once
the chain is done the caller takes back the stages no worker started.
The pooled run must leave the same cache bits, the same telemetry names
and counts, and the same exception types as the inline run, and a warm
start must start no process at all.
"""

import concurrent.futures.process
import importlib
import json
import multiprocessing
import multiprocessing.process
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.analysis import Session
from repro.cell.write_delay import WriteEvent
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


def _no_anchor_write(library):
    raise AssertionError("HVT takes its anchor from the chain's batch")


def _cold_run(library, path, cpus):
    """One cold HVT run on ``cpus`` CPUs: its cache file's entries, the
    perf registry it left, and the sizes of the pools it built.  The
    scalar anchor write raises if it runs, in the caller or a worker."""
    registry = perf.get_registry()
    saved = registry.snapshot()
    registry.reset()
    try:
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            monkeypatch.setattr(characterize_module,
                                "characterize_write_delay_scale",
                                _no_anchor_write)
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
        "characterize.d_write"}


def _committed(name):
    with open(CACHE_PATH) as handle:
        return json.load(handle)["%s:%s" % (VERSION, name)]


def _cached_gates_and_anchor(names=("gates", "write_delay_scale")):
    """A memory cache holding the committed gates and anchor entries,
    so a cold run skips the INV/NAND2 fits and the anchor write."""
    cache = CharacterizationCache()
    for name in names:
        cache.put("%s:%s" % (VERSION, name), _committed(name))
    return cache


def test_hvt_anchor_is_the_chains_no_assist_lane(cold_runs):
    # Neither run called the scalar anchor write (_cold_run makes it
    # raise), yet both hold the committed anchor.
    key = "%s:write_delay_scale" % VERSION
    for entries, _telemetry, _sizes in cold_runs.values():
        assert entries[key] == _committed("write_delay_scale")


def test_lvt_cold_run_writes_the_anchor_once(library, monkeypatch):
    calls = []
    scale = characterize_module.characterize_write_delay_scale

    def counted(*args):
        calls.append(args)
        return scale(*args)

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(characterize_module,
                        "characterize_write_delay_scale", counted)
    cache = _cached_gates_and_anchor(names=("gates",))
    characterize(library, "lvt", cache=cache, grids=GRIDS)
    assert len(calls) == 1
    assert (cache.get("%s:write_delay_scale" % VERSION)
            == _committed("write_delay_scale"))


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


def _fixed_flips(cell, lanes, vdd, v_bl_low, resolution):
    return [0.30] * lanes


def _writes_failing_at(lane):
    def writes(cell, v_wl, vdd, v_bl_low):
        return [WriteEvent(delay=1e-12, energy=1e-16, completed=k != lane)
                for k in range(len(v_wl))]
    return writes


# GRIDS' write batch: three WLOD lanes at V_BL 0 from 0.33 V (the stubbed
# flip voltage + 30 mV) to 0.72 V, then the negative-BL lanes at Vdd.
@pytest.mark.parametrize("lane, v_wl, v_bl", [(1, 0.525, 0.0),
                                              (3, 0.45, -0.1)])
@pytest.mark.parametrize("cpus", [1, 2])
def test_incomplete_write_lane_names_its_bias(library, monkeypatch, cpus,
                                              lane, v_wl, v_bl):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(characterize_module, "flip_wordline_voltage_batch",
                        _fixed_flips)
    monkeypatch.setattr(characterize_module, "cell_write_event_batch",
                        _writes_failing_at(lane))
    with pytest.raises(CharacterizationError) as info:
        characterize(library, "hvt", cache=_cached_gates_and_anchor(),
                     grids=GRIDS)
    assert "V_WL=%.3f V, V_BL=%.3f V" % (v_wl, v_bl) in str(info.value)
    bias = info.value.bias
    assert (bias.v_wl, bias.v_bl, bias.vdd) == pytest.approx(
        (v_wl, v_bl, library.vdd))
    assert multiprocessing.active_children() == []


def _incomplete_write(cell, v_wl, vdd):
    return WriteEvent(delay=float("inf"), energy=1e-16, completed=False)


@pytest.mark.parametrize("cpus", [1, 2])
def test_incomplete_anchor_write_names_its_bias(library, monkeypatch,
                                                cpus):
    # LVT's anchor is a stage of its own (in a worker when pooled); the
    # stubbed chain returns nothing, so the anchor is what fails.
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(characterize_module, "cell_write_event",
                        _incomplete_write)
    monkeypatch.setattr(characterize_module, "_flip_write_chain",
                        _skip_chain)
    with pytest.raises(CharacterizationError, match="cannot anchor") as info:
        characterize(library, "lvt",
                     cache=_cached_gates_and_anchor(names=("gates",)),
                     grids=GRIDS)
    bias = info.value.bias
    assert (bias.v_wl, bias.v_bl) == (library.vdd, 0.0)
    assert "V_WL=%.3f V, V_BL=0.000 V" % library.vdd in str(info.value)
    assert multiprocessing.active_children() == []


class StageFailed(Exception):
    """Raised by a stub stage; carries the pid that ran it."""


def _stub_stage(seconds, tag):
    time.sleep(seconds)
    return tag, os.getpid()


def _failing_stub_stage(seconds, tag):
    raise StageFailed(os.getpid())


def _stub_stages(last=_stub_stage):
    """A chain that outlasts the submits but not the worker's first
    stage: while the chain runs the pool holds that one stage, and the
    rest wait for whichever side is free first -- the caller, once its
    chain is done."""
    chain = ("chain", _stub_stage, (0.5, "chain"))
    stages = [("s0", _stub_stage, (2.0, 0))]
    stages += [("s%d" % k, _stub_stage, (0.0, k)) for k in range(1, 6)]
    stages.append(("s6", last, (0.0, 6)))
    return chain, stages


def test_caller_runs_the_stages_no_worker_started(monkeypatch):
    chain, stages = _stub_stages()
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    inline = characterize_module._run_stages(chain, stages)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pooled = characterize_module._run_stages(chain, stages)
    caller = os.getpid()
    assert {name: tag for name, (tag, _pid) in pooled.items()} == {
        name: tag for name, (tag, _pid) in inline.items()}
    assert all(pid == caller for _tag, pid in inline.values())
    ran_in = {name: pid for name, (_tag, pid) in pooled.items()}
    assert ran_in["chain"] == caller
    # The worker ran only the stage it started during the chain; no
    # stage waited in its call queue, so the caller ran all the others.
    in_caller = [ran_in["s%d" % k] == caller for k in range(7)]
    assert in_caller == [False] + [True] * 6
    assert multiprocessing.active_children() == []


def _logged_stage(path, seconds, tag):
    """Sleep, append ``tag`` to the file at ``path`` (one line per run,
    from whichever process runs it) and return ``(tag, pid)``."""
    time.sleep(seconds)
    with open(path, "a") as handle:
        handle.write("%s\n" % tag)
    return tag, os.getpid()


def _spy_pool_load(monkeypatch):
    """Record, at every submit, how many earlier submits are unfinished."""
    loads, futures = [], []
    submit = concurrent.futures.process.ProcessPoolExecutor.submit

    def spy(self, *args, **kwargs):
        loads.append(sum(not future.done() for future in futures))
        future = submit(self, *args, **kwargs)
        futures.append(future)
        return future

    monkeypatch.setattr(concurrent.futures.process.ProcessPoolExecutor,
                        "submit", spy)
    return loads


@settings(max_examples=6, deadline=None)
@given(cpus=st.integers(2, 3), chain_s=st.sampled_from((0.0, 0.05, 0.2)),
       stage_s=st.lists(st.sampled_from((0.0, 0.02, 0.1)), min_size=1,
                        max_size=7))
def test_each_stage_runs_once_and_the_pool_holds_one_per_worker(
        tmp_path_factory, cpus, chain_s, stage_s):
    path = str(tmp_path_factory.mktemp("stages") / "ran.log")
    chain = ("chain", _logged_stage, (path, chain_s, "chain"))
    stages = [("s%d" % k, _logged_stage, (path, seconds, "s%d" % k))
              for k, seconds in enumerate(stage_s)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        loads = _spy_pool_load(monkeypatch)
        workers = characterize_module._pool_workers(len(stages))
        done = characterize_module._run_stages(chain, stages)
    names = ["chain"] + [name for name, _function, _args in stages]
    assert {name: tag for name, (tag, _pid) in done.items()} == {
        name: name for name in names}
    with open(path) as handle:
        assert sorted(handle.read().split()) == sorted(names)
    assert 1 <= len(loads) <= len(stages)
    assert max(loads) < workers
    assert multiprocessing.active_children() == []


def test_a_stolen_stage_that_raises_reraises_its_own_type(monkeypatch):
    chain, stages = _stub_stages(last=_failing_stub_stage)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sizes = _spy_pool_sizes(monkeypatch)
    with pytest.raises(StageFailed) as info:
        characterize_module._run_stages(chain, stages)
    assert info.value.args == (os.getpid(),)
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
