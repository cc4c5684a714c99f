"""Characterization driver: runs the built-in simulator over every
cell/periphery quantity the array model needs and packages the results
as look-up tables (the paper's Section-5 flow).

All results are JSON-cacheable through
:class:`repro.lut.CharacterizationCache`, because full-array studies
reuse the same characterization across every capacity and method.

One deliberate calibration step: the paper states the no-assist
cell-level write delay is 1.5 ps in its technology, while the relative
universe of our compact model produces a different absolute value.  The
write-delay LUT is therefore scaled by a single global factor anchoring
the 6T-HVT no-assist point to the paper's 1.5 ps; the V_WL dependence
(the shape that matters to the optimizer) comes entirely from our
simulations.  See EXPERIMENTS.md.

A cold characterization has one dependency between its simulating
stages: the negative-BL flip sweep fixes the V_WL axis of the write
batch, which carries the wordline-overdrive (WLOD) lanes and the
negative-BL lanes in one transient; for HVT its no-assist lane at Vdd
is also the write-delay anchor.  That chain runs in the caller while a
process pool runs the other stages (each gate fit's two load points,
LVT's anchor, the TG drive, the sense amplifier and the I_read grid),
submitted longest first, at most one per worker at a time; once the
chain is done the caller runs the stages the pool has not been given,
shortest first.  See :func:`_run_stages`.  Every stage is a pure
function of its arguments, so the pooled and the inline run give the
same bits.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .. import perf
from ..array.capacitance import DeviceCaps
from ..array.geometry import ArrayGeometry
from ..cell.bias import CellBias
from ..cell.leakage import cell_leakage_power
from ..cell.read_current import read_current_grid
from ..cell.sram6t import SRAM6TCell
from ..cell.write import flip_wordline_voltage_batch
from ..cell.write_delay import cell_write_event, cell_write_event_batch
from ..devices.model import FinFET
from ..errors import CharacterizationError
from ..lut.table import LUT1D, LUT2D
from .decoder import DecoderModel, build_decoder_model
from .driver import SuperbufferModel
from .gates import (
    GateCharacterization,
    fit_gate,
    gate_loads,
    gate_point,
    gate_window,
)
from .precharge import i_on_pfet
from .senseamp import SenseAmpCharacterization, characterize_senseamp
from .writebuffer import characterize_i_on_tg

#: Bump to invalidate stale caches when the characterization flow changes.
VERSION = "v6"

#: The paper's stated no-assist cell write delay (Section 3.2).
PAPER_WRITE_DELAY_NO_ASSIST = 1.5e-12

#: Default sensing voltage (paper Section 5).
DELTA_V_SENSE = 0.120

#: Serial seconds of the cold stages on a 2-vCPU x86-64 VM, which only
#: order the pool's queue: the stages of fixed size, and a gate point
#: per picosecond of its testbench window (0.3 s for the inverter at
#: the small load, 1.7 s for the NAND2 at the large one).
_STAGE_SECONDS = {"scale": 0.75, "tg": 0.55, "sense": 0.3, "i_read": 0.1}
_GATE_POINT_SECONDS_PER_PS = 0.013


@dataclass(frozen=True)
class CharacterizationGrids:
    """Grid definitions for every LUT."""

    v_ddc: tuple = tuple(np.round(np.arange(0.45, 0.7201, 0.025), 4))
    v_ssc: tuple = tuple(np.round(np.arange(-0.25, 0.0001, 0.025), 4))
    v_wl_points: int = 11
    v_wl_max: float = 0.72
    #: Negative-BL write-assist levels (ascending, ending at 0).
    v_bl: tuple = (-0.20, -0.15, -0.10, -0.05, 0.0)
    nand_fan_ins: tuple = (2, 3, 4, 5)

    def __post_init__(self):
        # The 0.0 lane of the negative-BL flip sweep doubles as the
        # no-assist flip voltage (see _characterize_cold).
        if len(self.v_bl) == 0 or self.v_bl[-1] != 0.0:
            raise ValueError(
                "v_bl must end at 0.0 (the no-assist level); got %r"
                % (self.v_bl,)
            )

    def signature(self):
        return "ddc%d_ssc%d_wl%d_%g_bl%d" % (
            len(self.v_ddc), len(self.v_ssc), self.v_wl_points,
            self.v_wl_max, len(self.v_bl),
        )


@dataclass
class ArrayCharacterization:
    """Everything the analytical array model consumes."""

    flavor: str
    vdd: float
    delta_v_sense: float
    geometry: ArrayGeometry
    caps: DeviceCaps
    #: Single-fin LVT PFET ON current (Table 2 ``I_ON,PFET``) [A].
    i_on_pfet: float
    #: Effective single-fin TG ON current (Table 2 ``I_ON,TG``) [A].
    i_on_tg: float
    #: WL-driver last-stage drive vs V_WL (Table 2 ``I_WL``) [A].
    i_wl: LUT1D
    #: CVDD rail-mux drive vs V_DDC (Table 2 ``I_CVDD``) [A].
    i_cvdd: LUT1D
    #: CVSS rail-mux drive vs V_SSC (Table 2 ``I_CVSS``) [A].
    i_cvss: LUT1D
    #: Cell read current vs (V_DDC, V_SSC) (Table 2 ``I_read``) [A].
    i_read: LUT2D
    #: Cell standby leakage power [W].
    p_leak_sram: float
    #: Structural decoder model (rows and columns share unit gates).
    decoder: DecoderModel
    #: WL superbuffer model.
    driver: SuperbufferModel
    #: Sense amplifier constants.
    sense: SenseAmpCharacterization
    #: Cell write delay vs V_WL (anchored; see module docstring) [s].
    d_write_sram: LUT1D
    #: Cell write energy vs V_WL [J].
    e_write_sram: LUT1D
    #: The global anchoring factor applied to d_write_sram.
    write_delay_scale: float
    #: Minimum WL voltage that flips the cell (no BL assist) [V].
    v_wl_flip: float
    #: Flip WL voltage vs the negative-BL level (for the negative-BL
    #: write-assist policy): the WM at (v_wl, v_bl) is
    #: ``v_wl - v_wl_flip_vs_vbl(v_bl)``.
    v_wl_flip_vs_vbl: LUT1D
    #: Cell write delay vs negative-BL level at V_WL = Vdd (anchored).
    d_write_negbl: LUT1D
    #: Cell write energy vs negative-BL level at V_WL = Vdd.
    e_write_negbl: LUT1D


def characterize_write_delay_scale(library):
    """Global write-delay anchoring factor (HVT no-assist -> 1.5 ps)."""
    cell = SRAM6TCell.from_library(library, "hvt")
    event = cell_write_event(cell, v_wl=library.vdd, vdd=library.vdd)
    _check_write(event, CellBias.write(vdd=library.vdd),
                 "HVT no-assist write; cannot anchor")
    return PAPER_WRITE_DELAY_NO_ASSIST / event.delay


def _check_write(event, bias, what):
    """Raise unless the write ``event`` run under ``bias`` completed."""
    if not event.completed:
        raise CharacterizationError(
            "%s did not complete at V_WL=%.3f V, V_BL=%.3f V"
            % (what, bias.v_wl, bias.v_bl),
            bias=bias,
        )


def characterize(library, flavor, cache=None, grids=None):
    """Full characterization for one cell flavor.

    Returns an :class:`ArrayCharacterization`.  With a cache, repeated
    calls are instant.  Each cell-level LUT sweep is evaluated as one
    lane-batched solve, bitwise equal to the per-point scalar solvers
    (``benchmarks/check_cold_identity.py`` checks a cold run against the
    committed cache).
    """
    grids = grids or CharacterizationGrids()
    key = "%s:%s:%s:array" % (VERSION, flavor, grids.signature())
    if cache is not None and key in cache:
        return _from_dict(cache.get(key), library, grids)
    with cache.deferred() if cache is not None else nullcontext():
        return _characterize_cold(library, flavor, cache, grids, key)


def _characterize_cold(library, flavor, cache, grids, key):
    vdd = library.vdd
    cell = SRAM6TCell.from_library(library, flavor)
    geometry = ArrayGeometry()
    caps = DeviceCaps.from_library(library)

    # Only the caller touches the cache.  The unit gates and the
    # write-delay anchor are shared by both flavors: simulate them only
    # when the cache does not hold them yet.  HVT's anchor is a lane of
    # the chain's write batch; LVT's needs the HVT cell, so it is a
    # stage of its own.
    gates_key = "%s:gates" % VERSION
    scale_key = "%s:write_delay_scale" % VERSION
    # Membership before get, as in characterize(): the membership test
    # is the lookup that cache hit/miss accounting counts.
    cached = {} if cache is None else {
        key: cache.get(key) for key in (gates_key, scale_key)
        if key in cache}
    gates, scale = cached.get(gates_key), cached.get(scale_key)
    fan_ins = (1,) + tuple(grids.nand_fan_ins)
    stages = _pool_stages(library, cell, grids,
                          fan_ins=fan_ins if gates is None else (),
                          scale=scale is None and flavor != "hvt")
    done = _run_stages(("chain", _flip_write_chain, (cell, grids, vdd)),
                       stages)

    if gates is None:
        fits = {fan_in: fit_gate(library, fan_in,
                                 [done[_gate_stage(fan_in, k)]
                                  for k in (0, 1)])
                for fan_in in fan_ins}
        gates = _gates_to_dict(fits[1], {
            fan_in: fits[fan_in] for fan_in in grids.nand_fan_ins
        })
        if cache is not None:
            cache.put(gates_key, gates)
    flips, v_wl_axis, wlod, negbl = done["chain"]
    if scale is None:
        scale = (PAPER_WRITE_DELAY_NO_ASSIST / negbl[-1].delay
                 if flavor == "hvt" else done["scale"])
        if cache is not None:
            cache.put(scale_key, scale)
    inv, nands = _gates_from_dict(gates)
    driver = SuperbufferModel(unit_inverter=inv)
    decoder = build_decoder_model(inv, nands, driver.input_capacitance)

    # Table-2 drive currents as LUTs over their assist voltage.
    pfet = FinFET(library.pfet_lvt, 1)
    nfet = FinFET(library.nfet_lvt, 1)
    v_ddc_axis = np.asarray(grids.v_ddc)
    i_cvdd = LUT1D(
        v_ddc_axis,
        [pfet.ion(float(v)) for v in v_ddc_axis],
        name="i_cvdd",
    )
    v_ssc_axis = np.asarray(grids.v_ssc)
    # CVSS mux NFET: gate at Vdd, pulling the rail from 0 down to V_SSC;
    # initial drive at Vgs = Vdd - V_SSC, Vds = |V_SSC|.
    i_cvss = LUT1D(
        v_ssc_axis,
        [nfet.current(vdd - float(v), abs(float(v)), 0.0)
         for v in v_ssc_axis],
        name="i_cvss",
    )
    i_wl = LUT1D(
        v_ddc_axis,
        [pfet.ion(float(v)) for v in v_ddc_axis],
        name="i_wl",
    )
    i_read = LUT2D(v_ddc_axis, v_ssc_axis, done["i_read"], name="i_read")
    p_leak = cell_leakage_power(cell, vdd)

    d_write = LUT1D(v_wl_axis, [event.delay * scale for event in wlod],
                    name="d_write_sram")
    e_write_lut = LUT1D(v_wl_axis, [event.energy for event in wlod],
                        name="e_write_sram")
    v_bl_axis = np.asarray(grids.v_bl)
    v_flip_vs_vbl = LUT1D(v_bl_axis, flips, name="v_wl_flip_vs_vbl")
    d_write_negbl = LUT1D(v_bl_axis, [event.delay * scale
                                      for event in negbl],
                          name="d_write_negbl")
    e_write_negbl = LUT1D(v_bl_axis, [event.energy for event in negbl],
                          name="e_write_negbl")

    result = ArrayCharacterization(
        flavor=flavor,
        vdd=vdd,
        delta_v_sense=DELTA_V_SENSE,
        geometry=geometry,
        caps=caps,
        i_on_pfet=i_on_pfet(library),
        i_on_tg=done["tg"],
        i_wl=i_wl,
        i_cvdd=i_cvdd,
        i_cvss=i_cvss,
        i_read=i_read,
        p_leak_sram=p_leak,
        decoder=decoder,
        driver=driver,
        sense=done["sense"],
        d_write_sram=d_write,
        e_write_sram=e_write_lut,
        write_delay_scale=scale,
        v_wl_flip=float(flips[-1]),
        v_wl_flip_vs_vbl=v_flip_vs_vbl,
        d_write_negbl=d_write_negbl,
        e_write_negbl=e_write_negbl,
    )
    if cache is not None:
        cache.put(key, _to_dict(result))
    return result


# ---------------------------------------------------------------------------
# Simulating stages (module-level, so a process pool can run them)
# ---------------------------------------------------------------------------

def _read_current_stage(cell, grids, vdd):
    """I_read over (V_DDC, V_SSC), one flattened lane batch."""
    with perf.timed("characterize.i_read"):
        return read_current_grid(cell, np.asarray(grids.v_ddc),
                                 np.asarray(grids.v_ssc), vdd=vdd)


def _pool_stages(library, cell, grids, fan_ins, scale):
    """The ``(name, function, args)`` stages besides the chain, longest
    first: both load points of each gate in ``fan_ins`` (1: the
    inverter), the scalar anchor write when ``scale``, the TG drive,
    the sense amp and the I_read grid."""
    seconds = dict(_STAGE_SECONDS)
    stages = []
    for fan_in in fan_ins:
        for k, load in enumerate(gate_loads(library)):
            name = _gate_stage(fan_in, k)
            seconds[name] = (_GATE_POINT_SECONDS_PER_PS * 1e12
                             * gate_window(fan_in, load))
            stages.append((name, gate_point, (library, fan_in, load)))
    if scale:
        stages.append(("scale", characterize_write_delay_scale, (library,)))
    stages += [
        ("tg", characterize_i_on_tg, (library,)),
        ("sense", characterize_senseamp, (library, DELTA_V_SENSE)),
        ("i_read", _read_current_stage, (cell, grids, library.vdd)),
    ]
    return sorted(stages, key=lambda stage: seconds[stage[0]], reverse=True)


def _gate_stage(fan_in, k):
    """Stage name of load point ``k`` of the ``fan_in``-input gate."""
    return "gate%d.%d" % (fan_in, k)


def _flip_write_chain(cell, grids, vdd):
    """The negative-BL flip sweep, then one write batch over the
    wordline-overdrive (WLOD) lanes, the V_WL axis that sweep fixes at
    V_BL 0, and the negative-BL lanes, the V_BL axis at V_WL = Vdd.

    The V_BL axis ends at 0.0, so the sweep's last lane is the no-assist
    flip voltage (bit-equal to a scalar bisection at v_bl_low = 0) and
    the batch's last lane the no-assist write at Vdd (bit-equal to the
    scalar write of :func:`characterize_write_delay_scale`).  Returns
    ``(flips, v_wl_axis, WLOD write events, negative-BL write events)``.
    """
    v_bl_axis = np.asarray(grids.v_bl)
    with perf.timed("characterize.v_flip"):
        flips = list(flip_wordline_voltage_batch(
            cell, len(v_bl_axis), vdd=vdd,
            v_bl_low=v_bl_axis.reshape(-1, 1), resolution=0.002,
        ))
    v_wl_lo = min(float(flips[-1]) + 0.03, vdd)
    v_wl_axis = np.linspace(v_wl_lo, grids.v_wl_max, grids.v_wl_points)
    v_wl = np.concatenate([v_wl_axis, np.full(len(v_bl_axis), float(vdd))])
    v_bl = np.concatenate([np.zeros(len(v_wl_axis)), v_bl_axis])
    with perf.timed("characterize.d_write"):
        events = cell_write_event_batch(cell, v_wl, vdd=vdd, v_bl_low=v_bl)
    for lane_v_wl, lane_v_bl, event in zip(v_wl, v_bl, events):
        _check_write(event, CellBias.write(vdd=vdd, v_wl=float(lane_v_wl),
                                           v_bl_low=float(lane_v_bl)),
                     "write")
    n = len(v_wl_axis)
    return flips, v_wl_axis, events[:n], events[n:]


def _pool_workers(n_stages):
    """Worker processes for ``n_stages`` pooled stages: one CPU stays
    with the caller, and a caller that is itself a multiprocessing
    child (a daemonic pool worker cannot fork its own) gets none."""
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        return 0
    return max(0, min((os.cpu_count() or 1) - 1, n_stages))


def _run_stages(chain, stages):
    """Run ``(name, function, args)`` stages; returns ``{name: result}``.

    The ``chain`` stage runs in the calling process while a process pool
    runs ``stages``, which are listed longest first; the workers'
    telemetry is merged into the caller's.  The pool holds at most one
    stage per worker: the first ones are submitted from this thread
    before the chain starts (a fork-started pool forks its workers on
    the first submit), and each time a pooled stage finishes the next
    one from the head of the list takes its place.  After the chain the
    caller runs the stages left, from the tail, so no stage waits in a
    worker's call queue while the caller could run it; then it gathers
    the pooled ones.  With no worker to spare every stage runs inline,
    the chain first.  A stage that raises re-raises here, with its own
    type, once no further stage will start.
    """
    workers = _pool_workers(len(stages))
    if workers == 0:
        return {name: function(*args)
                for name, function, args in [chain, *stages]}
    # Imported here, not at module level, so a warm start never pays
    # for the process-pool machinery.
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    # The pool's result thread submits from the head, this thread takes
    # from the tail; the lock keeps each stage to one of them.
    lock = threading.Lock()
    waiting, pooled = deque(stages), []

    def submit_next(_finished=None):
        with lock:
            if not waiting:
                return
            # Popped once submitted: a failed submit leaves the stage
            # to the caller.
            name, function, args = waiting[0]
            future = pool.submit(perf.snapshot_call, function, *args)
            waiting.popleft()
            pooled.append((name, future))
        future.add_done_callback(submit_next)

    try:
        for _ in range(workers):
            submit_next()
        name, function, args = chain
        done = {name: function(*args)}
        while True:
            with lock:
                if not waiting:
                    break
                name, function, args = waiting.pop()
            done[name] = function(*args)
        for name, future in pooled:
            done[name], snapshot = future.result()
            perf.get_registry().merge(snapshot)
    except BaseException:
        with lock:
            waiting.clear()
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return done


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

def _gate_to_dict(gate):
    return {
        "name": gate.name,
        "d0": gate.d0,
        "drive_resistance": gate.drive_resistance,
        "e0": gate.e0,
        "v_supply": gate.v_supply,
        "c_input": gate.c_input,
    }


def _gate_from_dict(data):
    return GateCharacterization(**data)


def _gates_to_dict(inv, nands):
    return {
        "inv": _gate_to_dict(inv),
        "nands": {str(k): _gate_to_dict(v) for k, v in nands.items()},
    }


def _gates_from_dict(data):
    """``(inverter, {fan_in: nand})`` from a gates (or array) entry."""
    inv = _gate_from_dict(data["inv"])
    nands = {int(k): _gate_from_dict(v) for k, v in data["nands"].items()}
    return inv, nands


def _lut1d_to_dict(lut):
    return {"xs": list(lut.xs), "ys": list(lut.ys), "name": lut.name}


def _lut1d_from_dict(data):
    return LUT1D(data["xs"], data["ys"], name=data["name"])


def _to_dict(char):
    return {
        "flavor": char.flavor,
        "vdd": char.vdd,
        "delta_v_sense": char.delta_v_sense,
        "i_on_pfet": char.i_on_pfet,
        "i_on_tg": char.i_on_tg,
        "i_wl": _lut1d_to_dict(char.i_wl),
        "i_cvdd": _lut1d_to_dict(char.i_cvdd),
        "i_cvss": _lut1d_to_dict(char.i_cvss),
        "i_read": {
            "xs": list(char.i_read.xs),
            "ys": list(char.i_read.ys),
            "zs": [list(row) for row in char.i_read.zs],
        },
        "p_leak_sram": char.p_leak_sram,
        **_gates_to_dict(char.decoder.inverter, char.decoder.nands),
        "sense": {
            "delay": char.sense.delay,
            "energy": char.sense.energy,
            "delta_v_sense": char.sense.delta_v_sense,
            "v_supply": char.sense.v_supply,
        },
        "d_write_sram": _lut1d_to_dict(char.d_write_sram),
        "e_write_sram": _lut1d_to_dict(char.e_write_sram),
        "write_delay_scale": char.write_delay_scale,
        "v_wl_flip": char.v_wl_flip,
        "v_wl_flip_vs_vbl": _lut1d_to_dict(char.v_wl_flip_vs_vbl),
        "d_write_negbl": _lut1d_to_dict(char.d_write_negbl),
        "e_write_negbl": _lut1d_to_dict(char.e_write_negbl),
    }


def _from_dict(data, library, grids):
    inv, nands = _gates_from_dict(data)
    driver = SuperbufferModel(unit_inverter=inv)
    decoder = build_decoder_model(inv, nands, driver.input_capacitance)
    return ArrayCharacterization(
        flavor=data["flavor"],
        vdd=data["vdd"],
        delta_v_sense=data["delta_v_sense"],
        geometry=ArrayGeometry(),
        caps=DeviceCaps.from_library(library),
        i_on_pfet=data["i_on_pfet"],
        i_on_tg=data["i_on_tg"],
        i_wl=_lut1d_from_dict(data["i_wl"]),
        i_cvdd=_lut1d_from_dict(data["i_cvdd"]),
        i_cvss=_lut1d_from_dict(data["i_cvss"]),
        i_read=LUT2D(
            data["i_read"]["xs"], data["i_read"]["ys"], data["i_read"]["zs"],
            name="i_read",
        ),
        p_leak_sram=data["p_leak_sram"],
        decoder=decoder,
        driver=driver,
        sense=SenseAmpCharacterization(**data["sense"]),
        d_write_sram=_lut1d_from_dict(data["d_write_sram"]),
        e_write_sram=_lut1d_from_dict(data["e_write_sram"]),
        write_delay_scale=data["write_delay_scale"],
        v_wl_flip=data["v_wl_flip"],
        v_wl_flip_vs_vbl=_lut1d_from_dict(data["v_wl_flip_vs_vbl"]),
        d_write_negbl=_lut1d_from_dict(data["d_write_negbl"]),
        e_write_negbl=_lut1d_from_dict(data["e_write_negbl"]),
    )
