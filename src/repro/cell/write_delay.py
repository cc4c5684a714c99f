"""Cell-level write delay and write energy (transient analysis).

The paper defines the cell write delay as the time from the wordline
reaching 50% of Vdd until Q and QB reach the same value (the internal
flip crossover).  It notes this delay is far smaller than the WL and BL
delays — our reproduction confirms the same hierarchy — but it still
enters the write-access delay equation (Table 3), as a function of the
wordline (overdrive) level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CharacterizationError
from ..spice.batch import transient_batch
from ..spice.stimuli import step
from ..spice.transient import transient
from ..spice.waveform import Waveform
from .bias import CellBias

#: Wordline stimulus timing.
_T_START = 0.2e-12
_T_RISE = 0.05e-12

#: Base integration step and run length.  The flip is a ratioed fight
#: between the access device and the still-on pull-up, so writes near
#: the writability edge take many picoseconds; the default window covers
#: the full Fig.-5 wordline sweep range.
_DT = 1e-14
_T_STOP = 40e-12


@dataclass(frozen=True)
class WriteEvent:
    """Measured cell write transient."""

    #: Time from WL at 50% Vdd to the Q/QB crossover [s].
    delay: float
    #: Energy delivered by all sources during the event [J].
    energy: float
    #: True when Q and QB actually crossed within the run.
    completed: bool


def cell_write_event(cell, v_wl=None, vdd=None, v_bl_low=0.0,
                     t_stop=_T_STOP, dt=_DT):
    """Simulate a write of 0 into a cell holding Q = 1.

    The wordline steps from 0 to ``v_wl``; the Q-side bitline is already
    driven to ``v_bl_low`` (write data applied before WL assertion, as in
    the paper's write sequence).  Returns a :class:`WriteEvent`.
    """
    vdd = CellBias().vdd if vdd is None else vdd
    v_wl = vdd if v_wl is None else v_wl
    bias = CellBias.write(vdd=vdd, v_wl=v_wl, v_bl_low=v_bl_low)
    c_node = cell.internal_node_capacitance()
    circuit = cell.build_circuit(
        bias,
        wl_value=step(_T_START, 0.0, v_wl, _T_RISE),
        node_caps={"q": c_node, "qb": c_node},
    )
    result = transient(
        circuit, t_stop, dt,
        initial_guess={"q": vdd, "qb": 0.0},
        # End shortly after the internal crossover completes; the write
        # delay measurement only needs the Q/QB crossing.
        stop_condition=lambda _t, v: v["q"] < v["qb"] - 0.2 * vdd,
        stop_margin=5,
    )
    return _measure_write_event(result, bias)


def _measure_write_event(result, bias):
    """Extract a :class:`WriteEvent` from one write transient run under
    the scalar write ``bias``."""
    t_wl = result.node("wl").cross(0.5 * bias.vdd, "rise")
    diff = Waveform(
        result.times,
        np.asarray(result.node("q").values)
        - np.asarray(result.node("qb").values),
        "q_minus_qb",
    )
    energy = sum(
        result.delivered_energy(name)
        for name in ("vddc", "vssc", "vwl", "vbl", "vblb")
    )
    if not diff.crosses(0.0, "fall"):
        return WriteEvent(delay=float("inf"), energy=energy, completed=False)
    t_flip = diff.cross(0.0, "fall")
    if t_flip <= t_wl:
        raise CharacterizationError(
            "cell flipped before the wordline asserted; the write bias "
            "alone is destabilizing (V_WL=%.3f V, V_BL=%.3f V)"
            % (bias.v_wl, bias.v_bl),
            bias=bias,
        )
    return WriteEvent(delay=t_flip - t_wl, energy=energy, completed=True)


def cell_write_event_batch(cell, v_wl, vdd=None, v_bl_low=0.0,
                           t_stop=_T_STOP, dt=_DT):
    """Batched :func:`cell_write_event`: one transient for many lanes.

    ``v_wl`` and/or ``v_bl_low`` may be ``(lanes,)`` arrays — each lane
    is one write condition of a *scalar* cell (the characterization
    WL/negative-BL sweeps), integrated simultaneously over the shared
    time grid by :func:`repro.spice.batch.transient_batch`.  Per-lane
    waveforms, and hence delays and energies, are bitwise equal to
    per-point :func:`cell_write_event` calls.

    Returns a list of :class:`WriteEvent` in lane order.
    """
    vdd = CellBias().vdd if vdd is None else vdd
    v_wl = np.asarray(vdd if v_wl is None else v_wl, dtype=float)
    lanes = int(
        np.broadcast_shapes(np.shape(v_wl), np.shape(v_bl_low), (1,))[0]
    )
    bias = CellBias.write(vdd=vdd, v_wl=v_wl, v_bl_low=v_bl_low)
    c_node = cell.internal_node_capacitance()
    circuit = cell.build_circuit(
        bias,
        wl_value=step(_T_START, 0.0, v_wl, _T_RISE),
        node_caps={"q": c_node, "qb": c_node},
    )
    results = transient_batch(
        circuit, lanes, t_stop, dt,
        initial_guess={"q": vdd, "qb": 0.0},
        stop_condition=lambda _t, v: v["q"] < v["qb"] - 0.2 * vdd,
        stop_margin=5,
    )
    lane_v_wl = np.broadcast_to(v_wl.reshape(-1), (lanes,))
    lane_v_bl = np.broadcast_to(np.reshape(v_bl_low, -1), (lanes,))
    return [
        _measure_write_event(result, CellBias.write(
            vdd=vdd, v_wl=float(lane_v_wl[k]),
            v_bl_low=float(lane_v_bl[k])))
        for k, result in enumerate(results)
    ]


def write_delay_vs_wordline(cell, v_wl_values, vdd=None, v_bl_low=0.0):
    """Write delay [s] for each WL level (paper Fig. 5 x-axis sweeps).

    Levels that fail to write map to ``inf``.  Every level is integrated
    in one lane-batched transient, bitwise equal to per-level
    :func:`cell_write_event` calls.
    """
    v_wl = np.asarray([float(v) for v in v_wl_values])
    events = cell_write_event_batch(cell, v_wl, vdd=vdd, v_bl_low=v_bl_low)
    return [event.delay for event in events]
