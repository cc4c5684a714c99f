"""Assist-technique studies: the Figure-3 / Figure-5 sweeps and the
minimum assist levels the optimizer's voltage policies use.

Bitline delays in the read studies follow the paper's Figure-3 setup:
a 64-cell column, ``D_BL = C_BL * DeltaV_S / I_read`` with the Table-1
bitline capacitance at unit precharger/write-buffer sizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..array.capacitance import DeviceCaps, c_bl
from ..array.geometry import ArrayGeometry
from ..array.organization import ArrayOrganization
from ..cell.bias import CellBias
from ..cell.read_current import read_state
from ..cell.snm import butterfly
from ..cell.write import flip_wordline_voltage
from ..cell.write_delay import cell_write_event
from ..errors import CharacterizationError

#: Figure-3 column depth.
STUDY_ROWS = 64

#: Grid resolution for minimum assist levels [V] (the paper reports
#: multiples of 10 mV).
LEVEL_RESOLUTION = 0.010


def study_bitline_capacitance(library, n_rows=STUDY_ROWS):
    """Bitline capacitance of the Figure-3 study column [F]."""
    geometry = ArrayGeometry()
    caps = DeviceCaps.from_library(library)
    org = ArrayOrganization(n_r=n_rows, n_c=64)
    return c_bl(geometry, caps, org, n_pre=1, n_wr=1)


def bitline_delay(library, cell, v_ddc, v_ssc, v_wl=None,
                  delta_v_sense=0.120, n_rows=STUDY_ROWS):
    """Read BL delay [s] for the study column under the given assists.

    Returns ``inf`` when the cell flips in DC (no valid read).
    """
    bias = CellBias.read(vdd=library.vdd, v_ddc=v_ddc, v_ssc=v_ssc)
    if v_wl is not None:
        bias = bias.with_wordline(v_wl)
    state = read_state(cell, bias=bias)
    if state.flipped or state.i_read <= 0:
        return float("inf")
    c_bitline = study_bitline_capacitance(library, n_rows)
    return c_bitline * delta_v_sense / state.i_read


@dataclass
class ReadAssistRow:
    """One sweep point of a read-assist study."""

    level: float
    rsnm: float
    bl_delay: float


@dataclass
class WriteAssistRow:
    """One sweep point of a write-assist study."""

    level: float
    wm: float
    write_delay: float


def sweep_vdd_boost(library, cell, levels, v_ssc=0.0):
    """Figure 3(b): RSNM and BL delay vs V_DDC."""
    rows = []
    for v_ddc in levels:
        bias = CellBias.read(vdd=library.vdd, v_ddc=float(v_ddc),
                             v_ssc=v_ssc)
        rsnm = butterfly(cell, bias, access_on=True).snm
        delay = bitline_delay(library, cell, float(v_ddc), v_ssc)
        rows.append(ReadAssistRow(float(v_ddc), rsnm, delay))
    return rows


def sweep_negative_gnd(library, cell, levels, v_ddc=None):
    """Figure 3(c): RSNM and BL delay vs V_SSC."""
    v_ddc = library.vdd if v_ddc is None else v_ddc
    rows = []
    for v_ssc in levels:
        bias = CellBias.read(vdd=library.vdd, v_ddc=v_ddc,
                             v_ssc=float(v_ssc))
        rsnm = butterfly(cell, bias, access_on=True).snm
        delay = bitline_delay(library, cell, v_ddc, float(v_ssc))
        rows.append(ReadAssistRow(float(v_ssc), rsnm, delay))
    return rows


def sweep_wl_underdrive(library, cell, levels):
    """Figure 3(d): RSNM and BL delay vs V_WL (read)."""
    rows = []
    for v_wl in levels:
        bias = CellBias.read(vdd=library.vdd).with_wordline(float(v_wl))
        rsnm = butterfly(cell, bias, access_on=True).snm
        delay = bitline_delay(library, cell, library.vdd, 0.0,
                              v_wl=float(v_wl))
        rows.append(ReadAssistRow(float(v_wl), rsnm, delay))
    return rows


def sweep_wl_overdrive(library, cell, levels, write_delay_scale=1.0):
    """Figure 5(a): WM and cell write delay vs V_WL (write)."""
    vdd = library.vdd
    v_flip = flip_wordline_voltage(cell, vdd=vdd)
    rows = []
    for v_wl in levels:
        wm = float(v_wl) - v_flip
        if wm <= 0.005:
            delay = float("inf")
        else:
            event = cell_write_event(cell, v_wl=float(v_wl), vdd=vdd)
            delay = event.delay * write_delay_scale
        rows.append(WriteAssistRow(float(v_wl), wm, delay))
    return rows


def sweep_negative_bl(library, cell, levels, write_delay_scale=1.0):
    """Figure 5(b): WM and cell write delay vs V_BL (write, WL at Vdd)."""
    vdd = library.vdd
    rows = []
    for v_bl in levels:
        v_flip = flip_wordline_voltage(cell, vdd=vdd, v_bl_low=float(v_bl))
        wm = vdd - v_flip
        if wm <= 0.005:
            delay = float("inf")
        else:
            event = cell_write_event(cell, v_wl=vdd, vdd=vdd,
                                     v_bl_low=float(v_bl))
            delay = event.delay * write_delay_scale
        rows.append(WriteAssistRow(float(v_bl), wm, delay))
    return rows


# ---------------------------------------------------------------------------
# Minimum assist levels (the optimizer's V_DDC / V_WL presets)
# ---------------------------------------------------------------------------

def _scan_failed(message, levels, bias=None):
    """The typed error of a level scan that found no level: ``bracket``
    is the scanned interval ``(lo, hi)`` [V], ``bias`` the last
    :class:`CellBias` the scan solved under (None where it builds none).
    """
    bracket = ((float(np.min(levels)), float(np.max(levels)))
               if len(levels) else None)
    return CharacterizationError(message, bias=bias, bracket=bracket)


def minimum_vdd_boost(library, cell, delta, v_max=0.72,
                      resolution=LEVEL_RESOLUTION):
    """Smallest V_DDC (on the 10 mV grid) with RSNM >= delta.

    RSNM is monotonically increasing in V_DDC (the boost strengthens the
    pull-down), so a linear grid scan from the nominal supply up is
    exact at the grid resolution.
    """
    vdd = library.vdd
    levels = np.arange(vdd, v_max + 1e-9, resolution)
    bias = None
    for v_ddc in levels:
        bias = CellBias.read(vdd=vdd, v_ddc=float(v_ddc))
        if butterfly(cell, bias, access_on=True).snm >= delta:
            return float(round(v_ddc / resolution) * resolution)
    raise _scan_failed(
        "RSNM does not reach %.0f mV below V_DDC = %.0f mV"
        % (delta * 1e3, v_max * 1e3), levels, bias)


def minimum_wl_overdrive(library, cell, delta,
                         resolution=LEVEL_RESOLUTION):
    """Smallest V_WL (on the 10 mV grid) with WM >= delta.

    Since WM = V_WL - V_flip, this is V_flip + delta rounded up.
    """
    v_flip = flip_wordline_voltage(cell, vdd=library.vdd)
    return math.ceil((v_flip + delta) / resolution) * resolution


def maximum_wl_underdrive(library, cell, delta,
                          resolution=LEVEL_RESOLUTION):
    """Largest read V_WL (on the 10 mV grid) with RSNM >= delta.

    RSNM falls as the read wordline rises, so scan downward from Vdd.
    """
    vdd = library.vdd
    levels = np.arange(vdd, 0.1, -resolution)
    bias = None
    for v_wl in levels:
        bias = CellBias.read(vdd=vdd).with_wordline(float(v_wl))
        if butterfly(cell, bias, access_on=True).snm >= delta:
            return float(round(v_wl / resolution) * resolution)
    raise _scan_failed(
        "RSNM does not reach %.0f mV even at V_WL = %.0f mV"
        % (delta * 1e3, levels[-1] * 1e3), levels, bias)


def minimum_negative_bl(library, cell, delta,
                        resolution=LEVEL_RESOLUTION):
    """Least-negative V_BL (10 mV grid) with WM >= delta at V_WL = Vdd."""
    vdd = library.vdd
    levels = np.arange(0.0, -0.30 - 1e-9, -resolution)
    for v_bl in levels:
        v_flip = flip_wordline_voltage(cell, vdd=vdd, v_bl_low=float(v_bl))
        if vdd - v_flip >= delta:
            return float(round(v_bl / resolution) * resolution)
    raise _scan_failed(
        "WM does not reach %.0f mV even at V_BL = -300 mV" % (delta * 1e3,),
        levels)


def matching_negative_gnd(library, hvt_cell, lvt_cell, v_ddc=None,
                          resolution=LEVEL_RESOLUTION):
    """V_SSC at which the assisted HVT BL delay matches the no-assist
    LVT BL delay (the paper's Fig. 3(c) cross point, -100 mV)."""
    vdd = library.vdd
    v_ddc = vdd if v_ddc is None else v_ddc
    target = bitline_delay(library, lvt_cell, vdd, 0.0)
    levels = np.arange(0.0, -0.30 - 1e-9, -resolution)
    for v_ssc in levels:
        if bitline_delay(library, hvt_cell, v_ddc, float(v_ssc)) <= target:
            return float(round(v_ssc / resolution) * resolution)
    raise _scan_failed(
        "HVT BL delay never reaches the LVT target %.3g s" % target, levels)
