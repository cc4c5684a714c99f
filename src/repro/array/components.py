"""Per-component delays and switching energies (paper Table 2).

Every interconnect-driven component follows Eq. (1)::

    D = C * DeltaV / I          E_sw = C * V * DeltaV

with the (C, V, DeltaV, I) assignments of Table 2, including the paper's
fitted average-current coefficients (0.30, 0.15, 0.25, 0.18, 0.33, 0.50)
and the fixed driver fin counts (20 for the CVDD/CVSS rail muxes, 27 for
the WL/COL driver last stage).

``n_pre`` / ``n_wr`` may be numpy arrays; everything broadcasts.  So may
``v_ssc``: the exhaustive search passes the whole feasible V_SSC
candidate axis with shape ``(S, 1, 1)`` alongside the fin axes, and
every V_SSC-dependent component (CVSS rail, BL read discharge) comes
back with the full ``(S, P, W)`` broadcast shape.  The rail voltages
``v_ddc`` / ``v_wl`` / ``v_bl`` are scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .capacitance import RAIL_DRIVER_FINS, WL_DRIVER_FINS, all_capacitances

#: Table-2 fitted average-current coefficients.
COEFF_CVDD = 0.30
COEFF_CVSS = 0.15
COEFF_WL_RD = 0.25
COEFF_WL_WR = 0.18
COEFF_COL = 0.33
COEFF_BL_WR = 0.50
COEFF_PRE = 0.50


@dataclass
class ComponentSet:
    """Delays [s] and switching energies [J] of every Table-2 component."""

    delays: dict = field(default_factory=dict)
    energies: dict = field(default_factory=dict)
    capacitances: dict = field(default_factory=dict)

    def delay(self, name):
        return self.delays[name]

    def energy(self, name):
        return self.energies[name]


def _neg_part(v):
    """``|min(v, 0)|`` for scalars or arrays, preserving the scalar
    arithmetic (and hence bit-exact results) on the scalar path."""
    if np.ndim(v) == 0:
        return abs(min(float(v), 0.0))
    return np.abs(np.minimum(v, 0.0))


def _safe_div(numerator, current):
    """C*dV / I with a guard: zero numerator yields zero delay even when
    the drive current is also zero (e.g. V_SSC = 0 disables the CVSS
    swing entirely).  The guard only costs the two ``np.where`` passes
    when a zero numerator is actually present; the plain quotient is
    elementwise identical otherwise."""
    numerator = np.asarray(numerator, dtype=float)
    current = np.asarray(current, dtype=float)
    zero = numerator == 0.0
    if not zero.any():
        out = numerator / current
    else:
        out = np.where(zero, 0.0, numerator / np.where(zero, 1.0, current))
    if out.ndim == 0:
        return float(out)
    return out


def _shared_precursors(char, config, n_pre, n_wr, v_ddc, v_ssc, v_wl,
                       v_bl):
    """The Table-2 inputs that do *not* depend on the organization:
    voltage swings, LUT-interpolated drive currents, and the fin-count
    current scalings.  The optimizer's row sweep evaluates many
    organizations of one set of rails and axes; hoisting these out of
    the per-organization pass changes no value (they are recomputed
    from identical inputs otherwise) but skips the repeated LUT
    interpolation and scalar derivation work."""
    vdd = char.vdd
    return {
        "dv_cvdd": max(float(v_ddc - vdd), 0.0),
        "i_cvdd": COEFF_CVDD * RAIL_DRIVER_FINS * char.i_cvdd(v_ddc),
        "dv_cvss": _neg_part(v_ssc),
        "i_cvss": COEFF_CVSS * RAIL_DRIVER_FINS * char.i_cvss(v_ssc),
        "i_wl_rd": COEFF_WL_RD * WL_DRIVER_FINS * char.i_on_pfet,
        "i_wl_wr": COEFF_WL_WR * WL_DRIVER_FINS * char.i_wl(v_wl),
        "i_col": COEFF_COL * WL_DRIVER_FINS * char.i_on_pfet,
        "i_read": char.i_read(v_ddc, v_ssc),
        "write_swing": vdd - min(float(v_bl), 0.0),
        "i_bl_wr": COEFF_BL_WR * n_wr * char.i_on_tg,
        "i_pre": COEFF_PRE * n_pre * char.i_on_pfet,
    }


def compute_components(char, org, config, n_pre, n_wr,
                       v_ddc, v_ssc, v_wl, v_bl=0.0, shared=None):
    """Evaluate Table 2 for one design point (``n_pre`` / ``n_wr`` /
    ``v_ssc`` may be broadcastable arrays).

    ``v_bl`` is the write-low bitline level: 0 in the paper's adopted
    scheme, negative under the negative-BL write assist (extension),
    which widens the write/precharge bitline swings to ``Vdd - v_bl``.

    ``shared`` is an optional mutable dict threaded through repeated
    calls that differ only in ``org``: the organization-independent
    precursors (:func:`_shared_precursors`) are computed on the first
    call and reused afterwards, bit-identically.
    """
    vdd = char.vdd
    dvs = config.delta_v_sense
    if shared is None or not shared:
        pre = _shared_precursors(
            char, config, n_pre, n_wr, v_ddc, v_ssc, v_wl, v_bl
        )
        if shared is not None:
            shared.update(pre)
    else:
        pre = shared
    caps = all_capacitances(char.geometry, char.caps, org, n_pre, n_wr)
    out = ComponentSet(capacitances=caps)
    d, e = out.delays, out.energies

    # Cell Vdd rail: swings Vdd -> V_DDC through the 20-fin PFET mux.
    dv_cvdd = pre["dv_cvdd"]
    d["CVDD"] = _safe_div(caps["CVDD"] * dv_cvdd, pre["i_cvdd"])
    e["CVDD"] = caps["CVDD"] * vdd * dv_cvdd

    # Cell Vss rail: swings 0 -> V_SSC through the 20-fin NFET mux.
    dv_cvss = pre["dv_cvss"]
    d["CVSS"] = _safe_div(caps["CVSS"] * dv_cvss, pre["i_cvss"])
    e["CVSS"] = caps["CVSS"] * vdd * dv_cvss

    # Wordline during read: full-Vdd swing from the 27-fin last stage.
    d["WL_rd"] = _safe_div(caps["WL"] * vdd, pre["i_wl_rd"])
    e["WL_rd"] = caps["WL"] * vdd * vdd

    # Wordline during write: overdriven to V_WL from the V_WL rail.
    d["WL_wr"] = _safe_div(caps["WL"] * v_wl, pre["i_wl_wr"])
    e["WL_wr"] = caps["WL"] * vdd * v_wl

    # Column-select line (zero without a column mux).
    d["COL"] = _safe_div(caps["COL"] * vdd, pre["i_col"])
    e["COL"] = caps["COL"] * vdd * vdd

    # Bitline during read: discharged by DeltaV_S at the cell's read
    # current; Table 2 books its energy against the boosted cell rails.
    # The C*DeltaV_S product is shared between the discharge delay, its
    # energy, and the read-precharge delay, and it carries only the
    # organization/fin axes — computing it once keeps the V_SSC axis
    # out of all but the final quotient/product.
    bl_sense_charge = caps["BL"] * dvs
    d["BL_rd"] = _safe_div(bl_sense_charge, pre["i_read"])
    e["BL_rd"] = bl_sense_charge * (v_ddc - v_ssc)

    # Bitline during write: the write buffer swings the BL from its
    # precharged Vdd down to v_bl (0, or negative under the assist).
    write_swing = pre["write_swing"]
    d["BL_wr"] = _safe_div(caps["BL"] * write_swing, pre["i_bl_wr"])
    e["BL_wr"] = caps["BL"] * vdd * write_swing

    # Precharge: restore DeltaV_S after a read, the full write swing
    # after a write.
    i_pre = pre["i_pre"]
    d["PRE_rd"] = _safe_div(bl_sense_charge, i_pre)
    e["PRE_rd"] = caps["BL"] * vdd * dvs
    d["PRE_wr"] = _safe_div(caps["BL"] * write_swing, i_pre)
    e["PRE_wr"] = caps["BL"] * vdd * write_swing

    return out
