"""Admissible per-(n_r, V_SSC) lower bounds for the search's row gate.

The search partitions the design space into *tiles*: one
``(N_pre x N_wr)`` fin grid per ``(n_r, V_SSC)`` pair.  For each tile
this module derives lower bounds on ``d_array``, ``e_total``, and
``edp`` that hold for *every* fin assignment inside the tile, using the
component equations' monotonicity in the fin counts (see
``docs/MODELING.md`` §6 for the per-equation proof sketch):

* every Table-1 capacitance is nondecreasing in ``N_pre`` / ``N_wr``
  (the ``(N_pre + 1) C_dp`` precharge and ``N_wr (C_dn + C_dp)``
  write-buffer loads only ever add fins);
* the only fin-dependent Table-2 drive currents — ``i_pre`` and
  ``i_bl_wr`` — are linear *increasing* in their fin count;
* so evaluating with capacitances at the fin minima and those two
  currents at the fin maxima lower-bounds every component delay
  ``C dV / I`` and energy ``C V dV`` elementwise, and the monotone
  compositions (sums, maxes, the leakage term
  ``capacity_bits * p_leak * d_array``, and ``edp = e_total * d_array``)
  preserve the bound.

The mixed-corner evaluation reuses the production arithmetic verbatim:
:meth:`SRAMArrayModel.evaluate_bounds` computes the shared Table-2
precursors at the fin maxima and runs the ordinary core evaluation on a
fin-minima design.  One broadcast call bounds every tile of a search at
once.  The bound tensor has one element per tile (at most a few
hundred), but the call is not free: its two small evaluations pay the
model's per-call overhead, which dominates at this size.  Over the 11
capacities 64 B-64 KB (LVT/HVT x M1/M2, EDP and Pareto searches) on a
2-vCPU x86-64 VM with numpy 2.4.6, one bound call took 0.54-0.64 ms
on average against 0.97 ms for one row's ``evaluate`` (880 and 1,540
calls), so the bounds pay off once they skip one row per search.

A bound is *admissible* (never exceeds the true tile minimum), so
skipping a row whose every tile bound strictly exceeds the incumbent
EDP can never discard the optimum — the search stays bit-identical to
the exhaustive reference — and skipping a row whose every tile bound
point a scored design strictly dominates can never change the Pareto
front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..array.model import DesignPoint


@dataclass(frozen=True)
class TileBounds:
    """Lower bounds for every (n_r, V_SSC) tile of one search.

    Arrays are shaped ``(R, S)`` — row counts major, feasible V_SSC
    candidates minor — matching the reference's r-major/s-minor visit
    order when flattened in C order.
    """

    rows: np.ndarray      #: (R,) row counts, ascending
    v_ssc: np.ndarray     #: (S,) feasible V_SSC candidates, in order
    d_array: np.ndarray   #: (R, S) lower bounds on the access delay [s]
    e_total: np.ndarray   #: (R, S) lower bounds on the access energy [J]
    edp: np.ndarray       #: (R, S) lower bounds on the EDP [Js]

    @property
    def n_tiles(self):
        return int(self.edp.size)


def tile_lower_bounds(model, space, capacity_bits, policy, feasible_v_ssc):
    """Bound every ``(n_r, V_SSC)`` tile of one policy's search.

    ``feasible_v_ssc`` is the constraint-filtered candidate array (the
    optimizer's ``_feasible_v_ssc``); it must be non-empty.  One
    broadcast :meth:`SRAMArrayModel.evaluate_bounds` call covers the
    whole ``(R, S)`` tile grid.
    """
    rows = np.asarray(space.row_counts(capacity_bits), dtype=np.int64)
    feasible = np.asarray(feasible_v_ssc, dtype=float)
    n_pre = np.asarray(space.n_pre_values)
    n_wr = np.asarray(space.n_wr_values)
    design = DesignPoint(
        n_r=rows.reshape(-1, 1),
        n_c=(capacity_bits // rows).reshape(-1, 1),
        n_pre=int(n_pre[0]), n_wr=int(n_wr[0]),
        v_ddc=policy.v_ddc, v_ssc=feasible.reshape(1, -1),
        v_wl=policy.v_wl, v_bl=policy.v_bl,
    )
    metrics = model.evaluate_bounds(
        capacity_bits, design,
        n_pre_hi=int(n_pre[-1]), n_wr_hi=int(n_wr[-1]),
    )
    shape = (rows.size, feasible.size)
    return TileBounds(
        rows=rows,
        v_ssc=feasible,
        d_array=np.ascontiguousarray(
            np.broadcast_to(metrics.d_array, shape)),
        e_total=np.ascontiguousarray(
            np.broadcast_to(metrics.e_total, shape)),
        edp=np.ascontiguousarray(np.broadcast_to(metrics.edp, shape)),
    )
