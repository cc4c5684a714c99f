"""Write margin (WM) of the 6T cell.

Following the paper (after [Lu et al. 2010]), the WM is derived from the
minimum wordline voltage that flips the cell under write bitline
conditions.  Generalized to wordline-overdrive operation::

    WM = V_WL(applied) - V_WL(flip)

which reduces to the paper's ``Vdd - V_WL(flip)`` when the wordline is
driven at nominal Vdd, makes WLOD raise the WM (paper Fig. 5(a)), and
makes the negative-BL assist raise it too (a lower flip voltage,
Fig. 5(b)).

The flip voltage is located by bisection on a *bistability oracle*: for
a candidate WL level the cell state is relaxed from the Q=1 corner by
damped fixed-point iteration of the half-circuit maps; the cell has
flipped when it settles with Q below QB.  The relaxation map's stable
fixed points are exactly the cell's stable DC states, so the oracle is
monotone in the WL voltage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CharacterizationError
from .bias import CellBias

_DAMPING = 0.5
_TOL = 1e-7
#: The damped fixed point converges slowly right at the flip bifurcation
#: (a near-unit contraction rate); Monte Carlo samples probing WL levels
#: there can need >500 iterations, so the cap carries generous headroom.
#: Converged relaxations break (scalar) or freeze (batched) early, so
#: the cap only affects runs that would otherwise raise.
_MAX_ITER = 4000

#: Bisection resolution for the flip voltage [V].
FLIP_RESOLUTION = 0.0005


def settle_from_one(cell, bias):
    """Relax the cell from the Q=1 corner; returns ``(v_q, v_qb)``."""
    from .snm import half_circuit_output

    v_q = bias.v_ddc
    v_qb = bias.v_ssc
    for _ in range(_MAX_ITER):
        v_q_new = half_circuit_output(cell, "l", v_qb, bias, access_on=True)
        v_qb_new = half_circuit_output(cell, "r", v_q_new, bias,
                                       access_on=True)
        v_q_next = (1.0 - _DAMPING) * v_q + _DAMPING * v_q_new
        v_qb_next = (1.0 - _DAMPING) * v_qb + _DAMPING * v_qb_new
        moved = max(abs(v_q_next - v_q), abs(v_qb_next - v_qb))
        v_q, v_qb = v_q_next, v_qb_next
        if moved < _TOL:
            break
    else:
        raise CharacterizationError(
            "write settle iteration did not converge (last move %.3g V)"
            % moved, bias=bias,
        )
    return v_q, v_qb


def cell_flips(cell, bias):
    """True when the write bias flips a cell that held Q = 1."""
    v_q, v_qb = settle_from_one(cell, bias)
    return v_q < v_qb


def settle_from_one_batch(cell, bias, lanes):
    """Batched :func:`settle_from_one`: relax every lane at once.

    A *lane* is one independent relaxation — a Monte Carlo sample of a
    batched cell, a candidate wordline level carried as an array-valued
    ``bias.v_wl``, or both.  ``lanes`` is the lane count; states are
    ``(lanes, 1)`` columns so batched device parameters broadcast
    elementwise.

    Bit-identity with the scalar loop: a lane that converges is updated
    one last time and then *frozen*, mirroring the scalar loop's
    update-then-break ordering; iterations past a lane's convergence
    cannot touch it.
    """
    from .snm import HalfCircuit

    v_q = np.full((lanes, 1), float(np.max(bias.v_ddc)))
    v_qb = np.full((lanes, 1), float(np.max(bias.v_ssc)))
    if np.ndim(bias.v_ddc) != 0 or np.ndim(bias.v_ssc) != 0:
        # Per-lane rails: start each lane from its own corner.
        v_q = np.broadcast_to(
            np.asarray(bias.v_ddc, dtype=float), (lanes, 1)
        ).copy()
        v_qb = np.broadcast_to(
            np.asarray(bias.v_ssc, dtype=float), (lanes, 1)
        ).copy()
    active = np.ones((lanes, 1), dtype=bool)
    moved = None
    left = HalfCircuit(cell, "l", bias, access_on=True)
    right = HalfCircuit(cell, "r", bias, access_on=True)
    for _ in range(_MAX_ITER):
        v_q_new = left.solve(v_qb)
        v_qb_new = right.solve(v_q_new)
        v_q_next = (1.0 - _DAMPING) * v_q + _DAMPING * v_q_new
        v_qb_next = (1.0 - _DAMPING) * v_qb + _DAMPING * v_qb_new
        moved = np.maximum(np.abs(v_q_next - v_q), np.abs(v_qb_next - v_qb))
        v_q = np.where(active, v_q_next, v_q)
        v_qb = np.where(active, v_qb_next, v_qb)
        active &= ~(moved < _TOL)
        if not active.any():
            break
    else:
        raise CharacterizationError(
            "write settle iteration did not converge on %d of %d lanes "
            "(worst last move %.3g V)"
            % (int(active.sum()), lanes, float(np.max(moved[active]))),
            bias=bias,
        )
    return v_q, v_qb


def cell_flips_batch(cell, bias, lanes):
    """Batched :func:`cell_flips`: an ``(lanes, 1)`` boolean column."""
    v_q, v_qb = settle_from_one_batch(cell, bias, lanes)
    return v_q < v_qb


def flip_wordline_voltage(cell, vdd=None, v_bl_low=0.0, v_wl_max=None,
                          resolution=FLIP_RESOLUTION):
    """Minimum WL voltage [V] that flips the cell during a write.

    ``v_bl_low`` is the level of the '0'-driven bitline (negative under
    the negative-BL assist).  Raises when even ``v_wl_max`` cannot flip
    the cell (an unwritable corner).
    """
    vdd = CellBias().vdd if vdd is None else vdd
    if v_wl_max is None:
        v_wl_max = 1.8 * vdd

    def bias_at(v_wl):
        return CellBias.write(vdd=vdd, v_wl=v_wl, v_bl_low=v_bl_low)

    lo, hi = 0.0, float(v_wl_max)
    if not cell_flips(cell, bias_at(hi)):
        raise CharacterizationError(
            "cell does not flip even at WL = %.3f V (unwritable)" % hi,
            bias=bias_at(hi), bracket=(lo, hi),
        )
    if cell_flips(cell, bias_at(lo + 1e-6)):
        return lo
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if cell_flips(cell, bias_at(mid)):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def flip_wordline_voltage_batch(cell, lanes, vdd=None, v_bl_low=0.0,
                                v_wl_max=None, resolution=FLIP_RESOLUTION):
    """Batched :func:`flip_wordline_voltage`: all lanes bisect at once.

    The candidate wordline level rides through the bistability oracle as
    an array-valued ``bias.v_wl`` column, so one
    :func:`settle_from_one_batch` call advances every lane's bisection by
    one step.  ``v_bl_low`` may itself be a per-lane column (the
    negative-BL characterization sweep batches over bitline levels with
    a scalar cell).

    Per-lane ``lo``/``hi`` brackets march independently: IEEE midpoint
    halving does not keep spans exactly equal across lanes, so each lane
    runs its own ``hi - lo > resolution`` test and freezes when done —
    every lane reproduces the scalar bisection bitwise.

    Returns an ``(lanes,)`` array of flip voltages.
    """
    vdd = CellBias().vdd if vdd is None else vdd
    if v_wl_max is None:
        v_wl_max = 1.8 * vdd

    def bias_at(v_wl):
        return CellBias.write(vdd=vdd, v_wl=v_wl, v_bl_low=v_bl_low)

    hi = np.full((lanes, 1), float(v_wl_max))
    lo = np.zeros((lanes, 1))
    flips_hi = cell_flips_batch(cell, bias_at(hi), lanes)
    if not flips_hi.all():
        raise CharacterizationError(
            "%d of %d lanes do not flip even at WL = %.3f V (unwritable)"
            % (int((~flips_hi).sum()), lanes, float(v_wl_max)),
            bias=bias_at(hi), bracket=(0.0, float(v_wl_max)),
        )
    # Scalar path: a cell that already flips just above WL = 0 returns 0.
    at_floor = cell_flips_batch(cell, bias_at(np.full((lanes, 1), 1e-6)),
                                lanes)
    running = ~at_floor & (hi - lo > resolution)
    while running.any():
        mid = 0.5 * (lo + hi)
        # Finished lanes are probed at their (known-convergent) hi level
        # so the shared settle call cannot diverge on a stale midpoint;
        # their brackets are frozen by the running mask regardless.
        probe = np.where(running, mid, hi)
        flips = cell_flips_batch(cell, bias_at(probe), lanes)
        hi = np.where(running & flips, mid, hi)
        lo = np.where(running & ~flips, mid, lo)
        running = running & (hi - lo > resolution)
    result = np.where(at_floor, 0.0, 0.5 * (lo + hi))
    return result[:, 0]


def write_margin_batch(cell, lanes, v_wl_applied=None, vdd=None,
                       v_bl_low=0.0, resolution=FLIP_RESOLUTION):
    """Batched :func:`write_margin`: an ``(lanes,)`` margin array."""
    vdd = CellBias().vdd if vdd is None else vdd
    v_wl_applied = vdd if v_wl_applied is None else v_wl_applied
    v_flip = flip_wordline_voltage_batch(
        cell, lanes, vdd=vdd, v_bl_low=v_bl_low,
        v_wl_max=max(1.8 * vdd, v_wl_applied),
        resolution=resolution,
    )
    return v_wl_applied - v_flip


@dataclass(frozen=True)
class WriteMarginResult:
    """Write margin and its underlying flip voltage."""

    v_wl_applied: float
    v_wl_flip: float

    @property
    def wm(self):
        """Write margin [V]."""
        return self.v_wl_applied - self.v_wl_flip


def write_margin(cell, v_wl_applied=None, vdd=None, v_bl_low=0.0,
                 resolution=FLIP_RESOLUTION):
    """Write margin [V] at the applied WL level (default: nominal Vdd).

    A non-positive margin means the cell cannot be written at that WL
    level.
    """
    vdd = CellBias().vdd if vdd is None else vdd
    v_wl_applied = vdd if v_wl_applied is None else v_wl_applied
    v_flip = flip_wordline_voltage(
        cell, vdd=vdd, v_bl_low=v_bl_low,
        v_wl_max=max(1.8 * vdd, v_wl_applied),
        resolution=resolution,
    )
    return WriteMarginResult(v_wl_applied=v_wl_applied, v_wl_flip=v_flip).wm


def bitline_write_margin(cell, v_wl=None, vdd=None,
                         resolution=FLIP_RESOLUTION):
    """The complementary, bitline-referred write margin [V].

    Instead of asking how low the wordline may go (the paper's WL-sweep
    WM), this asks how far the write-low bitline may *rise* above 0
    before the write fails — a measure of tolerance to write-driver
    non-ideality and BL residual charge.  Found by bisection on the
    critical BL level (the write succeeds below it, fails above).

    Returns 0 when the cell cannot be written even with a perfect
    (0 V) bitline at the applied wordline.
    """
    vdd = CellBias().vdd if vdd is None else vdd
    v_wl = vdd if v_wl is None else v_wl

    def flips_at(v_bl):
        return cell_flips(
            cell, CellBias.write(vdd=vdd, v_wl=v_wl, v_bl_low=v_bl)
        )

    if not flips_at(0.0):
        return 0.0
    lo, hi = 0.0, vdd
    if flips_at(hi):
        return hi
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if flips_at(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
