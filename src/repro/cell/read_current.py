"""Read current of the 6T cell and the paper's power-law fit.

During a read, the bitline discharges through the access + pull-down
series stack of the '0'-storing side.  The DC read state (internal node
disturb voltage) is found by damped fixed-point iteration of the two
half-circuit maps; the read current is then the access-transistor
current at that state.

The paper models this current analytically as::

    I_read = b * (V_DDC - V_SSC - Vt)**a

with a = 1.3, b = 9.5e-5 A/V^1.3, Vt = 335 mV for its HVT devices; the
calibration benchmark re-fits this law to our measured currents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CharacterizationError
from .bias import CellBias
from .snm import half_circuit_output

#: Fixed-point damping and convergence controls.  Next to the read
#: collapse the contraction rate nears one (HVT at V_DDC 0.45 V, read
#: V_WL 0.7 V needs several hundred iterations), so the cap is the
#: write settle's.  Converged states break (scalar) or freeze (batched)
#: early, so the cap only affects runs that would otherwise raise.
_DAMPING = 0.5
_TOL = 1e-7
_MAX_ITER = 4000

#: A converged read state whose nodes sit closer than this [V] is the
#: cell's midpoint equilibrium: the read disturb left the cell a single
#: stable state, so no stored value survives and the read counts as
#: flipped.  The fixed point stops within microvolts of a true midpoint;
#: every read state on the characterization grid keeps v_qb - v_q above
#: 0.35 V.
COLLAPSE_TOL = 0.01


@dataclass(frozen=True)
class ReadState:
    """DC state of the cell during a read access."""

    v_q: float
    v_qb: float
    flipped: bool
    i_read: float


def read_state(cell, bias=None, vdd=None, v_ddc=None, v_ssc=0.0):
    """Solve the DC read state of a cell storing Q = 0.

    Returns a :class:`ReadState`; ``flipped`` is True when the read
    disturb destroyed the stored value (the '0' node rose past the '1'
    node, or both collapsed within :data:`COLLAPSE_TOL` of each other),
    in which case ``i_read`` is not meaningful.
    """
    bias = _read_bias(bias, vdd, v_ddc, v_ssc)
    # Damped fixed-point iteration from the Q=0 corner.
    v_q = bias.v_ssc
    v_qb = bias.v_ddc
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
            "read-state fixed point did not converge (last move %.3g V)"
            % moved, bias=bias,
        )
    flipped = v_qb - v_q < COLLAPSE_TOL
    ax = cell.device("ax_l")
    # Access device wired (gate=WL, drain=BL, source=Q); its drain
    # current is the bitline discharge current.
    i_read = ax.current(bias.v_wl, bias.v_bl, v_q)
    return ReadState(v_q=v_q, v_qb=v_qb, flipped=flipped, i_read=i_read)


def _read_bias(bias, vdd, v_ddc, v_ssc):
    if bias is not None:
        return bias
    return CellBias.read(
        vdd=vdd if vdd is not None else CellBias().vdd,
        v_ddc=v_ddc,
        v_ssc=v_ssc,
    )


def read_current(cell, bias=None, vdd=None, v_ddc=None, v_ssc=0.0):
    """Read current [A] under the given (possibly assisted) bias.

    Raises :class:`CharacterizationError` when the cell flips in DC —
    callers sweeping into unstable regions should catch it or check
    :func:`read_state` instead.
    """
    bias = _read_bias(bias, vdd, v_ddc, v_ssc)
    state = read_state(cell, bias=bias)
    if state.flipped:
        raise CharacterizationError(
            "cell flipped during read (v_q=%.3f, v_qb=%.3f); "
            "read current undefined" % (state.v_q, state.v_qb), bias=bias,
        )
    return state.i_read


def read_state_batch(cell, bias, lanes):
    """Batched :func:`read_state`: every lane's DC read state at once.

    Lanes are Monte Carlo samples (batched cell parameters), independent
    bias points (array-valued ``bias`` rails, shape ``(lanes, 1)``), or
    both.  The damped fixed point freezes each lane the iteration it
    converges, mirroring the scalar loop's update-then-break ordering,
    so states match the per-lane scalar path bitwise, and it applies the
    same :data:`COLLAPSE_TOL` flip rule.

    Returns ``(v_q, v_qb, flipped, i_read)`` as ``(lanes,)`` arrays.
    """
    from .snm import HalfCircuit

    v_q = np.broadcast_to(
        np.asarray(bias.v_ssc, dtype=float), (lanes, 1)
    ).copy()
    v_qb = np.broadcast_to(
        np.asarray(bias.v_ddc, dtype=float), (lanes, 1)
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
            "read-state fixed point did not converge on %d of %d lanes "
            "(worst last move %.3g V)"
            % (int(active.sum()), lanes, float(np.max(moved[active]))),
            bias=bias,
        )
    flipped = v_qb - v_q < COLLAPSE_TOL
    ax = cell.device("ax_l")
    i_read = ax.current(bias.v_wl, bias.v_bl, v_q)
    i_read = np.broadcast_to(np.asarray(i_read, dtype=float), (lanes, 1))
    return v_q[:, 0], v_qb[:, 0], flipped[:, 0], i_read[:, 0]


def read_current_grid(cell, v_ddc_values, v_ssc_values, vdd=None):
    """I_read over a (V_DDC, V_SSC) grid — the 2-D LUT the array model
    interpolates (paper Table 2, ``I_read(V_DDC, V_SSC)``).

    Returns an array of shape ``(len(v_ddc_values), len(v_ssc_values))``.
    The grid is flattened into rail lanes and every point is solved in
    one batched fixed point, bitwise equal to point-by-point
    :func:`read_current` calls.
    """
    mesh_ddc, mesh_ssc = np.meshgrid(
        np.asarray(v_ddc_values, dtype=float),
        np.asarray(v_ssc_values, dtype=float),
        indexing="ij",
    )
    lanes = mesh_ddc.size
    bias = CellBias.read(
        vdd=vdd if vdd is not None else CellBias().vdd,
        v_ddc=mesh_ddc.reshape(lanes, 1),
        v_ssc=mesh_ssc.reshape(lanes, 1),
    )
    _, _, flipped, i_read = read_state_batch(cell, bias, lanes)
    if flipped.any():
        raise CharacterizationError(
            "cell flipped during read on %d of %d grid points; "
            "read current undefined" % (int(flipped.sum()), lanes),
            bias=bias,
        )
    return i_read.reshape(mesh_ddc.shape)
