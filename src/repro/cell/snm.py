"""Static noise margins of the 6T cell (Seevinck butterfly method).

The butterfly plot overlays the voltage-transfer curves of the cell's
two cross-coupled half-circuits; the SNM is the side of the largest
square that fits inside the smaller of the two eyes [Seevinck 1987].

Half-circuit VTCs are computed by a robust single-node bisection: with
the input node forced, the only unknown is the output node, and the net
current leaving it is strictly increasing in its voltage (every attached
device's pull-out current grows with the node voltage), so bisection
always converges.  ``tests/test_cell_snm.py`` cross-validates this fast
path against the full Newton solver.

Eye extraction uses the 45-degree-rotation property: points that differ
by a displacement ``s * (1, 1)`` share the rotated ordinate
``v = (y - x)/sqrt(2)``, so the largest inscribed square side equals the
maximum u-distance between the two curves at equal v, divided by
``sqrt(2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ..devices.model import (
    FinFET,
    drain_current,
    gate_drive,
    parameter_columns,
    terminal_current,
)
from ..errors import CharacterizationError
from .bias import CellBias

_SQRT2 = math.sqrt(2.0)

#: Default VTC sample count (trade accuracy for speed in Monte Carlo).
DEFAULT_POINTS = 121

#: Bisection convergence for the half-circuit output voltage [V].
_BISECT_TOL = 1e-7

#: Largest per-device block (elements of one device's current) that the
#: half-circuit solve evaluates as one stacked device-kernel call; larger
#: blocks call the kernel once per device.  Stacking pays at small blocks,
#: where numpy's per-call overhead dominates, and loses once the stacked
#: temporaries outgrow the cache and the per-device path's gate drive,
#: computed once per solve, saves more than its extra calls cost: the
#: ``crossover`` table of ``benchmarks/bench_montecarlo.py`` times both
#: sides (docs/PERF.md §9-§10).
_STACK_MAX_BLOCK = 768

#: The half circuit's devices in stack order; the net current leaving
#: the output node is ``(pd + pu) - ax``.
_STACK_ROLES = ("pd", "pu", "ax")


def _half_circuit_current(cell, side, v_in, v_out, bias, access_on):
    """Net current leaving the output node of one half circuit [A].

    ``side`` is "l" (output Q, input QB) or "r" (output QB, input Q).
    One ``FinFET.current`` call per device: the path for cells whose
    devices are not FinFETs, and the reference whose bits
    :func:`_stacked_current` and :func:`_per_device_current` reproduce.
    """
    pu = cell.device("pu_" + side)
    pd = cell.device("pd_" + side)
    ax = cell.device("ax_" + side)
    v_bl = bias.v_bl if side == "l" else bias.v_blb
    v_wl = bias.v_wl if access_on else 0.0
    # Pull-down: drain at the output node, source at CVSS.
    out = pd.current(v_in, v_out, bias.v_ssc)
    # Pull-up: drain at the output node, source at CVDD (PFET current
    # into its drain is negative while charging the node).
    out += pu.current(v_in, v_out, bias.v_ddc)
    # Access: wired (gate=WL, drain=BL, source=output); current into the
    # drain equals current *out of* the output node, hence the sign.
    out -= ax.current(v_wl, v_bl, v_out)
    return out


def _stacked_current(devices, bias, v_wl, v_bl, shape):
    """``load(v_in) -> (v_out -> net out-current)`` of one half circuit,
    evaluating its three devices in one kernel call per step.

    ``devices`` are the pull-down, pull-up and access FinFETs; their
    terminals are stacked on a leading axis of ``(3,) + shape`` arrays
    whose bias rows are written here once, the input rows once per
    ``load`` and the three ``v_out`` rows at every step.  Every element
    runs the operation sequence of :func:`_half_circuit_current`
    (``FinFET.current`` per device, then ``(pd + pu) - ax``), so the two
    return the same bits.
    """
    ndim = len(shape)

    def lead(column):
        # A (3, ...) parameter block padded to broadcast over ``shape``.
        return column.reshape(column.shape[:1]
                              + (1,) * (ndim + 1 - column.ndim)
                              + column.shape[1:])

    columns = parameter_columns([device.params for device in devices])
    params = SimpleNamespace(**{
        name: lead(column) for name, column in vars(columns).items()})
    polarity = lead(np.array([[d.polarity_sign] for d in devices]))
    nfin = lead(np.array([[float(d.nfin)] for d in devices]))
    stacked = (len(devices),) + shape
    v_g, v_d, v_s = np.empty(stacked), np.empty(stacked), np.empty(stacked)
    # (gate, drain, source) of pd: (in, out, CVSS); pu: (in, out, CVDD);
    # ax: (WL, BL, out).
    v_g[2] = v_wl
    v_d[2] = v_bl
    v_s[0] = bias.v_ssc
    v_s[1] = bias.v_ddc

    def current(v_out):
        v_d[0] = v_d[1] = v_s[2] = v_out
        out = terminal_current(v_g, v_d, v_s, params, polarity) * nfin
        return (out[0] + out[1]) - out[2]

    def load(v_in):
        v_g[0] = v_g[1] = v_in
        return current

    return load


def _per_device_current(devices, bias, v_wl, v_bl):
    """``load(v_in) -> (v_out -> net out-current)`` of one half circuit,
    one device-kernel call per device and step.

    The pull-down and pull-up have their gate at the input and their
    source at a rail, so their mirrored-frame ``vgs = pol*v_in -
    pol*rail`` and :func:`~repro.devices.model.gate_drive` are fixed per
    ``load``.  A step evaluates only
    :func:`~repro.devices.model.drain_current` on ``vds = pol*v_out -
    pol*rail`` while every element is forward (``vds >= 0``, the kernel's
    ``vd >= vs``), and ``FinFET.current`` otherwise (the bracket ends, a
    write's node below V_SSC), as always for the access device, whose
    ``vgs`` moves with ``v_out``.  The ``pol * nfin`` scale rounds as
    ``FinFET``'s sign flip and fin multiply do, so the sum has the bits
    of :func:`_half_circuit_current`.
    """
    pd, pu, ax = devices

    def load(v_in):
        drives = []
        for device, rail in ((pd, bias.v_ssc), (pu, bias.v_ddc)):
            pol = device.polarity_sign
            drives.append((device, rail, pol, pol * rail, pol * device.nfin,
                           gate_drive(pol * v_in - pol * rail,
                                      device.params)))

        def current(v_out):
            out = []
            for device, rail, pol, pol_rail, scale, drive in drives:
                vds = pol * v_out - pol_rail
                out.append(drain_current(vds, drive, device.params) * scale
                           if np.all(vds >= 0.0)
                           else device.current(v_in, v_out, rail))
            return (out[0] + out[1]) - ax.current(v_wl, v_bl, v_out)

        return current

    return load


def _net_loader(cell, side, bias, access_on, shape):
    """``load(v_in) -> (v_out -> net current leaving the output node)``
    for inputs whose solve broadcasts to ``shape``.

    For FinFET cells, one stacked kernel call per evaluation while one
    device's block has at most :data:`_STACK_MAX_BLOCK` elements, else
    :func:`_per_device_current`; other cells take
    :func:`_half_circuit_current`.  All three give the same bits.
    """
    devices = [cell.device(role + "_" + side) for role in _STACK_ROLES]
    if all(isinstance(device, FinFET) for device in devices):
        v_bl = bias.v_bl if side == "l" else bias.v_blb
        v_wl = bias.v_wl if access_on else 0.0
        shape = np.broadcast_shapes(
            shape, np.shape(v_wl), np.shape(v_bl),
            *(np.shape(device.params.vt) for device in devices))
        if math.prod(shape) <= _STACK_MAX_BLOCK:
            return _stacked_current(devices, bias, v_wl, v_bl, shape)
        return _per_device_current(devices, bias, v_wl, v_bl)
    return lambda v_in: lambda v_out: _half_circuit_current(
        cell, side, v_in, v_out, bias, access_on)


def _net_current(cell, side, v_in, bias, access_on, lo_bound, hi_bound):
    """``v_out -> net current leaving the output node`` at ``v_in``
    (see :func:`_net_loader`)."""
    shape = np.broadcast_shapes(v_in.shape, np.shape(lo_bound),
                                np.shape(hi_bound))
    return _net_loader(cell, side, bias, access_on, shape)(v_in)


def _bisection_counts(spans):
    """Exact per-element bisection iteration counts for given spans.

    Each element's count must equal what the scalar path computes via
    ``math.ceil(math.log2(span / tol))``; ``np.log2`` can differ from
    ``math.log2`` in the last ulp (which would flip the ceil right at a
    power-of-two boundary), so the counts are computed with ``math.log2``
    over the unique span values.
    """
    spans = np.asarray(spans, dtype=float)
    counts = np.empty(spans.shape, dtype=int)
    for value in np.unique(spans):
        counts[spans == value] = int(
            math.ceil(math.log2(float(value) / _BISECT_TOL))
        )
    return counts


class HalfCircuit:
    """One half circuit of ``cell`` under ``bias``, set up for repeated
    solves (see :func:`solve_half_circuit`).

    A settle loop solves each side under one bias at every iteration.
    What such a solve holds fixed -- the bracket, the devices' stacked
    parameter block and its bias rows, the bisection counts -- depends
    on the cell, the side, the bias and the input's shape only, so it is
    built at the first solve of each input shape and reused after.  An
    instance belongs to the one cell and bias it was built for.
    """

    def __init__(self, cell, side, bias, access_on):
        self._circuit = (cell, side, bias, access_on)
        # min/max of floats select an input exactly, so np.minimum and
        # np.maximum reduce to the scalar path's python min()/max()
        # values when every field is scalar; pairwise calls let
        # array-valued fields broadcast.
        self.lo_bound = np.minimum(
            np.minimum(bias.v_ssc, bias.v_bl), np.minimum(bias.v_blb, 0.0)
        ) - 0.1
        self.hi_bound = np.maximum(
            np.maximum(bias.v_ddc, bias.v_bl), bias.v_blb
        ) + 0.1
        self._loads, self._bisections = {}, {}

    def _bisection(self, shape):
        """Start brackets over ``shape`` and the per-element step counts
        (None when every element takes all the steps)."""
        counts = _bisection_counts(
            np.broadcast_to(self.hi_bound - self.lo_bound, shape))
        steps = int(counts.max())
        return (np.broadcast_to(np.asarray(self.lo_bound, dtype=float),
                                shape),
                np.broadcast_to(np.asarray(self.hi_bound, dtype=float),
                                shape),
                None if counts.min() == steps else counts, steps)

    def solve(self, v_in):
        """Output voltage(s) for forced input(s) ``v_in`` [V]."""
        v_in = np.asarray(v_in, dtype=float)
        scalar = v_in.ndim == 0
        v_in = np.atleast_1d(v_in)
        lo_bound, hi_bound = self.lo_bound, self.hi_bound
        load = self._loads.get(v_in.shape)
        if load is None:
            shape = np.broadcast_shapes(v_in.shape, np.shape(lo_bound),
                                        np.shape(hi_bound))
            load = self._loads[v_in.shape] = _net_loader(*self._circuit,
                                                         shape)
        current = load(v_in)
        f_lo = current(lo_bound + 0.0 * v_in)
        f_hi = current(hi_bound + 0.0 * v_in)
        if np.any(f_lo > 0) or np.any(f_hi < 0):
            bracket = (float(np.min(lo_bound)), float(np.max(hi_bound)))
            raise CharacterizationError(
                "half-circuit current not bracketed within [%.2f, %.2f] V"
                % bracket, side=self._circuit[1], bias=self._circuit[2],
                bracket=bracket,
            )
        bisection = self._bisections.get(f_lo.shape)
        if bisection is None:
            bisection = self._bisections[f_lo.shape] = self._bisection(
                f_lo.shape)
        lo, hi, counts, steps = bisection
        for step in range(steps):
            mid = 0.5 * (lo + hi)
            high_side = current(mid) > 0
            if counts is None:
                hi = np.where(high_side, mid, hi)
                lo = np.where(high_side, lo, mid)
            else:
                # Lanes past their own count stay frozen.
                running = step < counts
                hi = np.where(running & high_side, mid, hi)
                lo = np.where(running & ~high_side, mid, lo)
        result = 0.5 * (lo + hi)
        if scalar and result.ndim == 1:
            return float(result[0])
        # A batched cell with a scalar input gives one output per sample.
        return result


def solve_half_circuit(cell, side, v_in, bias, access_on):
    """Output voltage(s) of one half circuit for forced input(s) [V].

    ``v_in`` may be a scalar or an array; the bisection runs vectorized
    across all input points simultaneously (the net out-current is
    strictly increasing in the output voltage, so bisection is exact).

    Batched evaluation composes along two more axes, both handled by the
    same code path because every operation below is elementwise:

    * a **batched cell** (per-sample ``vt`` columns of shape ``(n, 1)``)
      turns a ``(points,)`` input sweep into an ``(n, points)`` output
      grid, or an ``(n, 1)`` per-sample input column into an ``(n, 1)``
      output column;
    * **array-valued bias fields** (e.g. per-lane rails or wordline
      levels, shape ``(k, 1)``) batch independent operating points.
      Lanes whose bracket spans differ get exactly the per-lane
      iteration count the scalar path would compute, with finished
      lanes frozen, so every element follows the scalar op sequence
      bitwise.

    Each bracket check and bisection step evaluates the three devices
    in one stacked kernel call, or one call per device once a device's
    block exceeds :data:`_STACK_MAX_BLOCK` elements (:func:`_net_loader`);
    the two give the same bits.  Loops that solve one side under one
    bias repeatedly build a :class:`HalfCircuit` once instead.
    """
    return HalfCircuit(cell, side, bias, access_on).solve(v_in)


def half_circuit_output(cell, side, v_in, bias, access_on):
    """Scalar convenience wrapper around :func:`solve_half_circuit`."""
    return float(solve_half_circuit(cell, side, float(v_in), bias, access_on))


def vtc(cell, side, bias, access_on, points=DEFAULT_POINTS,
        v_lo=None, v_hi=None):
    """Voltage-transfer curve of one half circuit.

    Returns ``(v_in, v_out)`` arrays.  The sweep spans the cell's internal
    swing (``v_ssc`` to ``v_ddc``) unless explicit bounds are given.
    Per-lane rails (``(k, 1)`` columns) sweep each lane over its own
    swing: ``v_in`` is then ``(k, points)``, and each row holds the bits
    of the scalar sweep at that lane's rails.
    """
    v_lo = bias.v_ssc if v_lo is None else v_lo
    v_hi = bias.v_ddc if v_hi is None else v_hi
    if np.ndim(v_lo) or np.ndim(v_hi):
        v_lo, v_hi = np.broadcast_arrays(v_lo, v_hi)
        v_in = np.ascontiguousarray(np.linspace(
            v_lo.ravel(), v_hi.ravel(), points, axis=-1))
    else:
        v_in = np.linspace(v_lo, v_hi, points)
    v_out = solve_half_circuit(cell, side, v_in, bias, access_on)
    return v_in, v_out


@dataclass
class ButterflyResult:
    """Butterfly curves plus the extracted noise margin."""

    #: VTC of the left half: Q = f(QB).  Axes: x = QB, y = Q.
    qb_axis: np.ndarray
    q_of_qb: np.ndarray
    #: VTC of the right half: QB = f(Q), overlaid as x = QB_out, y = Q_in.
    q_axis: np.ndarray
    qb_of_q: np.ndarray
    #: Largest-square sides of the two eyes [V].
    lobe_low: float
    lobe_high: float

    @property
    def snm(self):
        """Static noise margin: the worse (smaller) eye [V]."""
        return min(self.lobe_low, self.lobe_high)

    @property
    def bistable(self):
        """True when both eyes are open."""
        return self.lobe_low > 0 and self.lobe_high > 0


def _largest_squares(x1, y1, x2, y2):
    """Largest inscribed squares between two overlaid curves.

    Curve 1 is sampled as (x1, y1), curve 2 as (x2, y2), in the same
    axes.  Returns ``(s_a, s_b)``: the max square sides found on each
    side of the curves (the two butterfly eyes); non-positive values mean
    that eye is closed (the cell is not bistable).
    """
    v1 = (y1 - x1) / _SQRT2
    u1 = (y1 + x1) / _SQRT2
    v2 = (y2 - x2) / _SQRT2
    u2 = (y2 + x2) / _SQRT2
    # Parametrize both curves by v (monotone along a falling VTC).
    order1 = np.argsort(v1)
    order2 = np.argsort(v2)
    v_lo = max(v1.min(), v2.min())
    v_hi = min(v1.max(), v2.max())
    if v_hi <= v_lo:
        return 0.0, 0.0
    grid = np.linspace(v_lo, v_hi, 4 * len(v1))
    u1_grid = np.interp(grid, v1[order1], u1[order1])
    u2_grid = np.interp(grid, v2[order2], u2[order2])
    separation = u1_grid - u2_grid
    s_a = float(np.max(separation)) / _SQRT2
    s_b = float(np.max(-separation)) / _SQRT2
    return s_a, s_b


def butterfly(cell, bias, access_on, points=DEFAULT_POINTS):
    """Compute the butterfly curves and noise margin under ``bias``.

    For a symmetric cell the second VTC is the mirror of the first,
    halving the work; Monte Carlo instances compute both halves.
    """
    qb_axis, q_of_qb = vtc(cell, "l", bias, access_on, points)
    if cell.is_symmetric and bias.v_bl == bias.v_blb:
        q_axis, qb_of_q = qb_axis.copy(), q_of_qb.copy()
    else:
        q_axis, qb_of_q = vtc(cell, "r", bias, access_on, points)
    # Overlay curve 2 in curve-1 axes (x = QB, y = Q): its points are
    # (x, y) = (qb_of_q, q_axis).
    lobe_a, lobe_b = _largest_squares(
        qb_axis, q_of_qb, qb_of_q, q_axis
    )
    return ButterflyResult(
        qb_axis=qb_axis,
        q_of_qb=q_of_qb,
        q_axis=q_axis,
        qb_of_q=qb_of_q,
        lobe_low=min(lobe_a, lobe_b),
        lobe_high=max(lobe_a, lobe_b),
    )


def snm_samples(cell, bias, access_on, points=DEFAULT_POINTS):
    """Noise margin of every lane of a batched solve at once [V].

    A lane is a Monte Carlo sample of a batched ``cell`` (per-sample
    parameters, see
    :meth:`repro.devices.params.FinFETParams.with_vt_shifts`) or one
    operating point of array-valued ``bias`` rails (``(k, 1)`` columns,
    each lane sweeping its own swing, see :func:`vtc`).  Both VTC
    bisections evaluate all lanes simultaneously, then the largest
    inscribed square is extracted per lane.  Returns an ``(n,)`` array
    that is bitwise equal to calling ``butterfly(...).snm`` on each
    sample's scalar cell, or at each lane's scalar bias.
    """
    qb_axis, q_of_qb = vtc(cell, "l", bias, access_on, points)
    q_of_qb = np.atleast_2d(q_of_qb)
    if cell.is_symmetric and bias.v_bl == bias.v_blb:
        q_axis, qb_of_q = qb_axis.copy(), q_of_qb.copy()
    else:
        q_axis, qb_of_q = vtc(cell, "r", bias, access_on, points)
        qb_of_q = np.atleast_2d(qb_of_q)
    # One sweep axis for every sample, or one row per rail lane.
    qb_axis = np.broadcast_to(qb_axis, q_of_qb.shape)
    q_axis = np.broadcast_to(q_axis, qb_of_q.shape)
    # Eye extraction is 1-D interpolation, so it runs per lane — cheap
    # next to the bisections (O(points log points) vs O(iters * devices)).
    snm = np.empty(q_of_qb.shape[0])
    for k in range(q_of_qb.shape[0]):
        lobe_a, lobe_b = _largest_squares(
            qb_axis[k], q_of_qb[k], qb_of_q[k], q_axis[k]
        )
        snm[k] = min(lobe_a, lobe_b)
    return snm


def hold_snm(cell, vdd=None, points=DEFAULT_POINTS, bias=None):
    """Hold SNM (HSNM): wordline off, bitlines precharged [V]."""
    if bias is None:
        bias = CellBias.hold(vdd) if vdd is not None else CellBias.hold()
    return butterfly(cell, bias, access_on=False, points=points).snm


def read_snm(cell, vdd=None, v_ddc=None, v_ssc=0.0, v_wl=None,
             points=DEFAULT_POINTS, bias=None):
    """Read SNM (RSNM): wordline on, bitlines held at Vdd [V].

    ``v_ddc``/``v_ssc`` apply the Vdd-boost / negative-Gnd read assists;
    ``v_wl`` overrides the wordline level (WL underdrive studies).
    """
    if bias is None:
        base = CellBias.read(
            vdd=vdd if vdd is not None else CellBias().vdd,
            v_ddc=v_ddc,
            v_ssc=v_ssc,
        )
        bias = base if v_wl is None else base.with_wordline(v_wl)
    return butterfly(cell, bias, access_on=True, points=points).snm
