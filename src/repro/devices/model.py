"""Smooth compact FinFET I-V model.

This module is the library's substitute for the paper's SPICE + 7nm PTM
FinFET models.  It provides a single-expression, continuously
differentiable drain-current model with:

* an alpha-power-law channel branch (exponent 1.3, matching the
  read-current fit the paper reports in Section 5) whose softplus
  overdrive also produces the exponential subthreshold region,
* a gate-independent junction/GIDL leakage floor calibrated against the
  paper's absolute cell leakage powers,
* symmetric source/drain-exchange handling and PFET mirroring, and
* analytic first derivatives for the Newton-Raphson DC solver.

Currents scale linearly with the integer fin count ``nfin`` — the FinFET
width-quantization property the paper highlights.

The kernels sit in the innermost loop of every solve and run on arrays
of a few to a few hundred elements, where numpy's per-call overhead
outweighs the arithmetic, so each is a flat chain of ufunc calls; the
current-only one in two halves, :func:`gate_drive` (with the ``exp``,
``log1p`` and ``power`` calls) and :func:`drain_current`, so that a
solve whose gate bias stays put computes the first half once.
The Newton solver needs them smooth and finite over the whole bias
plane, including deep subthreshold and reverse bias: the softplus and
its sigmoid slope take ``exp`` of an argument clipped to
``[-_EXP_CLIP, _EXP_CLIP]`` (``np.minimum(np.maximum(...))``, the values
``np.clip`` selects at a fraction of its call overhead).  Two guards
are absent because they cannot change a finite result: the leakage
floor's ``exp(-vds / PHI_T)`` needs no upper clip, since ``vds >= 0``
after orientation, and ``Veff ** alpha`` needs no zero guard, since the
softplus output is at least ``gamma_s * log1p(exp(-_EXP_CLIP))``,
far above the smallest float.  ``tests/test_devices_kernel.py`` holds
both kernels bit-equal to the guarded expressions.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..units import PHI_T
from .params import FinFETParams

__all__ = [
    "FinFET",
    "drain_current",
    "gate_drive",
    "ids_core",
    "ids_core_with_derivatives",
    "parameter_columns",
    "terminal_current",
    "terminal_current_and_derivatives",
]

#: Argument beyond which the softplus and its slope saturate.
_EXP_CLIP = 40.0


def gate_drive(vgs, params):
    """The gate half of :func:`ids_core`: the channel prefactor ``b *
    Veff ** alpha`` of the softplus overdrive ``Veff`` and the
    saturation voltage, ``(pref, vdsat)``; neither depends on ``vds``.
    """
    p = params
    z = (vgs - p.vt) / p.gamma_s
    # Softplus: ~z for large z, ~exp(z) for very negative z.
    clipped = np.minimum(np.maximum(z, -_EXP_CLIP), _EXP_CLIP)
    veff = p.gamma_s * np.where(z > _EXP_CLIP, z,
                                np.log1p(np.exp(clipped)))
    pref = p.b * np.power(veff, p.alpha)
    vdsat = p.kappa_sat * veff + p.vdsat0
    return pref, vdsat


def drain_current(vds, drive, params):
    """The drain half of :func:`ids_core` for ``vds >= 0`` [A per fin],
    given the :func:`gate_drive` ``drive`` of the gate bias."""
    p = params
    pref, vdsat = drive
    sat = np.tanh(vds / vdsat)
    clm = 1.0 + p.lambda_ * vds
    i_channel = pref * sat * clm
    decay = np.exp(np.maximum(-vds / PHI_T, -_EXP_CLIP))
    return i_channel + p.i_floor * (1.0 - decay)


def ids_core(vgs, vds, params):
    """Forward-mode drain current per fin for ``vds >= 0`` [A].

    See :class:`repro.devices.params.FinFETParams` for the equations.
    Accepts scalars or numpy arrays.  The expressions are exactly those
    :func:`ids_core_with_derivatives` evaluates for its current, minus
    the partials, so the two agree bit for bit.
    """
    return drain_current(vds, gate_drive(vgs, params), params)


def ids_core_with_derivatives(vgs, vds, params):
    """Drain current per fin and its partials w.r.t. (vgs, vds).

    Only meaningful for ``vds >= 0``; callers handle source/drain exchange.
    Returns ``(i, di/dvgs, di/dvds)``.
    """
    p = params

    # Channel branch (covers subthreshold and strong inversion); the
    # softplus slope is the logistic sigmoid of the same argument.
    z = (vgs - p.vt) / p.gamma_s
    clipped = np.minimum(np.maximum(z, -_EXP_CLIP), _EXP_CLIP)
    veff = p.gamma_s * np.where(z > _EXP_CLIP, z,
                                np.log1p(np.exp(clipped)))
    dveff = 1.0 / (1.0 + np.exp(-clipped))
    pref = p.b * np.power(veff, p.alpha)
    dpref_dvgs = p.b * p.alpha * np.power(veff, p.alpha - 1.0) * dveff
    vdsat = p.kappa_sat * veff + p.vdsat0
    dvdsat_dvgs = p.kappa_sat * dveff
    # Saturation shape tanh(vds / vdsat) and its partials.
    x = vds / vdsat
    sat = np.tanh(x)
    sech2 = 1.0 - sat * sat
    dsat_dvds = sech2 / vdsat
    dsat_dvdsat = -sech2 * x / vdsat
    clm = 1.0 + p.lambda_ * vds
    i_channel = pref * sat * clm
    di_channel_dvgs = (dpref_dvgs * sat + pref * dsat_dvdsat * dvdsat_dvgs) * clm
    di_channel_dvds = pref * (dsat_dvds * clm + sat * p.lambda_)

    # Gate-independent leakage floor (junction/GIDL).
    decay = np.exp(np.maximum(-vds / PHI_T, -_EXP_CLIP))
    i_floor = p.i_floor * (1.0 - decay)
    di_floor_dvds = p.i_floor * (decay / PHI_T)

    return (
        i_channel + i_floor,
        di_channel_dvgs,
        di_channel_dvds + di_floor_dvds,
    )


def _mirror_and_orient(vg, vd, vs, polarity):
    """Core-model coordinates ``(fwd, vgs, vds, sign)`` of a terminal bias.

    A PFET (``polarity`` -1.0) is mirrored onto the NFET equations by
    negating its terminal voltages; then the higher of drain and source
    acts as the drain (``fwd`` marks the forward orientation and
    ``sign`` is +1.0 there, -1.0 reversed).
    """
    vg = np.multiply(polarity, vg)
    vd = np.multiply(polarity, vd)
    vs = np.multiply(polarity, vs)
    fwd = vd >= vs
    # Forward: (vgs, vds) = (vg-vs, vd-vs); reverse swaps d and s.
    low = np.where(fwd, vs, vd)
    vgs = vg - low
    vds = np.where(fwd, vd, vs) - low
    return fwd, vgs, vds, np.where(fwd, 1.0, -1.0)


def terminal_current(vg, vd, vs, params, polarity=1.0):
    """Drain-terminal current per fin [A] (no partials).

    The current-only path of :func:`terminal_current_and_derivatives`:
    the same operations minus the partials, so it returns the same bits.
    """
    _fwd, vgs, vds, sign = _mirror_and_orient(vg, vd, vs, polarity)
    return polarity * (sign * ids_core(vgs, vds, params))


def terminal_current_and_derivatives(vg, vd, vs, params, polarity=1.0):
    """Drain-terminal current per fin [A] and its partials (vg, vd, vs).

    The one device kernel every caller shares: :class:`FinFET` evaluates
    a single device through it, and the simulator's compiled stamp plan
    evaluates all of a circuit's transistors in one call, with
    ``params`` holding per-transistor parameter columns and
    ``polarity`` a matching column of +1.0 (NFET) / -1.0 (PFET).

    A PFET runs through the NFET equations on negated terminal
    voltages, ``I_p(vg, vd, vs) = -I_n(-vg, -vd, -vs)``: negation and
    multiplication by +-1.0 are exact, and the partials pick up the
    sign twice, so they need no correction.

    Returns ``(i, di/dvg, di/dvd, di/dvs)``.
    """
    fwd, vgs, vds, sign = _mirror_and_orient(vg, vd, vs, polarity)
    i, di_dvgs, di_dvds = ids_core_with_derivatives(vgs, vds, params)
    d_vg = sign * di_dvgs
    d_high = sign * di_dvds  # partial w.r.t. the higher terminal
    d_low = -(d_vg + d_high)
    # Forward: d/dvd = di_dvds, d/dvs = -(di_dvgs + di_dvds).
    # Reverse: the roles of vd and vs exchange.
    d_vd = np.where(fwd, d_high, d_low)
    d_vs = np.where(fwd, d_low, d_high)
    return polarity * (sign * i), d_vg, d_vd, d_vs


#: Every compact-model parameter the kernel reads from ``params``.
_KERNEL_PARAMS = ("vt", "b", "alpha", "gamma_s", "i_floor", "lambda_",
                  "kappa_sat", "vdsat0")


def parameter_columns(param_sets):
    """Kernel parameters of ``k`` devices stacked on a leading axis.

    The result stands in for ``params`` when :func:`terminal_current`
    or :func:`terminal_current_and_derivatives` evaluates the ``k``
    devices in one call: row ``j`` holds ``param_sets[j]``'s values.  A
    scalar parameter becomes a ``(k, 1)`` float column that broadcasts
    against ``(k, lanes)`` terminal voltages; an array-valued one (a
    batched per-sample ``(n, 1)`` ``vt``) becomes a ``(k, n, 1)`` block.
    """
    columns = {}
    for name in _KERNEL_PARAMS:
        values = [getattr(p, name) for p in param_sets]
        if any(np.ndim(value) for value in values):
            columns[name] = np.stack(np.broadcast_arrays(*values)).astype(
                float, copy=False)
        else:
            columns[name] = np.array(values, dtype=float).reshape(-1, 1)
    return SimpleNamespace(**columns)


class FinFET:
    """A FinFET instance: a parameter flavor plus an integer fin count.

    Terminal convention: :meth:`current` returns the current flowing from
    the *drain node into the device* (positive for a conducting NFET with
    ``vd > vs``, negative for a conducting PFET with ``vs > vd``).
    Source/drain exchange and PFET voltage mirroring are handled
    internally, so callers may wire the device either way around.
    """

    def __init__(self, params, nfin=1):
        if not isinstance(params, FinFETParams):
            raise TypeError("params must be a FinFETParams")
        if int(nfin) != nfin or nfin < 1:
            raise ValueError(
                "nfin must be a positive integer (width quantization); "
                "got %r" % (nfin,)
            )
        self.params = params
        self.nfin = int(nfin)

    def __repr__(self):
        if self.params.is_batched:
            vt_label = "batched[%d]" % self.params.batch_size
        else:
            vt_label = "%.0fmV" % (self.params.vt * 1e3)
        return "FinFET(%sFET, vt=%s, nfin=%d)" % (
            self.params.polarity,
            vt_label,
            self.nfin,
        )

    # -- raw current --------------------------------------------------------

    @property
    def polarity_sign(self):
        """+1.0 for an NFET, -1.0 for a PFET (the kernel's mirroring)."""
        return 1.0 if self.params.polarity == "n" else -1.0

    def current(self, vg, vd, vs):
        """Drain-terminal current [A] at the given node voltages.

        Skips the partials; bitwise equal to
        ``current_and_derivatives(vg, vd, vs)[0]``.
        """
        return self._scaled(terminal_current(
            vg, vd, vs, self.params, self.polarity_sign))

    def current_and_derivatives(self, vg, vd, vs):
        """Drain current and partials w.r.t. (vg, vd, vs).

        Vectorizes over numpy arrays of node voltages.
        """
        return tuple(self._scaled(term) for term in
                     terminal_current_and_derivatives(
                         vg, vd, vs, self.params, self.polarity_sign))

    def _scaled(self, term):
        # Scale by the fin count, then demote a 0-d result to a Python
        # float.  Multiplying before vs after the float() conversion is
        # bitwise-equivalent (both are one float64 multiply).
        term = np.asarray(term) * float(self.nfin)
        return term.item() if term.ndim == 0 else term

    # -- figures of merit -----------------------------------------------------

    def ion(self, vdd):
        """ON current [A]: |Vgs| = |Vds| = vdd."""
        if self.params.polarity == "n":
            return self.current(vdd, vdd, 0.0)
        return -self.current(0.0, 0.0, vdd)

    def ioff(self, vdd):
        """OFF current [A]: |Vgs| = 0, |Vds| = vdd."""
        if self.params.polarity == "n":
            return self.current(0.0, vdd, 0.0)
        return -self.current(vdd, 0.0, vdd)

    def on_off_ratio(self, vdd):
        """ION / IOFF at the given supply."""
        return self.ion(vdd) / self.ioff(vdd)

    # -- capacitances -----------------------------------------------------------

    @property
    def c_gate(self):
        """Total gate capacitance [F] (per-fin value times fin count)."""
        return self.params.c_gate * self.nfin

    @property
    def c_drain(self):
        """Total drain capacitance [F] (per-fin value times fin count)."""
        return self.params.c_drain * self.nfin
