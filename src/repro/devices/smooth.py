"""Numerically robust smooth primitives for the compact device model.

The Newton-Raphson DC solver needs device equations that are smooth
(continuously differentiable) over the whole bias plane, including deep
subthreshold and reverse bias.  These helpers implement overflow-safe
softplus/sigmoid functions and their derivatives; all of them accept
scalars or numpy arrays (a scalar input yields a numpy scalar or 0-d
array).  They sit in the innermost loop of every solve, so they are
bare ufunc chains: clipping is spelled ``np.minimum(np.maximum(...))``,
which selects the same values as ``np.clip`` at a fraction of its call
overhead.
"""

from __future__ import annotations

import numpy as np

#: Argument beyond which exp() saturates in the softplus/sigmoid helpers.
_EXP_CLIP = 40.0


def _clip(z):
    """``z`` limited to [-_EXP_CLIP, _EXP_CLIP] (``np.clip``'s values)."""
    return np.minimum(np.maximum(z, -_EXP_CLIP), _EXP_CLIP)


def softplus(x, width):
    """Smooth max(x, 0): ``width * log(1 + exp(x / width))``.

    ``width`` sets the transition region; as ``width -> 0`` this tends to
    ``max(x, 0)``.  Overflow-safe for large ``|x| / width``.
    """
    z = np.asarray(x, dtype=float) / width
    # For large z, softplus(z) ~ z; for very negative z it ~ exp(z).
    out = np.where(z > _EXP_CLIP, z, np.log1p(np.exp(_clip(z))))
    return width * out


def softplus_with_slope(x, width):
    """``(softplus(x, width), d softplus / dx)`` sharing one argument.

    The slope is the logistic sigmoid ``1 / (1 + exp(-x / width))``,
    overflow-safe; both values equal what separate evaluations would
    give, bit for bit.
    """
    z = np.asarray(x, dtype=float) / width
    clipped = _clip(z)
    out = np.where(z > _EXP_CLIP, z, np.log1p(np.exp(clipped)))
    return width * out, 1.0 / (1.0 + np.exp(-clipped))


def safe_exp(x):
    """exp() clipped to avoid overflow (saturates at exp(+-40))."""
    return np.exp(_clip(np.asarray(x, dtype=float)))


def tanh_sat(vds, vdsat):
    """Saturation shape function tanh(vds/vdsat) and its partials.

    Returns ``(value, d/dvds, d/dvdsat)``.
    """
    x = np.asarray(vds, dtype=float) / vdsat
    t = np.tanh(x)
    sech2 = 1.0 - t * t
    d_dvds = sech2 / vdsat
    d_dvdsat = -sech2 * x / vdsat
    return t, d_dvds, d_dvdsat


def power(base, exponent):
    """``base ** exponent`` that tolerates base == 0 for exponent > 0."""
    b = np.asarray(base, dtype=float)
    return np.where(b > 0.0, np.power(np.maximum(b, 1e-300), exponent), 0.0)
