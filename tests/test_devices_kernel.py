"""The device kernels against a frozen copy of their guarded expressions.

``terminal_current`` and ``terminal_current_and_derivatives`` are flat
ufunc chains.  The reference below is the kernel as it stood when it
was built from helper functions (overflow-safe softplus, sigmoid slope,
clipped exponential, zero-guarded power, saturation shape), guards
included; the kernels dropped two guards that cannot change a finite
result (see :mod:`repro.devices.model`).  Both kernels must return the
reference's bits -- compared through ``tobytes()``, with NaN exactly
where the reference gives NaN -- for scalar devices, ``parameter_columns``
blocks and batched per-sample ``vt``, both polarities and both flavors,
including signed zeros and equal drain and source voltages.  The
current-only core's two halves, ``gate_drive`` then ``drain_current``,
must return the reference's bits too, also with one gate drive reused
across drain biases as the half-circuit bisection reuses it.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import DeviceLibrary, FinFET
from repro.devices.model import (
    drain_current,
    gate_drive,
    ids_core,
    ids_core_with_derivatives,
    parameter_columns,
    terminal_current,
    terminal_current_and_derivatives,
)
from repro.units import PHI_T

LIB = DeviceLibrary.default_7nm()
FLAVORS = ("nfet_lvt", "nfet_hvt", "pfet_lvt", "pfet_hvt")

# -- the frozen reference -----------------------------------------------------

_EXP_CLIP = 40.0


def _clip(z):
    return np.minimum(np.maximum(z, -_EXP_CLIP), _EXP_CLIP)


def _softplus(x, width):
    z = np.asarray(x, dtype=float) / width
    out = np.where(z > _EXP_CLIP, z, np.log1p(np.exp(_clip(z))))
    return width * out


def _softplus_with_slope(x, width):
    z = np.asarray(x, dtype=float) / width
    clipped = _clip(z)
    out = np.where(z > _EXP_CLIP, z, np.log1p(np.exp(clipped)))
    return width * out, 1.0 / (1.0 + np.exp(-clipped))


def _safe_exp(x):
    return np.exp(_clip(np.asarray(x, dtype=float)))


def _tanh_sat(vds, vdsat):
    x = np.asarray(vds, dtype=float) / vdsat
    t = np.tanh(x)
    sech2 = 1.0 - t * t
    return t, sech2 / vdsat, -sech2 * x / vdsat


def _power(base, exponent):
    b = np.asarray(base, dtype=float)
    return np.where(b > 0.0, np.power(np.maximum(b, 1e-300), exponent), 0.0)


def reference_ids_core(vgs, vds, p):
    veff = _softplus(vgs - p.vt, p.gamma_s)
    pref = p.b * _power(veff, p.alpha)
    vdsat = p.kappa_sat * veff + p.vdsat0
    sat = np.tanh(vds / vdsat)
    clm = 1.0 + p.lambda_ * vds
    i_channel = pref * sat * clm
    i_floor = p.i_floor * (1.0 - _safe_exp(-vds / PHI_T))
    return i_channel + i_floor


def reference_ids_core_with_derivatives(vgs, vds, p):
    veff, dveff = _softplus_with_slope(vgs - p.vt, p.gamma_s)
    pref = p.b * _power(veff, p.alpha)
    dpref_dvgs = p.b * p.alpha * _power(veff, p.alpha - 1.0) * dveff
    vdsat = p.kappa_sat * veff + p.vdsat0
    dvdsat_dvgs = p.kappa_sat * dveff
    sat, dsat_dvds, dsat_dvdsat = _tanh_sat(vds, vdsat)
    clm = 1.0 + p.lambda_ * vds
    i_channel = pref * sat * clm
    di_channel_dvgs = (dpref_dvgs * sat
                       + pref * dsat_dvdsat * dvdsat_dvgs) * clm
    di_channel_dvds = pref * (dsat_dvds * clm + sat * p.lambda_)
    decay = _safe_exp(-vds / PHI_T)
    i_floor = p.i_floor * (1.0 - decay)
    di_floor_dvds = p.i_floor * (decay / PHI_T)
    return (i_channel + i_floor, di_channel_dvgs,
            di_channel_dvds + di_floor_dvds)


def _reference_orient(vg, vd, vs, polarity):
    vg = polarity * np.asarray(vg, dtype=float)
    vd = polarity * np.asarray(vd, dtype=float)
    vs = polarity * np.asarray(vs, dtype=float)
    fwd = vd >= vs
    low = np.where(fwd, vs, vd)
    vgs = vg - low
    vds = np.where(fwd, vd, vs) - low
    return fwd, vgs, vds, np.where(fwd, 1.0, -1.0)


def reference_current(vg, vd, vs, params, polarity):
    _fwd, vgs, vds, sign = _reference_orient(vg, vd, vs, polarity)
    return polarity * (sign * reference_ids_core(vgs, vds, params))


def reference_current_and_derivatives(vg, vd, vs, params, polarity):
    fwd, vgs, vds, sign = _reference_orient(vg, vd, vs, polarity)
    i, di_dvgs, di_dvds = reference_ids_core_with_derivatives(vgs, vds,
                                                              params)
    d_vg = sign * di_dvgs
    d_high = sign * di_dvds
    d_low = -(d_vg + d_high)
    d_vd = np.where(fwd, d_high, d_low)
    d_vs = np.where(fwd, d_low, d_high)
    return polarity * (sign * i), d_vg, d_vd, d_vs


# -- comparison ---------------------------------------------------------------

def assert_same_bits(value, reference):
    value, reference = np.asarray(value), np.asarray(reference)
    assert value.shape == reference.shape
    assert value.dtype == reference.dtype == np.float64
    nan = np.isnan(reference)
    assert np.array_equal(np.isnan(value), nan)
    assert value[~nan].tobytes() == reference[~nan].tobytes()


def assert_kernels_match(vg, vd, vs, params, polarity):
    assert_same_bits(terminal_current(vg, vd, vs, params, polarity),
                     reference_current(vg, vd, vs, params, polarity))
    for value, reference in zip(
            terminal_current_and_derivatives(vg, vd, vs, params, polarity),
            reference_current_and_derivatives(vg, vd, vs, params,
                                              polarity)):
        assert_same_bits(value, reference)


def _polarity(flavor):
    return FinFET(getattr(LIB, flavor)).polarity_sign


#: Terminal voltages: anywhere in +-2 V, with both signed zeros.
voltage = st.one_of(st.sampled_from((0.0, -0.0)),
                    st.floats(-2.0, 2.0, allow_nan=False))


def _voltages(data, shape, label):
    """Three ``shape`` arrays (vg, vd, vs); some vs copy their vd."""
    size = int(np.prod(shape))
    vg, vd, vs = (np.array(data.draw(st.lists(voltage, min_size=size,
                                               max_size=size),
                                      label=label + name)).reshape(shape)
                  for name in ("_vg", "_vd", "_vs"))
    tie = np.array(data.draw(st.lists(st.booleans(), min_size=size,
                                      max_size=size),
                             label=label + "_tie")).reshape(shape)
    return vg, vd, np.where(tie, vd, vs)


@settings(max_examples=150, deadline=None)
@given(flavor=st.sampled_from(FLAVORS), vg=voltage, vd=voltage,
       vs=voltage, tie=st.booleans())
def test_scalar_biases_match_the_reference(flavor, vg, vd, vs, tie):
    vs = vd if tie else vs
    assert_kernels_match(vg, vd, vs, getattr(LIB, flavor),
                         _polarity(flavor))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), lanes=st.integers(1, 8))
def test_parameter_column_blocks_match_the_reference(data, lanes):
    flavors = data.draw(st.lists(st.sampled_from(FLAVORS), min_size=1,
                                 max_size=6), label="flavors")
    params = parameter_columns([getattr(LIB, f) for f in flavors])
    polarity = np.array([[_polarity(f)] for f in flavors])
    vg, vd, vs = _voltages(data, (len(flavors), lanes), "block")
    assert_kernels_match(vg, vd, vs, params, polarity)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), samples=st.integers(1, 6), points=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16))
def test_batched_vt_blocks_match_the_reference(data, samples, points,
                                               seed):
    """A ``(k, n, 1)`` per-sample ``vt`` block (the stacked half-circuit
    layout: devices x samples x points)."""
    flavors = data.draw(st.lists(st.sampled_from(FLAVORS), min_size=1,
                                 max_size=3), label="flavors")
    shifts = np.random.default_rng(seed).normal(0.0, 0.03, samples)
    columns = parameter_columns([getattr(LIB, f).with_vt_shifts(shifts)
                                 for f in flavors])
    assert columns.vt.shape == (len(flavors), samples, 1)
    params = SimpleNamespace(**{
        name: column.reshape(column.shape[:1] + (1,) * (3 - column.ndim)
                             + column.shape[1:])
        for name, column in vars(columns).items()})
    polarity = np.array([_polarity(f) for f in flavors]).reshape(-1, 1, 1)
    vg, vd, vs = _voltages(data, (len(flavors), samples, points), "vt")
    assert_kernels_match(vg, vd, vs, params, polarity)


@settings(max_examples=60, deadline=None)
@given(flavor=st.sampled_from(FLAVORS),
       vgs=st.floats(-2.0, 4.0, allow_nan=False),
       vds=st.one_of(st.sampled_from((0.0, -0.0)), st.floats(0.0, 4.0)))
def test_core_models_match_the_reference_for_oriented_biases(flavor, vgs,
                                                             vds):
    """The cores on their domain, ``vds >= 0`` (signed zero included)."""
    params = getattr(LIB, flavor)
    assert_same_bits(ids_core(vgs, vds, params),
                     reference_ids_core(vgs, vds, params))
    for value, reference in zip(
            ids_core_with_derivatives(vgs, vds, params),
            reference_ids_core_with_derivatives(vgs, vds, params)):
        assert_same_bits(value, reference)


@settings(max_examples=60, deadline=None)
@given(flavor=st.sampled_from(FLAVORS),
       vgs=st.floats(-2.0, 4.0, allow_nan=False),
       vds=st.one_of(st.sampled_from((0.0, -0.0)), st.floats(0.0, 4.0)))
def test_gate_and_drain_halves_compose_to_the_reference(flavor, vgs, vds):
    params = getattr(LIB, flavor)
    assert_same_bits(drain_current(vds, gate_drive(vgs, params), params),
                     reference_ids_core(vgs, vds, params))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), flavor=st.sampled_from(FLAVORS),
       samples=st.integers(1, 6), points=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16))
def test_one_gate_drive_serves_every_drain_bias(data, flavor, samples,
                                                points, seed):
    """A gate drive over ``(points,)`` gate biases and a batched ``(n,
    1)`` ``vt``, reused for several ``(n, points)`` drain biases."""
    shifts = np.random.default_rng(seed).normal(0.0, 0.03, (samples, 1))
    params = getattr(LIB, flavor).with_vt_shifts(shifts.ravel())
    floats = st.floats(-2.0, 4.0, allow_nan=False)
    vgs = np.array(data.draw(st.lists(floats, min_size=points,
                                      max_size=points), label="vgs"))
    drive = gate_drive(vgs, params)
    for label in ("vds_0", "vds_1", "vds_2"):
        vds = np.abs(np.array(data.draw(
            st.lists(floats, min_size=samples * points,
                     max_size=samples * points), label=label))
        ).reshape(samples, points)
        assert_same_bits(drain_current(vds, drive, params),
                         reference_ids_core(vgs, vds, params))
