"""Physical invariants of the lane-batched cell solvers over random draws.

``tests/test_montecarlo_parity.py`` shows the batched solvers equal the
scalar ones bit for bit; these tests check what both must obey: read
current grows with every read-assist rail, and the static noise margin
is non-negative and blind to which side of the cell a variation lands.
They also check that the half-circuit solve's two device-kernel paths
(one stacked call, or one call per device) and the lane-batched RSNM
axis of the yield constraint keep the scalar solvers' bits.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cell import (
    TRANSISTOR_ROLES,
    CellBias,
    batched_cell,
    sample_shift_matrix,
    snm_samples,
)
from repro.cell import snm
from repro.cell.read_current import read_state_batch
from repro.cell.snm import butterfly, solve_half_circuit
from repro.opt import YieldConstraint
from repro.opt.space import DesignSpace
from repro.periphery.characterize import CharacterizationGrids

VDD = 0.45
GRIDS = CharacterizationGrids()
# (+ 0.0 turns the grid's rounded -0.0 end into 0.0.)
V_DDC_BOX = (float(min(GRIDS.v_ddc)), float(max(GRIDS.v_ddc)))
V_SSC_BOX = (float(min(GRIDS.v_ssc)), float(max(GRIDS.v_ssc)) + 0.0)
#: Read wordline levels up to Vdd.  Above ~0.6 V the disturb lifts Q
#: enough that I_read falls again (HVT peaks near 0.62 V), so the
#: monotonicity claim stops at Vdd.
V_WL_BOX = (0.0, VDD)
#: The smallest rail step compared [V]: closer pairs would probe the
#: fixed point's tolerance, not the physics.
MIN_STEP = 0.01

#: Column permutation swapping each left device with its right twin.
MIRROR = [
    TRANSISTOR_ROLES.index(role[:-1] + {"l": "r", "r": "l"}[role[-1]])
    for role in TRANSISTOR_ROLES
]

flavors = st.sampled_from(("lvt", "hvt"))


def _pair(data, box):
    lo = data.draw(st.floats(box[0], box[1] - MIN_STEP), label="lo")
    hi = data.draw(st.floats(min(lo + MIN_STEP, box[1]), box[1]),
                   label="hi")
    return lo, hi


def _column(value):
    return np.asarray(value, dtype=float).reshape(-1, 1) \
        if np.ndim(value) else value


def _read_currents(cell, v_ddc, v_ssc, v_wl=VDD):
    """I_read [A] of two lanes in one batched fixed point; the swept
    rail is a pair, the others scalars."""
    bias = CellBias.read(vdd=VDD, v_ddc=_column(v_ddc),
                         v_ssc=_column(v_ssc)).with_wordline(_column(v_wl))
    _, _, flipped, i_read = read_state_batch(cell, bias, 2)
    assert not flipped.any()
    return i_read


def _cell(flavor, lvt_cell, hvt_cell):
    return lvt_cell if flavor == "lvt" else hvt_cell


@settings(max_examples=25, deadline=None)
@given(data=st.data(), flavor=flavors)
def test_read_current_increases_with_v_ddc(lvt_cell, hvt_cell, data, flavor):
    lo, hi = _pair(data, V_DDC_BOX)
    v_ssc = data.draw(st.floats(*V_SSC_BOX), label="v_ssc")
    i_lo, i_hi = _read_currents(_cell(flavor, lvt_cell, hvt_cell),
                                (lo, hi), v_ssc)
    assert i_lo < i_hi


@settings(max_examples=25, deadline=None)
@given(data=st.data(), flavor=flavors)
def test_read_current_increases_with_negative_v_ssc(lvt_cell, hvt_cell,
                                                    data, flavor):
    lo, hi = _pair(data, V_SSC_BOX)
    v_ddc = data.draw(st.floats(*V_DDC_BOX), label="v_ddc")
    i_lo, i_hi = _read_currents(_cell(flavor, lvt_cell, hvt_cell),
                                v_ddc, (lo, hi))
    assert i_lo > i_hi


@settings(max_examples=25, deadline=None)
@given(data=st.data(), flavor=flavors)
def test_read_current_increases_with_v_wl_up_to_vdd(lvt_cell, hvt_cell,
                                                    data, flavor):
    lo, hi = _pair(data, V_WL_BOX)
    v_ddc = data.draw(st.floats(*V_DDC_BOX), label="v_ddc")
    v_ssc = data.draw(st.floats(*V_SSC_BOX), label="v_ssc")
    i_lo, i_hi = _read_currents(_cell(flavor, lvt_cell, hvt_cell),
                                v_ddc, v_ssc, (lo, hi))
    assert i_lo < i_hi


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), flavor=flavors,
       read=st.booleans())
def test_snm_is_nonnegative_and_mirror_invariant(lvt_cell, hvt_cell, seed,
                                                 flavor, read):
    """Swapping the left and right columns of the shift matrix mirrors
    every sample's butterfly, which swaps its two lobes: the SNM (the
    smaller lobe) must not move beyond interpolation rounding."""
    cell = _cell(flavor, lvt_cell, hvt_cell)
    bias = CellBias.read(vdd=VDD) if read else CellBias.hold(vdd=VDD)
    shifts = sample_shift_matrix(4, seed=seed)
    snm = snm_samples(batched_cell(cell, shifts), bias, access_on=read,
                      points=41)
    mirrored = snm_samples(batched_cell(cell, shifts[:, MIRROR]), bias,
                           access_on=read, points=41)
    assert np.all(snm >= 0.0)
    assert np.max(np.abs(snm - mirrored)) <= 1e-12


@contextmanager
def _kernel(stacked):
    """Force the half-circuit solve onto one device-kernel path."""
    saved = snm._STACK_MAX_BLOCK
    snm._STACK_MAX_BLOCK = math.inf if stacked else 0
    try:
        yield
    finally:
        snm._STACK_MAX_BLOCK = saved


def _bits(value):
    return type(value), np.shape(value), np.asarray(value).tobytes()


#: Input layouts of a half-circuit solve: one point, a ``(P,)`` sweep, a
#: ``(k, 1)`` lane column and a ``(k, P)`` grid.
LAYOUTS = ("scalar", "points", "column", "grid")

#: (layout, batched cell, block above the kernel switch); a scalar input
#: on a scalar cell is one element, so it stays below.
KERNEL_CASES = [
    (layout, batched, above)
    for layout in LAYOUTS for batched in (False, True)
    for above in (False, True)
    if not (layout == "scalar" and not batched and above)
]


@pytest.mark.parametrize("layout, batched, above", KERNEL_CASES)
@settings(max_examples=4, deadline=None)
@given(data=st.data(), flavor=flavors, side=st.sampled_from("lr"),
       access_on=st.booleans(),
       operation=st.sampled_from(("hold", "read", "write")))
def test_stacked_and_per_device_solves_are_bitwise_equal(
        lvt_cell, hvt_cell, layout, batched, above, data, flavor, side,
        access_on, operation):
    v_ddc = data.draw(st.floats(0.45, 0.72), label="v_ddc")
    v_ssc = data.draw(st.floats(-0.25, 0.0), label="v_ssc")
    v_bl_low = data.draw(st.floats(-0.2, 0.0), label="v_bl_low")
    v_wl = {"hold": 0.0, "read": VDD}.get(
        operation, data.draw(st.floats(VDD, 0.8), label="v_wl"))
    v_bl = v_bl_low if operation == "write" else VDD
    # The block (lanes x points) lands on the case's side of the switch,
    # up to 3x its size.
    limit = snm._STACK_MAX_BLOCK

    def count(per_item, label):
        lo, hi = ((limit // per_item + 1, 3 * limit // per_item) if above
                  else (2, limit // per_item))
        return data.draw(st.integers(lo, max(lo, hi)), label=label)

    has_lanes = batched or layout in ("column", "grid")
    has_points = layout in ("points", "grid")
    points = (data.draw(st.integers(2, 48), label="points")
              if has_lanes and has_points else
              count(1, "points") if has_points else 2)
    lanes = count(points if has_points else 1, "lanes") if has_lanes else 1
    cell = _cell(flavor, lvt_cell, hvt_cell)
    if batched:
        cell = batched_cell(cell, sample_shift_matrix(
            lanes, seed=data.draw(st.integers(0, 2 ** 16), label="seed")))
    elif layout == "column":
        # Scalar cell: the lanes are per-lane rails instead.
        v_ddc = np.linspace(v_ddc, 0.72, lanes).reshape(-1, 1)
    bias = CellBias(vdd=VDD, v_ddc=v_ddc, v_ssc=v_ssc, v_wl=v_wl,
                    v_bl=v_bl, v_blb=VDD)
    sweep = np.linspace(v_ssc - 0.05, 0.75, points)
    v_in = {"scalar": data.draw(st.floats(-0.3, 0.75), label="v_in"),
            "points": sweep,
            "column": np.linspace(v_ssc - 0.05, 0.75, lanes).reshape(-1, 1),
            "grid": np.tile(sweep, (lanes, 1))}[layout]
    with _kernel(stacked=True):
        stacked = solve_half_circuit(cell, side, v_in, bias, access_on)
    with _kernel(stacked=False):
        per_device = solve_half_circuit(cell, side, v_in, bias, access_on)
    assert _bits(stacked) == _bits(per_device)
    assert _bits(solve_half_circuit(cell, side, v_in, bias, access_on)) \
        == _bits(per_device)
    # The net currents themselves, at and around the solved outputs
    # (where a rounding difference would change no bisection step).
    v_out = np.atleast_1d(per_device)
    currents = []
    for stacked in (True, False):
        with _kernel(stacked):
            current = snm._net_current(cell, side, np.atleast_1d(v_in),
                                       bias, access_on, v_out, v_out)
        currents.append([_bits(current(v_out + shift))
                         for shift in (-0.05, 0.0, 0.05)])
    assert currents[0] == currents[1]


@settings(max_examples=8, deadline=None)
@given(data=st.data(), flavor=flavors)
def test_rsnm_axis_equals_scalar_butterflies(paper_session, data, flavor):
    """``margins_grid`` over a random V_SSC subset (with duplicates,
    levels one memo key apart by rounding only, and levels memoized
    beforehand) reads the bits of a scalar butterfly at each key's
    first level."""
    axis = DesignSpace().v_ssc_values
    v_ddc = data.draw(st.sampled_from((0.55, 0.6, 0.64)), label="v_ddc")
    memoized = data.draw(st.lists(st.sampled_from(axis), max_size=3),
                         label="memoized")
    levels = data.draw(st.lists(st.sampled_from(axis), min_size=1,
                                max_size=8), label="levels")
    # Within 5e-5 V of an axis level: the same 4-digit memo key.
    levels += [v + data.draw(st.floats(-4e-5, 4e-5), label="jitter")
               for v in data.draw(st.lists(st.sampled_from(levels),
                                           max_size=3), label="near")]
    levels = data.draw(st.permutations(levels), label="order")
    constraint = YieldConstraint(paper_session.library, flavor,
                                 paper_session.delta)
    constraint._v_flip = paper_session.chars[flavor].v_wl_flip
    first = {}
    for v in memoized:
        constraint.rsnm(v_ddc, v)
    for v in memoized + levels:
        first.setdefault(round(v, 4), v)
    _, rsnm, _ = constraint.margins_grid(v_ddc, levels, v_ddc)
    cell = paper_session.cells[flavor]
    vdd = paper_session.library.vdd
    expected = {
        key: butterfly(cell, CellBias.read(vdd=vdd, v_ddc=v_ddc, v_ssc=v),
                       access_on=True).snm
        for key, v in first.items()}
    assert rsnm.tobytes() == np.array(
        [expected[round(v, 4)] for v in levels]).tobytes()
    assert all(type(value) is float
               for value in constraint._rsnm_cache.values())
