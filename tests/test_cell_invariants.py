"""Physical invariants of the lane-batched cell solvers over random draws.

``tests/test_montecarlo_parity.py`` shows the batched solvers equal the
scalar ones bit for bit; these tests check what both must obey: read
current grows with every read-assist rail, and the static noise margin
is non-negative and blind to which side of the cell a variation lands.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cell import (
    TRANSISTOR_ROLES,
    CellBias,
    batched_cell,
    sample_shift_matrix,
    snm_samples,
)
from repro.cell.read_current import read_state_batch
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
