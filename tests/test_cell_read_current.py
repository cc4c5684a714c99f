"""Read current: DC read state, assist response, grids."""

import numpy as np
import pytest

from repro.assist import bitline_delay
from repro.cell import CellBias, read_current, read_current_grid, read_state
from repro.cell.read_current import read_state_batch
from repro.errors import CharacterizationError

VDD = 0.45


def test_read_state_disturb(hvt_cell):
    state = read_state(hvt_cell, vdd=VDD)
    assert not state.flipped
    assert 0.0 < state.v_q < 0.2          # read disturb on the '0' node
    assert state.v_qb > 0.85 * VDD        # '1' node barely droops
    assert state.i_read > 0


def test_read_current_magnitude(hvt_cell):
    """The paper's HVT fit predicts ~5.7 uA with no assist."""
    i = read_current(hvt_cell, vdd=VDD)
    assert 2e-6 < i < 12e-6


def test_lvt_reads_about_twice_hvt(hvt_cell, lvt_cell):
    ratio = read_current(lvt_cell, vdd=VDD) / read_current(hvt_cell, vdd=VDD)
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_negative_gnd_boosts_read_current(hvt_cell):
    base = read_current(hvt_cell, vdd=VDD, v_ddc=0.55)
    boosted = read_current(hvt_cell, vdd=VDD, v_ddc=0.55, v_ssc=-0.24)
    assert boosted / base > 3.0   # paper: 4.3x


def test_read_current_monotone_in_v_ssc(hvt_cell):
    currents = [
        read_current(hvt_cell, vdd=VDD, v_ddc=0.55, v_ssc=v)
        for v in (0.0, -0.08, -0.16, -0.24)
    ]
    assert all(a < b for a, b in zip(currents, currents[1:]))


def test_vdd_boost_barely_moves_read_current(hvt_cell):
    """Why the paper sets V_DDC to its minimum: boosting the cell rail
    strengthens the pull-down but not the access device, so I_read is
    nearly flat in V_DDC (no read-delay benefit)."""
    base = read_current(hvt_cell, vdd=VDD, v_ddc=0.45)
    boosted = read_current(hvt_cell, vdd=VDD, v_ddc=0.65)
    gain_from_boost = boosted / base
    gain_from_neg_gnd = (
        read_current(hvt_cell, vdd=VDD, v_ddc=0.45, v_ssc=-0.20) / base
    )
    assert gain_from_boost < 1.5
    assert gain_from_neg_gnd > 2.0 * gain_from_boost


def test_read_current_grid_shape(hvt_cell):
    grid = read_current_grid(hvt_cell, [0.45, 0.55], [-0.1, 0.0], vdd=VDD)
    assert grid.shape == (2, 2)
    assert np.all(grid > 0)
    # More negative V_SSC (first column) gives more current.
    assert grid[0, 0] > grid[0, 1]


def test_custom_bias_object(hvt_cell):
    bias = CellBias.read(vdd=VDD, v_ddc=0.55, v_ssc=-0.1)
    direct = read_current(hvt_cell, bias=bias)
    via_args = read_current(hvt_cell, vdd=VDD, v_ddc=0.55, v_ssc=-0.1)
    assert direct == pytest.approx(via_args, rel=1e-6)


def test_read_that_collapses_the_cell_is_flipped(library, hvt_cell):
    """At V_WL = 0.8 V the composed half-circuit maps cross only once,
    at v_q ~ v_qb ~ 0.379 V: the disturb leaves the cell a single
    (midpoint) equilibrium, so no stored value survives the read."""
    bias = CellBias.read(vdd=VDD).with_wordline(0.8)
    state = read_state(hvt_cell, bias=bias)
    assert abs(state.v_qb - state.v_q) < 1e-3
    assert state.flipped
    _, _, flipped, _ = read_state_batch(hvt_cell, bias, 1)
    assert flipped.tolist() == [True]
    with pytest.raises(CharacterizationError) as raised:
        read_current(hvt_cell, bias=bias)
    assert raised.value.bias == bias
    assert bitline_delay(library, hvt_cell, VDD, 0.0, v_wl=0.8) \
        == float("inf")


def test_read_at_the_collapse_edge_converges_and_is_flipped(
        library, hvt_cell, monkeypatch):
    """At V_WL = 0.7 V the fixed point creeps toward the midpoint for
    several hundred iterations (past a 300-iteration cap it raised).
    It must converge to a collapsed state, bitwise the same through
    the scalar and batched solvers, and the BL delay there is inf."""
    from repro.assist import study

    bias = CellBias.read(vdd=VDD).with_wordline(0.7)
    # Spy on the scalar state bitline_delay solves, so the edge is
    # solved once per solver.
    scalar = []

    def recording(cell, bias):
        scalar.append(read_state(cell, bias=bias))
        return scalar[-1]

    monkeypatch.setattr(study, "read_state", recording)
    assert bitline_delay(library, hvt_cell, VDD, 0.0, v_wl=0.7) \
        == float("inf")
    (state,) = scalar
    assert state.flipped
    assert abs(state.v_qb - state.v_q) < 1e-3
    v_q, v_qb, flipped, i_read = read_state_batch(hvt_cell, bias, 1)
    assert flipped.tolist() == [True]
    assert (v_q[0], v_qb[0], i_read[0]) == (state.v_q, state.v_qb,
                                            state.i_read)
