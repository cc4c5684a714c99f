"""Noise-margin extraction: VTC solver, butterfly geometry, paper shapes,
and the device-kernel paths of the half-circuit solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cell import CellBias, butterfly, hold_snm, read_snm, snm, vtc
from repro.cell.montecarlo import (
    batched_cell,
    sample_cells,
    sample_shift_matrix,
)
from repro.cell.snm import (
    HalfCircuit,
    _largest_squares,
    half_circuit_output,
    snm_samples,
    solve_half_circuit,
)
from repro.cell.write import settle_from_one_batch
from repro.errors import CharacterizationError
from repro.periphery.characterize import CharacterizationGrids
from repro.spice import Circuit, operating_point

VDD = 0.45
GRIDS = CharacterizationGrids()


def test_vtc_endpoints(hvt_cell):
    bias = CellBias.hold()
    v_in, v_out = vtc(hvt_cell, "l", bias, access_on=False, points=31)
    assert v_out[0] == pytest.approx(bias.v_ddc, abs=0.01)
    assert v_out[-1] == pytest.approx(bias.v_ssc, abs=0.01)


def test_vtc_monotone_decreasing(hvt_cell):
    bias = CellBias.read()
    _v_in, v_out = vtc(hvt_cell, "l", bias, access_on=True, points=41)
    assert all(a >= b - 1e-9 for a, b in zip(v_out, v_out[1:]))


def test_read_vtc_low_level_disturbed(hvt_cell):
    """With the access on and BL high, the output cannot reach CVSS."""
    bias = CellBias.read()
    _v_in, v_out = vtc(hvt_cell, "l", bias, access_on=True, points=21)
    assert v_out[-1] > 0.02  # read-disturb voltage on the '0' node


def test_fast_solver_matches_full_newton(hvt_cell):
    """The bisection half-circuit VTC equals the full MNA solution."""
    bias = CellBias.read()
    for v_in in (0.0, 0.15, 0.3, 0.45):
        fast = half_circuit_output(hvt_cell, "l", v_in, bias,
                                   access_on=True)
        circuit = hvt_cell.build_circuit(bias, drive_qb=v_in)
        sol = operating_point(circuit, initial_guess={"q": VDD - v_in})
        assert fast == pytest.approx(sol["q"], abs=2e-4)


def test_solve_half_circuit_vectorized(hvt_cell):
    bias = CellBias.hold()
    v_in = np.array([0.0, 0.2, 0.45])
    vec = solve_half_circuit(hvt_cell, "l", v_in, bias, access_on=False)
    for k, v in enumerate(v_in):
        scalar = half_circuit_output(hvt_cell, "l", float(v), bias,
                                     access_on=False)
        assert vec[k] == pytest.approx(scalar, abs=1e-6)


def test_largest_squares_on_known_geometry():
    """Two offset lines y = -x + c: the inscribed square side is
    exactly the offset / 2 (u-separation / sqrt(2) with u-distance
    offset/sqrt(2) ... verified analytically: for curves y=-x+c1 and
    y=-x+c2 the diagonal gap is |c1-c2|/sqrt(2)*sqrt(2)? -> side
    |c1-c2|/2)."""
    x = np.linspace(0.0, 1.0, 101)
    y1 = -x + 1.0
    y2 = -x + 0.5
    s_a, s_b = _largest_squares(x, y1, x, y2)
    assert max(s_a, s_b) == pytest.approx(0.25, abs=1e-3)
    assert min(s_a, s_b) == pytest.approx(-0.25, abs=1e-3)


def test_butterfly_symmetric_cell_equal_lobes(hvt_cell):
    result = butterfly(hvt_cell, CellBias.hold(), access_on=False)
    assert result.lobe_low == pytest.approx(result.lobe_high, rel=1e-6)
    assert result.bistable


def test_butterfly_asymmetric_cell_unequal_lobes(hvt_cell):
    skewed = hvt_cell.with_overrides(
        {"pd_l": hvt_cell.params("pd_l").with_vt_shift(0.05)}
    )
    result = butterfly(skewed, CellBias.hold(), access_on=False)
    assert result.lobe_low < result.lobe_high
    assert result.snm == result.lobe_low


def test_hold_snm_exceeds_read_snm(hvt_cell, lvt_cell):
    for cell in (hvt_cell, lvt_cell):
        assert hold_snm(cell, VDD) > read_snm(cell, vdd=VDD)


def test_hvt_margins_beat_lvt(hvt_cell, lvt_cell):
    assert hold_snm(hvt_cell, VDD) >= hold_snm(lvt_cell, VDD)
    assert read_snm(hvt_cell, vdd=VDD) > read_snm(lvt_cell, vdd=VDD)


def test_vdd_boost_raises_rsnm(hvt_cell):
    levels = [0.45, 0.55, 0.65]
    snms = [read_snm(hvt_cell, vdd=VDD, v_ddc=v) for v in levels]
    assert snms[0] < snms[1] < snms[2]


def test_hvt_meets_delta_at_550(hvt_cell):
    """The paper's V_DDC = 550 mV cross point."""
    delta = 0.35 * VDD
    assert read_snm(hvt_cell, vdd=VDD, v_ddc=0.55) >= delta
    assert read_snm(hvt_cell, vdd=VDD, v_ddc=0.53) < delta


def test_wl_underdrive_raises_rsnm(hvt_cell):
    low = read_snm(hvt_cell, vdd=VDD, v_wl=0.30)
    nominal = read_snm(hvt_cell, vdd=VDD)
    assert low > nominal


def test_paper_rsnm_ratio_direction(hvt_cell, lvt_cell):
    ratio = read_snm(hvt_cell, vdd=VDD) / read_snm(lvt_cell, vdd=VDD)
    assert ratio > 1.05  # paper: 1.9x (our compact model: weaker, same sign)


def test_hsnm_scales_with_vdd(hvt_cell):
    assert hold_snm(hvt_cell, 0.30) < hold_snm(hvt_cell, 0.45)


class _StuckDevice:
    """Drives a constant current whatever its terminal voltages."""

    def current(self, vg, vd, vs):
        return 1e-6 + 0.0 * np.asarray(vd, dtype=float)


class _StuckCell:
    """A half circuit whose net out-current is +1 uA at every output
    voltage: pull-down + pull-up - access = 1 + 1 - 1 uA."""

    def device(self, role):
        return _StuckDevice()


def test_unbracketed_bisection_error_says_where():
    bias = CellBias.read(vdd=VDD, v_ddc=0.55, v_ssc=-0.1)
    with pytest.raises(CharacterizationError,
                       match="not bracketed") as info:
        solve_half_circuit(_StuckCell(), "r", np.linspace(-0.1, 0.55, 5),
                           bias, access_on=True)
    err = info.value
    assert err.side == "r"
    assert err.bias is bias
    # The bracket spans the lowest and highest boundary voltage +-0.1 V.
    assert err.bracket == pytest.approx((-0.2, 0.65))
    assert "[-0.20, 0.65]" in str(err)


def test_characterization_error_context_defaults_to_none():
    err = CharacterizationError("monostable")
    assert (err.side, err.bias, err.bracket) == (None, None, None)


def _bits(value):
    return type(value), np.shape(value), np.asarray(value).tobytes()


def _half_circuit_solves(cell, lanes):
    """A settle loop (both sides under one write bias, per-lane wordline
    levels), a read VTC sweep and a scalar hold solve of ``cell``."""
    write = CellBias.write(vdd=VDD, v_wl=np.linspace(0.2, 0.7, lanes)
                           .reshape(-1, 1))
    return [
        *settle_from_one_batch(cell, write, lanes),
        solve_half_circuit(cell, "l", np.linspace(0.0, VDD, 9),
                           CellBias.read(), access_on=True),
        solve_half_circuit(cell, "r", 0.2, CellBias.hold(),
                           access_on=False),
    ]


@pytest.fixture(scope="module")
def three_cells(lvt_cell, hvt_cell):
    """An HVT cell, an LVT cell and a 4-sample Monte Carlo HVT cell (with
    their lane counts), each with the bits of its solves run alone."""
    cells = {
        "hvt": (hvt_cell, 3),
        "lvt": (lvt_cell, 3),
        "mc": (batched_cell(hvt_cell, sample_shift_matrix(4, seed=7)), 4),
    }
    return {name: (case, [_bits(v) for v in _half_circuit_solves(*case)])
            for name, case in cells.items()}


@settings(max_examples=4, deadline=None)
@given(order=st.lists(st.sampled_from(("hvt", "lvt", "mc")), min_size=2,
                      max_size=4))
def test_half_circuit_solves_never_serve_another_cells_block(three_cells,
                                                             order):
    """Solves of the three cells, alternating in any order in one
    process, each read the bits of the same cell solved alone."""
    for name in order:
        case, alone = three_cells[name]
        assert [_bits(v) for v in _half_circuit_solves(*case)] == alone, \
            name


def test_half_circuit_reuses_its_setup_across_input_shapes(hvt_cell):
    """One :class:`HalfCircuit` solving inputs of changing shapes (its
    setup is kept per shape) returns what a fresh solve of each input
    returns."""
    bias = CellBias.read(vdd=VDD, v_ddc=np.array([[0.45], [0.6]]),
                         v_ssc=np.array([[0.0], [-0.2]]))
    half = HalfCircuit(hvt_cell, "r", bias, access_on=True)
    inputs = [np.array([[0.1], [0.3]]), 0.25,
              np.array([[0.0, 0.2, 0.4], [0.1, 0.3, 0.5]]),
              np.array([[0.2], [0.05]]), 0.4]
    for v_in in inputs:
        assert _bits(half.solve(v_in)) == _bits(
            solve_half_circuit(hvt_cell, "r", v_in, bias, access_on=True))


@st.composite
def half_circuit_biases(draw):
    """``(bias, access_on)``: hold; a read with rails anywhere in the
    characterization box, its wordline at Vdd or overdriven up to 1.0 V;
    or a write with the bitline down to -0.2 V, which pulls the output
    below V_SSC."""
    kind = draw(st.sampled_from(("hold", "read", "write")), label="kind")
    if kind == "hold":
        return CellBias.hold(VDD), False
    v_wl = draw(st.one_of(st.just(VDD), st.floats(VDD, 1.0)), label="v_wl")
    if kind == "write":
        return CellBias.write(vdd=VDD, v_wl=v_wl, v_bl_low=draw(
            st.floats(-0.2, 0.0), label="v_bl_low")), True
    read = CellBias.read(
        vdd=VDD,
        v_ddc=draw(st.floats(min(GRIDS.v_ddc), max(GRIDS.v_ddc)),
                   label="v_ddc"),
        v_ssc=draw(st.floats(min(GRIDS.v_ssc), max(GRIDS.v_ssc)),
                   label="v_ssc"))
    return read.with_wordline(v_wl), True


@settings(max_examples=30, deadline=None)
@given(flavor=st.sampled_from(("lvt", "hvt")), side=st.sampled_from("lr"),
       samples=st.integers(1, 150), points=st.integers(2, 121),
       biased=half_circuit_biases(), seed=st.integers(0, 2 ** 16))
def test_per_device_path_equals_the_reference_current(
        lvt_cell, hvt_cell, flavor, side, samples, points, biased, seed):
    """The per-device path (gate drive once per input, drain half per
    step, ``FinFET.current`` where a device is reversed) returns the
    bits of ``_half_circuit_current`` at the bracket ends, inside the
    swing and at outputs scattered over the whole bracket."""
    bias, access_on = biased
    cell = batched_cell({"lvt": lvt_cell, "hvt": hvt_cell}[flavor],
                        sample_shift_matrix(samples, seed=seed))
    devices = [cell.device(role + "_" + side) for role in snm._STACK_ROLES]
    current = snm._per_device_current(
        devices, bias, bias.v_wl if access_on else 0.0,
        bias.v_bl if side == "l" else bias.v_blb)
    v_in = np.linspace(bias.v_ssc, bias.v_ddc, points)
    half = HalfCircuit(cell, side, bias, access_on)
    rng = np.random.default_rng(seed)
    outputs = [half.lo_bound + 0.0 * v_in, half.hi_bound + 0.0 * v_in,
               v_in[::-1].copy(),
               np.full((samples, points), 0.5 * (bias.v_ssc + bias.v_ddc)),
               rng.uniform(half.lo_bound, half.hi_bound, (samples, points))]
    net = current(v_in)
    for v_out in outputs:
        expected = snm._half_circuit_current(cell, side, v_in, v_out, bias,
                                             access_on)
        value = net(v_out)
        assert value.shape == expected.shape
        assert value.tobytes() == expected.tobytes()


@pytest.mark.parametrize("flavor", ["lvt", "hvt"])
@pytest.mark.parametrize("bias, access_on", [
    (CellBias.hold(VDD), False),
    (CellBias.read(vdd=VDD, v_ddc=0.55, v_ssc=-0.1), True),
], ids=["hold", "read"])
def test_snm_samples_above_the_stacking_threshold_equal_butterflies(
        lvt_cell, hvt_cell, flavor, bias, access_on):
    """A Monte Carlo block above ``_STACK_MAX_BLOCK`` (the per-device
    path) reads, lane by lane, the bits of each sample's own butterfly
    (41 elements, the stacked path)."""
    points = 41
    samples = snm._STACK_MAX_BLOCK // points + 2
    assert samples * points > snm._STACK_MAX_BLOCK
    cell = {"lvt": lvt_cell, "hvt": hvt_cell}[flavor]
    lanes = snm_samples(batched_cell(cell, sample_shift_matrix(samples,
                                                                seed=5)),
                        bias, access_on, points=points)
    alone = [butterfly(sample, bias, access_on, points=points).snm
             for sample in sample_cells(cell, samples, seed=5)]
    assert lanes.tobytes() == np.array(alone).tobytes()
