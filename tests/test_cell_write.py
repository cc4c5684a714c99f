"""Write margin: flip-voltage search and assist behavior."""

import numpy as np
import pytest

from repro.cell import (
    CellBias,
    cell_flips,
    flip_wordline_voltage,
    flip_wordline_voltage_batch,
    write_margin,
)
from repro.cell.write import settle_from_one
from repro.errors import CharacterizationError

VDD = 0.45


@pytest.fixture(scope="module")
def hvt_flip(hvt_cell):
    return flip_wordline_voltage(hvt_cell, vdd=VDD, resolution=0.002)


def test_settle_holds_state_with_wl_off(hvt_cell):
    bias = CellBias.write(VDD, v_wl=0.0)
    v_q, v_qb = settle_from_one(hvt_cell, bias)
    assert v_q > 0.9 * VDD
    assert v_qb < 0.1 * VDD


def test_cell_flips_with_strong_wordline(hvt_cell):
    bias = CellBias.write(VDD, v_wl=0.7)
    assert cell_flips(hvt_cell, bias)


def test_cell_does_not_flip_with_weak_wordline(hvt_cell):
    bias = CellBias.write(VDD, v_wl=0.2)
    assert not cell_flips(hvt_cell, bias)


def test_flip_voltage_in_plausible_window(hvt_flip):
    # The paper implies ~382 mV for its HVT cell (540 - 158).
    assert 0.30 < hvt_flip < 0.42


def test_flip_is_threshold(hvt_cell, hvt_flip):
    assert cell_flips(hvt_cell, CellBias.write(VDD, v_wl=hvt_flip + 0.01))
    assert not cell_flips(hvt_cell,
                          CellBias.write(VDD, v_wl=hvt_flip - 0.01))


def test_write_margin_definition(hvt_cell, hvt_flip):
    wm = write_margin(hvt_cell, v_wl_applied=0.54, vdd=VDD,
                      resolution=0.002)
    assert wm == pytest.approx(0.54 - hvt_flip, abs=0.004)


def test_wlod_raises_wm(hvt_cell):
    wm_nominal = write_margin(hvt_cell, v_wl_applied=VDD, vdd=VDD,
                              resolution=0.005)
    wm_boosted = write_margin(hvt_cell, v_wl_applied=0.54, vdd=VDD,
                              resolution=0.005)
    assert wm_boosted == pytest.approx(wm_nominal + 0.09, abs=0.012)


def test_negative_bl_lowers_flip_voltage(hvt_cell, hvt_flip):
    flip_nbl = flip_wordline_voltage(hvt_cell, vdd=VDD, v_bl_low=-0.1,
                                     resolution=0.002)
    assert flip_nbl < hvt_flip - 0.02


def test_lvt_flips_easier_than_hvt(lvt_cell, hvt_flip):
    lvt_flip = flip_wordline_voltage(lvt_cell, vdd=VDD, resolution=0.002)
    assert lvt_flip < hvt_flip


def test_unwritable_cell_raises(hvt_cell):
    # A pull-up made absurdly strong cannot be overpowered by the
    # single-fin access transistor within the search window.
    monster = hvt_cell.with_overrides({
        "pu_l": hvt_cell.params("pu_l").scaled_drive(50.0),
        "pu_r": hvt_cell.params("pu_r").scaled_drive(50.0),
    })
    with pytest.raises(CharacterizationError) as scalar:
        flip_wordline_voltage(monster, vdd=VDD, v_wl_max=0.5,
                              resolution=0.005)
    with pytest.raises(CharacterizationError) as batched:
        flip_wordline_voltage_batch(monster, 2, vdd=VDD, v_wl_max=0.5,
                                    resolution=0.005)
    # Both name the write bias at the top of the search and the WL
    # interval it spanned.
    for raised in (scalar.value, batched.value):
        assert raised.bracket == (0.0, 0.5)
        assert raised.side is None
        assert (raised.bias.vdd, raised.bias.v_bl) == (VDD, 0.0)
        assert np.all(raised.bias.v_wl == 0.5)


def test_bitline_write_margin_positive_at_wlod(hvt_cell):
    from repro.cell import bitline_write_margin

    bwm = bitline_write_margin(hvt_cell, v_wl=0.54, vdd=VDD,
                               resolution=0.005)
    assert 0.02 < bwm < VDD


def test_bitline_write_margin_grows_with_wordline(hvt_cell):
    from repro.cell import bitline_write_margin

    weak = bitline_write_margin(hvt_cell, v_wl=0.45, vdd=VDD,
                                resolution=0.005)
    strong = bitline_write_margin(hvt_cell, v_wl=0.60, vdd=VDD,
                                  resolution=0.005)
    assert strong > weak


def test_bitline_write_margin_zero_when_unwritable(hvt_cell):
    from repro.cell import bitline_write_margin

    assert bitline_write_margin(hvt_cell, v_wl=0.20, vdd=VDD,
                                resolution=0.01) == 0.0
