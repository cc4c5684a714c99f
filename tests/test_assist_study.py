"""Minimum-assist level scans: a level no scan can reach raises a typed
error that names the scanned interval and, where the scan solves under
a cell bias, the last one."""

import pytest

from repro.assist.study import (
    matching_negative_gnd,
    maximum_wl_underdrive,
    minimum_negative_bl,
    minimum_vdd_boost,
)
from repro.cell.bias import CellBias
from repro.errors import CharacterizationError


def test_unreachable_vdd_boost_names_bracket_and_bias(library, hvt_cell):
    v_max = library.vdd + 0.02
    with pytest.raises(CharacterizationError) as excinfo:
        minimum_vdd_boost(library, hvt_cell, delta=1.0, v_max=v_max)
    error = excinfo.value
    assert error.bracket == pytest.approx((library.vdd, v_max))
    assert isinstance(error.bias, CellBias)
    assert error.bias.v_ddc == pytest.approx(v_max)


def test_unreachable_wl_underdrive_names_bracket_and_bias(library,
                                                         hvt_cell):
    with pytest.raises(CharacterizationError) as excinfo:
        maximum_wl_underdrive(library, hvt_cell, delta=1.0,
                              resolution=0.2)
    error = excinfo.value
    assert error.bracket == pytest.approx((library.vdd - 0.2, library.vdd))
    assert isinstance(error.bias, CellBias)
    assert error.bias.v_wl == pytest.approx(library.vdd - 0.2)
    # The message names the last level scanned, the bracket's low end.
    assert "even at V_WL = %.0f mV" % (error.bracket[0] * 1e3) \
        in str(error)


def test_unreachable_negative_bl_names_bracket(library, hvt_cell):
    """One level (V_BL = 0) keeps this to a single flip bisection."""
    with pytest.raises(CharacterizationError) as excinfo:
        minimum_negative_bl(library, hvt_cell, delta=1.0, resolution=0.5)
    error = excinfo.value
    assert error.bracket == (0.0, 0.0)
    assert error.bias is None


def test_unreachable_negative_gnd_match_names_bracket(library, hvt_cell,
                                                      lvt_cell):
    """A scan of the unassisted level alone cannot match: HVT without
    negative Gnd reads about twice as slowly as LVT."""
    with pytest.raises(CharacterizationError) as excinfo:
        matching_negative_gnd(library, hvt_cell, lvt_cell, resolution=0.5)
    error = excinfo.value
    assert error.bracket == (0.0, 0.0)
    assert error.bias is None
