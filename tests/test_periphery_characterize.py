"""The full characterization bundle and its cache round trip."""

import pytest

from repro.lut import CharacterizationCache
from repro.periphery import characterize
from repro.periphery.characterize import (
    PAPER_WRITE_DELAY_NO_ASSIST,
    _from_dict,
    _to_dict,
    CharacterizationGrids,
)


def test_lut_axis_coverage(hvt_char):
    """Every LUT must cover the optimizer's voltage ranges."""
    lo, hi = hvt_char.i_cvdd.x_range
    assert lo <= 0.45 and hi >= 0.70
    lo, hi = hvt_char.i_cvss.x_range
    assert lo <= -0.24 and hi >= 0.0
    assert hvt_char.i_read.x_range[1] >= 0.70
    assert hvt_char.i_read.y_range[0] <= -0.24
    lo, hi = hvt_char.d_write_sram.x_range
    assert lo <= 0.45 and hi >= 0.70


def test_write_delay_anchored_to_paper(hvt_char):
    """The HVT no-assist cell write delay anchors to 1.5 ps."""
    no_assist = hvt_char.d_write_sram(hvt_char.vdd)
    assert no_assist == pytest.approx(PAPER_WRITE_DELAY_NO_ASSIST,
                                      rel=0.10)


def test_write_delay_falls_with_overdrive(hvt_char):
    assert hvt_char.d_write_sram(0.60) < hvt_char.d_write_sram(0.48)


def test_i_read_lut_monotone_in_v_ssc(hvt_char):
    currents = [hvt_char.i_read(0.55, v)
                for v in (0.0, -0.1, -0.2, -0.24)]
    assert all(a < b for a, b in zip(currents, currents[1:]))


def test_leakage_in_bundle_matches_paper(hvt_char, lvt_char):
    assert hvt_char.p_leak_sram == pytest.approx(0.082e-9, rel=0.03)
    assert lvt_char.p_leak_sram == pytest.approx(1.692e-9, rel=0.03)


def test_flavors_share_periphery(hvt_char, lvt_char):
    """Periphery is always LVT: both bundles carry identical
    decoder/driver characterizations and Table-2 drive constants."""
    assert hvt_char.i_on_pfet == pytest.approx(lvt_char.i_on_pfet)
    assert hvt_char.i_on_tg == pytest.approx(lvt_char.i_on_tg)
    assert hvt_char.decoder.delay(7) == pytest.approx(
        lvt_char.decoder.delay(7)
    )


def test_serialization_round_trip(hvt_char, library):
    data = _to_dict(hvt_char)
    rebuilt = _from_dict(data, library, CharacterizationGrids())
    assert rebuilt.p_leak_sram == hvt_char.p_leak_sram
    assert rebuilt.i_read(0.55, -0.2) == pytest.approx(
        hvt_char.i_read(0.55, -0.2)
    )
    assert rebuilt.decoder.delay(8) == pytest.approx(
        hvt_char.decoder.delay(8)
    )
    assert rebuilt.sense.delay == hvt_char.sense.delay


def test_cache_hit_returns_equivalent_bundle(library, char_cache):
    again = characterize(library, "hvt", cache=char_cache)
    assert again.p_leak_sram > 0
    assert again.v_wl_flip > 0.3


def test_grids_signature_changes_with_resolution():
    a = CharacterizationGrids()
    b = CharacterizationGrids(v_wl_points=5)
    assert a.signature() != b.signature()


@pytest.mark.parametrize("v_bl", [(), (-0.1,), (0.0, -0.1), (-0.1, 0.05)])
def test_grids_reject_v_bl_axis_not_ending_at_zero(v_bl):
    """The 0.0 lane of the negative-BL flip sweep is the no-assist flip
    voltage, so the axis must end there."""
    with pytest.raises(ValueError, match="end at 0.0"):
        CharacterizationGrids(v_bl=v_bl)
