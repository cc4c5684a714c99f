"""Experiment drivers (light versions over the shared session)."""

import math

import pytest

from repro.analysis import (
    PAPER_LEVELS,
    Session,
    calibration_checkpoints,
    compute_headline,
    fig2_cell_vdd_scaling,
    optimize_all,
)
from repro.analysis.paper_data import PAPER_TABLE4, table4_comparison_rows


def test_session_paper_levels(paper_session):
    levels = paper_session.yield_levels("hvt")
    assert levels == PAPER_LEVELS["hvt"]
    assert paper_session.constraint("hvt").trust_fixed_rails


def test_session_rejects_unknown_mode():
    with pytest.raises(ValueError):
        Session.create(cache_path=None, voltage_mode="wrong")


def test_fig2_small_sweep(paper_session):
    result = fig2_cell_vdd_scaling(paper_session,
                                   vdd_values=[0.3, 0.45])
    assert result.leakage["lvt"][-1] == pytest.approx(1.692e-9, rel=0.03)
    assert "Figure 2" in result.report()


def test_calibration_checkpoints(paper_session):
    result = calibration_checkpoints(paper_session)
    assert result.ion_ratio == pytest.approx(2.0, rel=0.1)
    a, b, _vt = result.read_fit
    assert a == pytest.approx(1.3, rel=0.15)
    assert b == pytest.approx(9.5e-5, rel=0.5)
    assert "calibration" in result.report().lower()


@pytest.fixture(scope="module")
def small_sweep(paper_session):
    return optimize_all(paper_session, capacities=(1024, 4096))


def test_optimize_all_structure(small_sweep):
    assert len(small_sweep.results) == 2 * 2 * 2
    result = small_sweep.get(4096, "hvt", "M2")
    assert result.capacity_bytes == 4096
    assert result.label == "6T-HVT-M2"


def test_sweep_series_accessor(small_sweep):
    series = small_sweep.series("edp")
    assert set(series) == {1024, 4096}
    assert series[4096]["6T-HVT-M2"] < series[4096]["6T-LVT-M2"]


def test_sweep_report_text(small_sweep):
    text = small_sweep.report()
    assert "6T-HVT-M2" in text
    assert "V_SSC" in text


@pytest.fixture(scope="module")
def full_sweep(paper_session):
    return optimize_all(paper_session)


def test_table4_comparison_requires_full_sweep(full_sweep):
    rows = table4_comparison_rows(full_sweep)
    assert len(rows) == len(PAPER_TABLE4)


def test_headline_from_full_sweep(full_sweep):
    assert "Headline" in compute_headline(full_sweep).report()


#: benchmarks/output/table4_design_params.txt (paper voltages):
#: (capacity bytes, flavor, method) ->
#: (n_r, n_c, N_pre, N_wr, V_DDC mV, V_SSC mV, V_WL mV).
TABLE4_ANCHORS = {
    (128, "lvt", "M1"): (32, 32, 6, 1, 640, 0, 640),
    (128, "lvt", "M2"): (32, 32, 10, 2, 640, -200, 490),
    (128, "hvt", "M1"): (32, 32, 5, 1, 550, 0, 550),
    (128, "hvt", "M2"): (32, 32, 7, 1, 550, -200, 550),
    (256, "lvt", "M1"): (32, 64, 6, 1, 640, 0, 640),
    (256, "lvt", "M2"): (64, 32, 12, 2, 640, -200, 490),
    (256, "hvt", "M1"): (32, 64, 5, 1, 550, 0, 550),
    (256, "hvt", "M2"): (64, 32, 11, 2, 550, -240, 550),
    (1024, "lvt", "M1"): (128, 64, 13, 2, 640, 0, 640),
    (1024, "lvt", "M2"): (128, 64, 18, 3, 640, -200, 490),
    (1024, "hvt", "M1"): (128, 64, 9, 2, 550, 0, 550),
    (1024, "hvt", "M2"): (128, 64, 16, 3, 550, -240, 550),
    (4096, "lvt", "M1"): (128, 256, 18, 2, 640, 0, 640),
    (4096, "lvt", "M2"): (512, 64, 41, 5, 640, -200, 490),
    (4096, "hvt", "M1"): (128, 256, 15, 1, 550, 0, 550),
    (4096, "hvt", "M2"): (512, 64, 33, 5, 550, -240, 550),
    (16384, "lvt", "M1"): (256, 512, 20, 2, 640, 0, 640),
    (16384, "lvt", "M2"): (256, 512, 32, 3, 640, -200, 490),
    (16384, "hvt", "M1"): (256, 512, 21, 1, 550, 0, 550),
    (16384, "hvt", "M2"): (256, 512, 29, 2, 550, -180, 550),
}

#: benchmarks/output/headline.txt checkpoints: (HeadlineResult field,
#: scale to the printed unit, the printed value).  Each must hold to
#: within half of its last printed digit.
HEADLINE_ANCHORS = (
    ("avg_edp_gain_large", 100.0, "47.57"),
    ("avg_edp_gain_small", 100.0, "5.041"),
    ("avg_delay_penalty_large", 100.0, "7.581"),
    ("max_delay_penalty_large", 100.0, "9.594"),
    ("gain_16kb", 100.0, "74.29"),
    ("penalty_16kb", 100.0, "8.477"),
    ("bl_delay_reduction", 1.0, "2.702"),
    ("total_delay_reduction", 1.0, "1.478"),
)


def test_paper_anchors(full_sweep):
    """Table 4 exactly and the headline to its printed precision: a
    search change that moves any optimum or checkpoint fails here."""
    assert set(full_sweep.results) == set(TABLE4_ANCHORS)
    for key, expected in TABLE4_ANCHORS.items():
        d = full_sweep.results[key].design
        got = (d.n_r, d.n_c, d.n_pre, d.n_wr, round(d.v_ddc * 1e3),
               round(d.v_ssc * 1e3), round(d.v_wl * 1e3))
        assert got == expected, key
    stats = compute_headline(full_sweep)
    for name, scale, printed in HEADLINE_ANCHORS:
        half_digit = 0.5 * 10.0 ** -len(printed.split(".")[1])
        assert abs(getattr(stats, name) * scale - float(printed)) \
            <= half_digit, name


#: benchmarks/output/calibration.txt rows: (row label, reading of the
#: CalibrationResult in the printed unit, the printed value).  The table
#: prints ``%.4g``, so each must hold to within half a unit of its
#: fourth significant digit.
CALIBRATION_ANCHORS = (
    ("Ion ratio LVT/HVT", lambda r: r.ion_ratio, "1.928"),
    ("Ioff ratio LVT/HVT", lambda r: r.ioff_ratio, "20.64"),
    ("ON/OFF gain HVT/LVT", lambda r: r.onoff_gain, "10.7"),
    ("6T-LVT leakage (nW)", lambda r: r.leakage["lvt"] * 1e9, "1.691"),
    ("6T-HVT leakage (nW)", lambda r: r.leakage["hvt"] * 1e9, "0.08193"),
    ("read fit a", lambda r: r.read_fit[0], "1.399"),
    ("read fit b (A/V^a)", lambda r: r.read_fit[1], "9.392e-05"),
    ("read fit Vt (mV)", lambda r: r.read_fit[2] * 1e3, "412.1"),
    ("I_read boost at V_SSC=-240 (x)", lambda r: r.iread_boost_ratio,
     "4.088"),
)


def test_calibration_anchors(paper_session):
    """Every calibration checkpoint to its printed precision: a device
    or cell change that moves a calibration number fails here."""
    result = calibration_checkpoints(paper_session)
    for label, reading, printed in CALIBRATION_ANCHORS:
        expected = float(printed)
        half_digit = 0.5 * 10.0 ** (math.floor(math.log10(expected)) - 3)
        assert abs(reading(result) - expected) <= half_digit, label
        assert label in result.report()
