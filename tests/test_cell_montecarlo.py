"""Monte Carlo yield analysis (small sample counts for speed)."""

import numpy as np
import pytest

from repro.cell import (
    MonteCarloResult,
    required_margin_fraction,
    run_cell_montecarlo,
    sample_cells,
)
from repro.cell.montecarlo import MetricSamples
from repro.devices import VariationModel

VDD = 0.45


@pytest.fixture(scope="module")
def mc_result(hvt_cell):
    return run_cell_montecarlo(
        hvt_cell, n_samples=40, seed=11, vdd=VDD,
        metrics=("hsnm", "rsnm"), snm_points=41,
    )


def test_sample_cells_are_perturbed(hvt_cell):
    cells = list(sample_cells(hvt_cell, 3, VariationModel(0.03), seed=0))
    assert len(cells) == 3
    for cell in cells:
        assert not cell.is_symmetric
        assert cell.params("pd_l").vt != hvt_cell.params("pd_l").vt


def test_sampling_reproducible(hvt_cell):
    a = [c.params("pd_l").vt
         for c in sample_cells(hvt_cell, 5, seed=9)]
    b = [c.params("pd_l").vt
         for c in sample_cells(hvt_cell, 5, seed=9)]
    assert a == b


def test_mc_metrics_present(mc_result):
    assert set(mc_result.metrics) == {"hsnm", "rsnm"}
    assert mc_result.n_samples == 40
    assert len(mc_result.metric("rsnm").values) == 40


def test_mc_spread_and_mean(mc_result, hvt_cell):
    from repro.cell import hold_snm

    samples = mc_result.metric("hsnm")
    assert samples.sigma > 0.002
    nominal = hold_snm(hvt_cell, VDD)
    assert samples.mean == pytest.approx(nominal, abs=5 * samples.sigma)


def test_mu_minus_k_sigma_ordering(mc_result):
    samples = mc_result.metric("rsnm")
    assert samples.mu_minus_k_sigma(0) == pytest.approx(samples.mean)
    assert samples.mu_minus_k_sigma(3) < samples.mu_minus_k_sigma(1)


def test_yield_at_extremes(mc_result):
    samples = mc_result.metric("hsnm")
    assert samples.yield_at(-1.0) == 1.0
    assert samples.yield_at(1.0) == 0.0


def test_worst_case_yield_bounds(mc_result):
    joint = mc_result.worst_case_yield(0.0)
    individual = min(
        mc_result.metric(name).yield_at(0.0)
        for name in ("hsnm", "rsnm")
    )
    assert 0.0 <= joint <= individual <= 1.0


def test_required_margin_fraction(mc_result):
    fractions = required_margin_fraction(mc_result, k=3.0, vdd=VDD)
    for value in fractions.values():
        assert 0.0 < value < 1.0


def test_metric_samples_single_value():
    samples = MetricSamples("x", np.array([0.1]))
    assert samples.sigma == 0.0
    assert samples.mean == pytest.approx(0.1)


def test_zero_variation_gives_nominal(hvt_cell):
    result = run_cell_montecarlo(
        hvt_cell, n_samples=3, vdd=VDD,
        variation=VariationModel(sigma_vt=0.0),
        metrics=("hsnm",), snm_points=41,
    )
    values = result.metric("hsnm").values
    assert float(np.std(values)) < 1e-9


# -- margin-distribution export: percentile and tail queries ---------------

def test_percentile_matches_order_statistics(mc_result):
    samples = mc_result.metric("rsnm")
    assert samples.percentile(0) == pytest.approx(samples.values.min())
    assert samples.percentile(100) == pytest.approx(samples.values.max())
    assert samples.percentile(50) == pytest.approx(
        float(np.median(samples.values)))
    p10, p90 = samples.percentile([10, 90])
    assert p10 < samples.percentile(50) < p90


def test_tail_probability_complements_yield(mc_result):
    samples = mc_result.metric("hsnm")
    floor = samples.percentile(25)
    assert samples.tail_probability(floor) \
        == pytest.approx(1.0 - samples.yield_at(floor))
    assert samples.tail_probability(-1.0) == 0.0
    assert samples.tail_probability(1.0) == 1.0


def test_tail_estimate_empirical_in_observed_regime(mc_result):
    samples = mc_result.metric("rsnm")
    # The median splits the sample: a deeply observed tail.
    est = samples.tail_estimate(samples.percentile(50))
    assert est.source == "empirical"
    assert est.empirical == pytest.approx(0.5, abs=0.05)
    assert est.n_samples == 40


def test_tail_estimate_gaussian_takeover_at_zero_failures(mc_result):
    # Margins at nominal rails never dip anywhere near zero in a
    # 40-sample run: the empirical estimator reads exactly 0 and the
    # Gaussian extrapolator must take over with a usable tail mass.
    samples = mc_result.metric("rsnm")
    est = samples.tail_estimate(0.0)
    assert est.tail_count == 0
    assert est.empirical == 0.0
    assert est.source == "gaussian"
    assert 0.0 < est.gaussian < 0.5
    assert est.p_fail == est.gaussian


def test_percentile_extremes_on_degenerate_samples():
    samples = MetricSamples("x", np.array([0.07]))
    assert samples.percentile(0) == pytest.approx(0.07)
    assert samples.percentile(100) == pytest.approx(0.07)
    assert samples.percentile(50) == pytest.approx(0.07)


def test_tail_probability_outside_support(mc_result):
    samples = mc_result.metric("hsnm")
    lo = float(samples.values.min())
    hi = float(samples.values.max())
    # The minimum itself is not a failure (strict <); just past the
    # maximum everything is.
    assert samples.tail_probability(lo) == 0.0
    assert samples.tail_probability(np.nextafter(hi, np.inf)) == 1.0


def test_tail_estimate_empty_tail_is_finite(mc_result):
    samples = mc_result.metric("hsnm")
    est = samples.tail_estimate(float(samples.values.min()) - 0.05)
    assert est.tail_count == 0
    assert est.empirical == 0.0
    assert np.isfinite(est.p_fail)
    assert 0.0 <= est.p_fail < 1e-3


def test_tail_estimate_zero_variance_steps_at_mean():
    flat = MetricSamples("x", np.full(32, 0.1))
    below = flat.tail_estimate(0.05)
    assert below.p_fail == 0.0
    assert below.source == "gaussian"
    above = flat.tail_estimate(0.15)
    assert above.p_fail == 1.0
    assert above.source == "empirical"


def test_tail_queries_engine_parity(hvt_cell):
    """Tail queries read production samples exactly as they read the
    scalar reference's."""
    from repro.cell.montecarlo import run_cell_montecarlo_reference

    kwargs = dict(n_samples=8, seed=3, vdd=VDD,
                  metrics=("hsnm", "rsnm"), snm_points=41)
    batched = run_cell_montecarlo(hvt_cell, **kwargs)
    loop = run_cell_montecarlo_reference(hvt_cell, **kwargs)
    for name in ("hsnm", "rsnm"):
        b, s = batched.metric(name), loop.metric(name)
        assert b.percentile([5, 50, 95]) == pytest.approx(
            s.percentile([5, 50, 95]))
        floor = b.percentile(50)
        assert b.tail_probability(floor) == s.tail_probability(floor)
        assert b.tail_estimate(0.0) == s.tail_estimate(0.0)
