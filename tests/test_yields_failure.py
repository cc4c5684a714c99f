"""Tests for repro.yields.failure: estimators, composition, budgets."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.yields.ecc import make_code
from repro.yields.failure import (
    MIN_TAIL_EVENTS,
    array_yield,
    coded_p_fail_budget,
    codeword_fail_probability,
    estimate_p_fail,
    margin_relaxation_z,
    p_fail_empirical,
    p_fail_gaussian,
    relaxed_sense_voltage,
    sense_fail_probability,
    uncoded_array_yield,
    uncoded_p_fail_budget,
    word_fail_probability,
    z_score,
)


class TestEstimators:
    def test_empirical_counts_strict_tail(self):
        samples = [0.01, 0.02, -0.01, 0.05]
        assert p_fail_empirical(samples, 0.0) == 0.25
        # The floor itself is not a failure (strict <).
        assert p_fail_empirical([0.0, 1.0], 0.0) == 0.0

    def test_gaussian_matches_closed_form(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(0.1, 0.02, size=4000)
        mu = float(np.mean(samples))
        sigma = float(np.std(samples, ddof=1))
        from statistics import NormalDist

        expected = NormalDist().cdf((0.05 - mu) / sigma)
        assert p_fail_gaussian(samples, 0.05) == pytest.approx(expected)

    def test_estimators_agree_in_observable_regime(self):
        # Where the tail is well-populated, empirical and Gaussian
        # estimates of a genuinely normal sample should agree.
        rng = np.random.default_rng(3)
        samples = rng.normal(0.0, 1.0, size=20000)
        est = estimate_p_fail(samples, -1.0)
        assert est.source == "empirical"
        assert est.empirical == pytest.approx(est.gaussian, rel=0.06)

    def test_gaussian_takes_over_at_zero_observed_failures(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(0.15, 0.02, size=200)
        est = estimate_p_fail(samples, 0.0)   # ~7.5 sigma out
        assert est.tail_count == 0
        assert est.empirical == 0.0
        assert est.source == "gaussian"
        assert 0.0 < est.gaussian < 1e-9
        assert est.p_fail == est.gaussian

    def test_min_tail_threshold_selects_source(self):
        samples = np.concatenate([
            -np.ones(MIN_TAIL_EVENTS - 1), np.ones(200)
        ])
        assert estimate_p_fail(samples, 0.0).source == "gaussian"
        samples = np.concatenate([
            -np.ones(MIN_TAIL_EVENTS), np.ones(200)
        ])
        assert estimate_p_fail(samples, 0.0).source == "empirical"

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            p_fail_empirical([], 0.0)
        with pytest.raises(ValueError):
            p_fail_gaussian([], 0.0)
        with pytest.raises(ValueError):
            estimate_p_fail([], 0.0)

    def test_single_sample_steps_at_mean(self):
        # A single sample has an undefined ddof=1 sigma; the documented
        # degenerate contract is a step at the sample value.
        assert p_fail_gaussian([0.1], 0.0) == 0.0
        assert p_fail_gaussian([0.1], 0.2) == 1.0

    def test_zero_variance_vector_is_finite(self):
        samples = np.full(50, 0.1)
        assert p_fail_gaussian(samples, 0.05) == 0.0
        assert p_fail_gaussian(samples, 0.15) == 1.0
        est = estimate_p_fail(samples, 0.05)
        assert est.tail_count == 0
        assert est.source == "gaussian"
        assert est.p_fail == 0.0
        below = estimate_p_fail(samples, 0.15)
        assert below.p_fail == 1.0
        assert below.source == "empirical"

    def test_zero_tail_count_is_finite(self):
        est = estimate_p_fail(np.linspace(0.1, 0.2, 40), 0.05)
        assert est.tail_count == 0
        assert est.source == "gaussian"
        assert 0.0 <= est.p_fail < 0.01
        assert math.isfinite(est.p_fail)


class TestComposition:
    def test_no_correction_closed_form(self):
        p = 1e-3
        assert codeword_fail_probability(p, 64, 0) == pytest.approx(
            1.0 - (1.0 - p) ** 64)

    def test_single_correction_binomial(self):
        p, n = 1e-3, 72
        direct = sum(
            math.comb(n, i) * p ** i * (1.0 - p) ** (n - i)
            for i in range(2, n + 1)
        )
        assert codeword_fail_probability(p, n, 1) == pytest.approx(
            direct, rel=1e-10)

    def test_deep_tail_no_underflow(self):
        q = codeword_fail_probability(1e-9, 72, 1)
        # ~ C(72,2) p^2: well below double-rounding of the survival sum.
        assert q == pytest.approx(math.comb(72, 2) * 1e-18, rel=1e-3)

    def test_correction_helps_monotonically(self):
        p = 1e-3
        q0 = codeword_fail_probability(p, 72, 0)
        q1 = codeword_fail_probability(p, 72, 1)
        q2 = codeword_fail_probability(p, 72, 2)
        assert q0 > q1 > q2 > 0.0

    def test_edge_probabilities(self):
        assert codeword_fail_probability(0.0, 72, 1) == 0.0
        assert codeword_fail_probability(1.0, 72, 1) == 1.0
        assert codeword_fail_probability(0.5, 4, 4) == 0.0

    def test_word_interleave_composes(self):
        code = make_code("secded-x2", 64)
        p = 1e-3
        q_way = codeword_fail_probability(p, code.codeword_bits, 1)
        expected = 1.0 - (1.0 - q_way) ** 2
        assert word_fail_probability(p, code) == pytest.approx(expected)

    def test_array_yield_vs_uncoded(self):
        code = make_code("secded", 64)
        p = 1e-4
        coded = array_yield(p, code, 1024)
        uncoded = uncoded_array_yield(p, 1024 * 64)
        assert coded > uncoded
        assert 0.0 < uncoded < coded <= 1.0


class TestBudgets:
    def test_uncoded_budget_round_trip(self):
        p = uncoded_p_fail_budget(0.9, 131072)
        assert uncoded_array_yield(p, 131072) == pytest.approx(0.9)

    def test_coded_budget_round_trip(self):
        code = make_code("secded", 64)
        p = coded_p_fail_budget(0.9, code, 2048)
        assert array_yield(p, code, 2048) == pytest.approx(0.9, rel=1e-6)

    def test_coded_budget_exceeds_uncoded(self):
        code = make_code("secded", 64)
        p_c = coded_p_fail_budget(0.9, code, 2048)
        p_u = uncoded_p_fail_budget(0.9, 2048 * 64)
        assert p_c > 100 * p_u

    def test_z_score_inverts_normal_tail(self):
        from statistics import NormalDist

        for p in (1e-2, 1e-4, 1e-7):
            assert NormalDist().cdf(-z_score(p)) == pytest.approx(p)

    def test_relaxation_zero_without_correction(self):
        assert margin_relaxation_z(0.9, make_code("none", 64), 2048) \
            == 0.0

    def test_relaxation_positive_and_grows_with_capacity(self):
        code = make_code("secded", 64)
        small = margin_relaxation_z(0.9, code, 128)
        large = margin_relaxation_z(0.9, code, 2048)
        assert 0.0 < small < large

    def test_budget_fraction_shrinks_relaxation(self):
        code = make_code("secded", 64)
        full = margin_relaxation_z(0.9, code, 2048)
        half = margin_relaxation_z(0.9, code, 2048, budget_fraction=0.5)
        assert 0.0 < half < full

    def test_invalid_targets_rejected(self):
        with pytest.raises(ValueError):
            uncoded_p_fail_budget(1.0, 64)
        with pytest.raises(ValueError):
            coded_p_fail_budget(0.0, make_code("secded", 64), 64)


class TestSenseMargin:
    def test_sense_fail_probability_is_offset_tail(self):
        from statistics import NormalDist

        p = sense_fail_probability(0.060, 0.015)
        assert p == pytest.approx(NormalDist().cdf(-4.0))

    def test_uncorrecting_code_keeps_nominal(self):
        assert relaxed_sense_voltage(
            0.9, make_code("none", 64), 2048, 0.015, nominal=0.120
        ) == 0.120

    def test_secded_relaxes_below_nominal(self):
        dv = relaxed_sense_voltage(
            0.9, make_code("secded", 64), 2048, 0.015, nominal=0.120
        )
        assert 0.0 < dv < 0.120
        # On the 1 mV grid, and conservatively ceiled.
        assert dv == pytest.approx(round(dv, 3))

    def test_relaxed_window_never_exceeds_budget(self):
        code = make_code("secded", 64)
        dv = relaxed_sense_voltage(0.9, code, 2048, 0.015,
                                   nominal=0.120, budget_fraction=0.5)
        p_sense = sense_fail_probability(dv, 0.015)
        assert p_sense <= 0.5 * coded_p_fail_budget(0.9, code, 2048)
