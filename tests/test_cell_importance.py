"""Rare-event importance sampling: calibration, determinism, budgets.

The statistical tests run against a synthetic *linear* margin solver
``margin(z) = mu0 - z @ g`` (margins are then exactly Gaussian, so the
true tail ``P(margin < floor) = Phi((floor - mu0) / (sigma * |g|))`` is
known in closed form and the brute-force empirical estimator is
affordable at p ~ 1e-4).  The engine is solver-agnostic, so everything
verified here — agreement within the reported CI, chunk invariance,
eval budgets — carries over to the production batched cell solvers,
which ride the same code path (smoke-tested at the end).
"""

from __future__ import annotations

import json
import math
from statistics import NormalDist

import numpy as np
import pytest

from repro.cell.bias import CellBias
from repro.cell.importance import (
    BLOCK,
    DEFENSIVE_FRACTION,
    SAMPLERS,
    Z_95,
    MarginSolver,
    TailEstimate,
    TailSampleBuffer,
    block_rng,
    cell_margin_solver,
    draw_block,
    estimate_tail,
    find_failure_shift,
    mixture_log_weights,
    naive_samples_for_ci,
)

_NORMAL = NormalDist()

SIGMA = 0.039
MU0 = 0.14
GAIN = np.array([1.3, 0.2, 0.9, 0.1, 0.6, 0.4])
GAIN_NORM = float(np.linalg.norm(GAIN))


def linear_solver():
    return MarginSolver(lambda shifts: MU0 - shifts @ GAIN)


def floor_at(p_true):
    """The floor whose true linear-solver tail mass is ``p_true``."""
    return MU0 - (-_NORMAL.inv_cdf(p_true)) * SIGMA * GAIN_NORM


def p_true(floor):
    return _NORMAL.cdf((floor - MU0) / (SIGMA * GAIN_NORM))


# ---------------------------------------------------------------------------
# Deterministic block streams
# ---------------------------------------------------------------------------

class TestBlockStreams:
    def test_block_rng_pure_function_of_seed_and_index(self):
        a = block_rng(5, 3).normal(size=8)
        b = block_rng(5, 3).normal(size=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, block_rng(5, 4).normal(size=8))
        assert not np.array_equal(a, block_rng(6, 3).normal(size=8))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            block_rng(-1, 0)

    def test_unknown_sampler_rejected(self):
        for sampler in ("bogus", "antithetic", "stratified"):
            with pytest.raises(ValueError):
                draw_block(sampler, 0, 0, 6, SIGMA)

    def test_draw_block_deterministic(self):
        shift = 0.2 * GAIN / GAIN_NORM
        for sampler in SAMPLERS:
            a = draw_block(sampler, 9, 2, 6, SIGMA, shift=shift)
            b = draw_block(sampler, 9, 2, 6, SIGMA, shift=shift)
            assert np.array_equal(a, b)
            assert a.shape == (BLOCK, 6)

    def test_shifted_mixture_weights_bounded(self):
        shift = 0.2 * GAIN / GAIN_NORM
        block = draw_block("shifted", 4, 0, 6, SIGMA, shift=shift)
        log_w = mixture_log_weights(block, shift, SIGMA)
        assert np.all(np.exp(log_w) <= 1.0 / DEFENSIVE_FRACTION + 1e-12)


# ---------------------------------------------------------------------------
# The mean-shift search
# ---------------------------------------------------------------------------

class TestFindFailureShift:
    def test_linear_solver_finds_boundary_point(self):
        solver = linear_solver()
        floor = floor_at(1e-4)
        search = find_failure_shift(solver, floor, SIGMA)
        assert search.crossed
        assert search.boundary_margin <= floor
        # The most probable failure point of a linear margin sits on
        # the boundary along the gradient: |shift| = z* sigma with
        # z* = (mu0 - floor) / (sigma |g|).
        z_star = (MU0 - floor) / (SIGMA * GAIN_NORM)
        assert search.z_norm == pytest.approx(z_star * SIGMA, rel=0.05)
        cosine = float(search.shift @ GAIN) / (
            np.linalg.norm(search.shift) * GAIN_NORM)
        assert cosine > 0.99

    def test_already_failing_center_needs_no_shift(self):
        solver = linear_solver()
        search = find_failure_shift(solver, MU0 + 0.01, SIGMA)
        assert search.crossed
        assert np.all(search.shift == 0.0)

    def test_unreachable_floor_reports_no_crossing(self):
        solver = MarginSolver(lambda shifts: np.full(shifts.shape[0],
                                                     1.0))
        search = find_failure_shift(solver, 0.0, SIGMA)
        assert not search.crossed

    def test_direction_hint_skips_gradient_probes(self):
        floor = floor_at(1e-4)
        cold = linear_solver()
        find_failure_shift(cold, floor, SIGMA)
        hinted = linear_solver()
        search = find_failure_shift(hinted, floor, SIGMA,
                                    direction=GAIN)
        assert search.crossed
        assert hinted.n_evals < cold.n_evals


# ---------------------------------------------------------------------------
# Calibration: the p ~ 1e-4 acceptance case
# ---------------------------------------------------------------------------

class TestCalibration:
    def test_shifted_agrees_with_empirical_within_ci(self):
        """The acceptance criterion: at p_fail ~ 1e-4 (brute force
        affordable) the shifted estimate covers both the analytic truth
        and a large brute-force empirical estimate within its reported
        95% CI."""
        floor = floor_at(1e-4)
        solver = linear_solver()
        est = estimate_tail(solver, floor, sampler="shifted",
                            sigma_vt=SIGMA, ci_target=0.1,
                            max_samples=16384, seed=3)
        assert est.converged
        assert est.agrees_with(p_true(floor))
        # Brute force: 2M iid draws, ~200 observed failures.
        rng = np.random.default_rng(1234)
        count = 0
        for _ in range(4):
            shifts = rng.normal(0.0, SIGMA, (500_000, GAIN.size))
            count += int(np.sum(MU0 - shifts @ GAIN < floor))
        empirical = count / 2_000_000
        assert est.agrees_with(empirical)
        # And it got there orders of magnitude cheaper than the brute
        # force that validated it.
        assert solver.n_evals < 100_000

    @pytest.mark.parametrize("sampler", ("naive",))
    def test_baseline_samplers_cover_truth_at_1e2(self, sampler):
        floor = floor_at(1e-2)
        est = estimate_tail(linear_solver(), floor, sampler=sampler,
                            sigma_vt=SIGMA, ci_target=0.2,
                            max_samples=32768, seed=3)
        assert est.agrees_with(p_true(floor))
        assert est.ci_half > 0.0


# ---------------------------------------------------------------------------
# Adaptive budgets and eval accounting
# ---------------------------------------------------------------------------

class TestAdaptiveBudget:
    def test_deep_tail_beats_naive_by_20x(self):
        """The acceptance criterion: >= 20x fewer margin-solver evals
        than naive sampling for the same CI target at p <= 1e-6."""
        floor = floor_at(1e-6)
        solver = linear_solver()
        est = estimate_tail(solver, floor, sampler="shifted",
                            sigma_vt=SIGMA, ci_target=0.1,
                            max_samples=65536, seed=3)
        assert est.converged
        assert est.agrees_with(p_true(floor))
        required = naive_samples_for_ci(est.p_fail, est.rel_ci)
        assert required >= 20 * solver.n_evals

    def test_unconverged_cap_is_flagged(self):
        floor = floor_at(1e-4)
        est = estimate_tail(linear_solver(), floor, sampler="naive",
                            sigma_vt=SIGMA, ci_target=0.1,
                            max_samples=4 * BLOCK, seed=0)
        assert not est.converged
        assert est.n_samples == 4 * BLOCK

    def test_zero_observed_tail_reports_zero_with_bound(self):
        est = estimate_tail(linear_solver(), -10.0, sampler="naive",
                            sigma_vt=SIGMA, ci_target=0.1,
                            max_samples=2 * BLOCK, seed=0)
        assert est.p_fail == 0.0
        assert est.ci_half > 0.0
        assert est.rel_ci == math.inf

    def test_estimate_needs_two_blocks(self):
        buffer = TailSampleBuffer(linear_solver(), sampler="naive",
                                  sigma_vt=SIGMA)
        buffer.ensure(BLOCK)
        with pytest.raises(ValueError):
            buffer.estimate(0.0, BLOCK)

    def test_block_validation(self):
        with pytest.raises(ValueError):
            TailSampleBuffer(linear_solver(), block=0)
        for sampler in ("bogus", "antithetic", "stratified"):
            with pytest.raises(ValueError):
                TailSampleBuffer(linear_solver(), sampler=sampler)
        # Blocks need not be even.
        odd = TailSampleBuffer(linear_solver(), sampler="naive",
                               sigma_vt=SIGMA, block=63)
        odd.ensure(2 * 63)
        assert odd.estimate(0.0).n_samples == 2 * 63


# ---------------------------------------------------------------------------
# Bit-reproducibility across chunk sizes and growth patterns
# ---------------------------------------------------------------------------

class TestChunkInvariance:
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_estimate_identical_across_chunks(self, sampler):
        floor = floor_at(1e-2 if sampler != "shifted" else 1e-4)
        outcomes = set()
        for chunk in (BLOCK, 4 * BLOCK, 16 * BLOCK):
            est = estimate_tail(linear_solver(), floor, sampler=sampler,
                                sigma_vt=SIGMA, ci_target=0.15,
                                max_samples=8192, seed=3, chunk=chunk)
            outcomes.add((est.p_fail, est.ci_half, est.n_samples,
                          est.ess, est.converged))
        assert len(outcomes) == 1

    def test_growth_pattern_does_not_change_samples(self):
        floor = floor_at(1e-4)
        one = TailSampleBuffer(linear_solver(), sampler="shifted",
                               sigma_vt=SIGMA, seed=3,
                               search_floor=floor)
        one.ensure(16 * BLOCK)
        grown = TailSampleBuffer(linear_solver(), sampler="shifted",
                                 sigma_vt=SIGMA, seed=3,
                                 search_floor=floor)
        for n in (2 * BLOCK, 5 * BLOCK, 16 * BLOCK):
            grown.ensure(n, chunk=3 * BLOCK)
        assert np.array_equal(one._margins, grown._margins)
        assert np.array_equal(one._log_weights, grown._log_weights)

    def test_prefix_estimates_are_stable_under_growth(self):
        floor = floor_at(1e-4)
        buffer = TailSampleBuffer(linear_solver(), sampler="shifted",
                                  sigma_vt=SIGMA, seed=3,
                                  search_floor=floor)
        buffer.ensure(4 * BLOCK)
        before = buffer.estimate(floor, 4 * BLOCK)
        buffer.ensure(32 * BLOCK)
        after = buffer.estimate(floor, 4 * BLOCK)
        assert before.p_fail == after.p_fail
        assert before.ci_half == after.ci_half


# ---------------------------------------------------------------------------
# Floor queries (the margin-floor solve surface)
# ---------------------------------------------------------------------------

class TestFloorQueries:
    @pytest.fixture(scope="class")
    def buffer(self):
        buffer = TailSampleBuffer(linear_solver(), sampler="shifted",
                                  sigma_vt=SIGMA, seed=3,
                                  search_floor=floor_at(1e-6))
        buffer.estimate_to_ci(floor_at(1e-6), ci_target=0.1,
                              max_samples=65536)
        return buffer

    def test_floor_for_inverts_tail_mass(self, buffer):
        for target in (1e-6, 1e-5, 1e-4):
            floor = buffer.floor_for(target)
            assert buffer.tail_mass(floor) == pytest.approx(
                target, rel=0.02)
            assert buffer.coverage(floor) > 0

    def test_quantile_gap_matches_gaussian_margins(self, buffer):
        # For Gaussian margins Q(p2) - Q(p1) = (z1 - z2) * sigma_margin.
        p1, p2 = 1e-6, 1e-4
        gap = buffer.floor_for(p2) - buffer.floor_for(p1)
        z1 = -_NORMAL.inv_cdf(p1)
        z2 = -_NORMAL.inv_cdf(p2)
        assert gap == pytest.approx((z1 - z2) * SIGMA * GAIN_NORM,
                                    rel=0.1)

    def test_floor_queries_never_resolve(self, buffer):
        evals = buffer.solver.n_evals
        buffer.floor_for(1e-5)
        buffer.tail_mass(0.0)
        buffer.estimate(floor_at(1e-5))
        assert buffer.solver.n_evals == evals

    def test_p_target_validation(self, buffer):
        with pytest.raises(ValueError):
            buffer.floor_for(0.0)
        with pytest.raises(ValueError):
            buffer.floor_for(1.0)

    def test_empty_buffer_rejects_floor_queries(self):
        empty = TailSampleBuffer(linear_solver(), sampler="naive",
                                 sigma_vt=SIGMA)
        with pytest.raises(ValueError):
            empty.tail_mass(0.0)


# ---------------------------------------------------------------------------
# TailEstimate surface
# ---------------------------------------------------------------------------

class TestTailEstimate:
    def test_ci_and_agreement_helpers(self):
        est = TailEstimate(p_fail=1e-4, ci_half=2e-5, n_samples=1024,
                           ess=512.0, sampler="shifted", floor=0.0)
        assert est.rel_ci == pytest.approx(0.2)
        assert est.ci_low == pytest.approx(8e-5)
        assert est.ci_high == pytest.approx(1.2e-4)
        assert est.agrees_with(9e-5)
        assert not est.agrees_with(2e-4)

    def test_zero_estimate_has_infinite_rel_ci(self):
        est = TailEstimate(p_fail=0.0, ci_half=1e-3, n_samples=128,
                           ess=128.0, sampler="naive", floor=0.0)
        assert est.rel_ci == math.inf

    def test_summary_is_json_safe(self):
        est = TailEstimate(p_fail=0.0, ci_half=1e-3, n_samples=128,
                           ess=128.0, sampler="naive", floor=0.0,
                           shift=(0.01, -0.02))
        payload = json.loads(json.dumps(est.summary()))
        assert payload["rel_ci"] is None
        assert payload["shift"] == [0.01, -0.02]
        assert payload["source"] == "sampled"

    def test_naive_samples_for_ci(self):
        n = naive_samples_for_ci(1e-6, 0.1)
        expected = Z_95 ** 2 * (1.0 - 1e-6) / (1e-6 * 0.01)
        assert n == math.ceil(expected)
        with pytest.raises(ValueError):
            naive_samples_for_ci(0.0, 0.1)
        with pytest.raises(ValueError):
            naive_samples_for_ci(1e-6, 0.0)


# ---------------------------------------------------------------------------
# The production cell solver path (smoke: small budgets)
# ---------------------------------------------------------------------------

class TestCellSolver:
    def test_cell_margin_solver_counts_rows(self, hvt_cell):
        vdd = 0.6
        solver = cell_margin_solver(hvt_cell, vdd, CellBias.read(vdd))
        margins = solver(np.zeros((3, 6)))
        assert margins.shape == (3,)
        assert solver.n_evals == 3
        # Unshifted instances all see the nominal cell.
        assert np.ptp(margins) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_estimate_on_real_solver(self, hvt_cell):
        vdd = 0.6
        solver = cell_margin_solver(hvt_cell, vdd, CellBias.read(vdd))
        est = estimate_tail(solver, 0.08, sampler="shifted",
                            ci_target=0.4, max_samples=4 * BLOCK,
                            seed=1)
        assert 0.0 <= est.p_fail <= 1.0
        assert est.n_samples >= 2 * BLOCK
        assert est.ess > 0.0
        assert solver.n_evals >= est.n_samples
