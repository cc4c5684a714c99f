"""YieldTargetConstraint: search parity, none-equivalence, memoization."""

from __future__ import annotations

import pickle
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import repro.cell.montecarlo as mc
from repro import perf
from repro.analysis import Session
from repro.opt import ExhaustiveOptimizer, MonteCarloYieldConstraint, \
    YieldConstraint, YieldTargetConstraint
from repro.opt.methods import make_policy
from repro.opt.space import DesignSpace
from repro.yields.ecc import make_code
from repro.yields.study import compute_yield_cell

from .conftest import CACHE_PATH

CAPACITY_BITS = 1024 * 8
#: The HVT/M2 yield cells the shared-memo tests run on one session.
YIELD_CELLS = (1024, 16384)
#: The V_DDC both HVT/M2 yield cells relax to under SECDED at Y = 0.9,
#: where the nominal read margin crosses delta inside the V_SSC axis.
RELAXED_V_DDC = 0.52


@pytest.fixture(scope="module")
def space():
    # Trimmed pulse-count axes keep the reference loop quick; the optimum
    # for this cell sits well inside the trimmed bounds.
    return DesignSpace(n_pre_max=20, n_wr_max=8)


def _optimizer(session, constraint, space, flavor="hvt", method="M2"):
    from repro.array.model import SRAMArrayModel

    model = SRAMArrayModel(session.chars[flavor], session.config)
    levels = session.yield_levels(flavor)
    return (ExhaustiveOptimizer(model, space, constraint),
            make_policy(method, levels))


def _optimize(session, constraint, space, flavor="hvt", method="M2"):
    optimizer, policy = _optimizer(session, constraint, space, flavor,
                                   method)
    return optimizer.optimize(CAPACITY_BITS, policy)


def _design_tuple(result):
    d = result.design
    return (d.n_r, d.n_c, d.n_pre, d.n_wr,
            d.v_ddc, float(d.v_ssc), d.v_wl)


def _record_snm_solves(monkeypatch):
    """Record every Monte Carlo SNM solve as ``(access_on, v_ddc,
    v_ssc)``, patched where the margin-sample memo looks the solver
    up."""
    calls = []
    original = mc.snm_samples

    def recording(cell, bias, access_on, points):
        calls.append((access_on, round(float(bias.v_ddc), 4),
                      round(float(bias.v_ssc), 4)))
        return original(cell, bias, access_on, points=points)

    monkeypatch.setattr(mc, "snm_samples", recording)
    return calls


def _run_threads(count, fn, timeout=120.0):
    """``fn()``'s results from ``count`` threads released together,
    with a short switch interval so they interleave often."""
    start = threading.Barrier(count)
    results, errors = [], []

    def run():
        start.wait()
        try:
            results.append(fn())
        except Exception as exc:           # pragma: no cover
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for _ in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    return results


def _target_constraint(session, code, y_target=0.9, flavor="hvt",
                       **kwargs):
    base = session.constraint(flavor)
    return YieldTargetConstraint(
        library=session.library, flavor=flavor, delta=session.delta,
        y_target=y_target, code=code, capacity_bits=CAPACITY_BITS,
        word_bits=session.config.word_bits,
        trust_fixed_rails=base.trust_fixed_rails,
        flip_lookup=base.flip_lookup, **kwargs)


def _eager_mask(constraint, v_ddc, v_ssc_values, v_wl, v_bl=0.0):
    """``YieldTargetConstraint.satisfied_grid`` as it was before it
    skipped levels: every level's requirement computed, in axis order,
    then compared with the nominal margins."""
    hsnm, rsnm, wm = constraint.base.margins_grid(
        v_ddc, v_ssc_values, v_wl, v_bl
    )
    if constraint.delta_z == 0.0:
        req = constraint.delta
    else:
        req = np.array([
            constraint.requirement(v_ddc, float(v))
            for v in np.asarray(v_ssc_values, dtype=float)
        ])
    if constraint.trust_fixed_rails:
        return np.minimum(hsnm, rsnm) >= req
    return np.minimum(np.minimum(hsnm, rsnm), wm) >= req


def _nominal(constraint, v_ddc, v_ssc_values, v_wl):
    """The per-level nominal margin ``satisfied_grid`` compares."""
    hsnm, rsnm, wm = constraint.base.margins_grid(v_ddc, v_ssc_values,
                                                  v_wl)
    nominal = np.minimum(hsnm, rsnm)
    return nominal if constraint.trust_fixed_rails else np.minimum(
        nominal, wm)


class TestNoneEquivalence:
    """code="none" must reproduce the fixed-delta optimum exactly."""

    @pytest.mark.parametrize("y_target", [0.5, 0.9, 0.999])
    def test_degenerates_to_fixed_delta(self, paper_session, space,
                                        y_target):
        constraint = _target_constraint(paper_session, "none", y_target)
        assert constraint.delta_z == 0.0

        fixed = _optimize(paper_session, paper_session.constraint("hvt"),
                          space)
        relaxed = _optimize(paper_session, constraint, space)
        assert _design_tuple(relaxed) == _design_tuple(fixed)
        assert relaxed.metrics.edp == fixed.metrics.edp
        # And the degenerate path never paid for a Monte Carlo run.
        assert constraint._stat_cache == {}
        assert constraint.base._sample_memos == {}

    def test_requirement_is_exactly_delta(self, paper_session):
        constraint = _target_constraint(paper_session, "none")
        assert constraint.requirement(0.55, 0.0) == paper_session.delta


class TestEngineParity:
    """Every production search agrees bit-for-bit with the reference
    loop under the relaxed floor."""

    @pytest.fixture(scope="class")
    def results(self, paper_session, space):
        # One shared constraint: the MC sigma memo is deterministic
        # (fixed seed), so sharing only saves time, never changes
        # values.
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        assert constraint.delta_z > 0.0
        optimizer, policy = _optimizer(paper_session, constraint, space)
        return {
            "loop": optimizer.optimize_reference(CAPACITY_BITS, policy),
            "pruned": optimizer.optimize(CAPACITY_BITS, policy),
            "vectorized": optimizer.optimize(CAPACITY_BITS, policy,
                                             keep_landscape=True),
            "fused": optimizer.optimize_many(CAPACITY_BITS, [policy])[0],
        }

    # Keyed by the engine each production path took over from: the
    # bound-gated EDP search (``pruned``), the every-row sweep that keeps
    # the landscape (``vectorized``) and the per-policy ``optimize_many``
    # (``fused``).
    @pytest.mark.parametrize("engine", ("vectorized", "fused", "pruned"))
    def test_matches_loop_engine(self, results, engine):
        assert _design_tuple(results[engine]) \
            == _design_tuple(results["loop"])
        assert results[engine].metrics.edp == results["loop"].metrics.edp
        assert results[engine].metrics.d_array \
            == results["loop"].metrics.d_array
        assert results[engine].metrics.e_total \
            == results["loop"].metrics.e_total

    def test_relaxation_admits_no_worse_edp(self, paper_session, space,
                                            results):
        fixed = _optimize(paper_session, paper_session.constraint("hvt"),
                          space)
        assert results["pruned"].metrics.edp <= fixed.metrics.edp


class TestRequirementAndSigma:
    def test_secded_relaxes_below_delta(self, paper_session):
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        req = constraint.requirement(0.55, 0.0)
        assert 0.0 < req < paper_session.delta
        assert req == pytest.approx(
            paper_session.delta
            - constraint.delta_z * constraint.sigma(0.55, 0.0))

    def test_requirement_floors_at_zero(self, paper_session):
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        constraint.delta = 1e-4   # floor far below the relaxation
        assert constraint.requirement(0.55, 0.0) == 0.0

    def test_sigma_memoized_per_rail_pair(self, paper_session):
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        a = constraint.sigma(0.55, 0.0)
        assert len(constraint._stat_cache) == 1
        assert constraint.sigma(0.55, 0.0) == a
        assert len(constraint._stat_cache) == 1
        constraint.sigma(0.55, -0.05)
        assert len(constraint._stat_cache) == 2

    def test_margin_budget_fraction_tightens(self, paper_session):
        full = _target_constraint(paper_session, "secded")
        half = _target_constraint(paper_session, "secded",
                                  margin_budget_fraction=0.5)
        assert 0.0 < half.delta_z < full.delta_z

    def test_failure_estimate_and_array_yield(self, paper_session):
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        est = constraint.failure_estimate(0.55, 0.0)
        assert 0.0 <= est.p_fail < 1.0
        coded, uncoded = constraint.array_yield(0.55, 0.0)
        assert uncoded <= coded <= 1.0


class TestMemoRoundtrip:
    """A constraint's memos travel with it through ``pickle``, the way
    a process pool ships the caller's session to its workers."""

    def test_sigma_key_exported_and_reseeded(self, paper_session):
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        sigma = constraint.sigma(0.55, 0.0)
        fresh = pickle.loads(pickle.dumps(constraint))
        assert fresh._stat_cache == constraint._stat_cache
        # The loaded copy answers from its memo: any solve would reach
        # the patched solver, as a rail pair never solved shows.
        def _boom(*args, **kwargs):
            raise AssertionError("Monte Carlo re-ran on a loaded memo")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "snm_samples", _boom)
            assert fresh.sigma(0.55, 0.0) == sigma
            with pytest.raises(AssertionError):
                fresh.sigma(0.60, -0.05)

    def test_base_margin_memo_still_roundtrips(self, paper_session,
                                               monkeypatch):
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        margins = constraint.margins(0.55, 0.0, 0.55)
        fresh = pickle.loads(pickle.dumps(constraint))
        assert fresh.base._rsnm_cache == constraint.base._rsnm_cache

        def _boom(*args, **kwargs):        # pragma: no cover
            raise AssertionError("a butterfly re-ran on a loaded memo")

        monkeypatch.setattr("repro.opt.constraints.butterfly", _boom)
        monkeypatch.setattr("repro.opt.constraints.hold_snm", _boom)
        assert fresh.margins(0.55, 0.0, 0.55) == margins


class TestSharedShiftMatrix:
    """One Vt shift draw feeds every rail pair, every iteration and
    every constraint sharing a base."""

    def test_one_draw_shared_across_rail_pairs(self, paper_session):
        from repro.cell.montecarlo import sample_shift_matrix

        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        memo = constraint.margin_samples
        assert constraint.margin_samples is memo
        matrix, batched = memo.shift_matrix, memo.cell
        assert np.array_equal(matrix, sample_shift_matrix(60, seed=0))

        constraint.sigma(0.55, 0.0)
        constraint.sigma(0.55, -0.05)
        assert constraint.margin_samples is memo
        assert memo.shift_matrix is matrix
        assert memo.cell is batched

        # A second constraint on the same base reads the same draw; one
        # with another sample count gets a draw of its own.
        sibling = _target_constraint(paper_session, "secded",
                                     n_samples=60, base=constraint.base)
        assert sibling.margin_samples is memo
        other = _target_constraint(paper_session, "secded",
                                   n_samples=30, base=constraint.base)
        assert other.margin_samples is not memo
        assert other.margin_samples.shift_matrix.shape[0] == 30

    def test_stats_bit_identical_to_montecarlo_engine(self,
                                                      paper_session):
        from repro.cell.bias import CellBias
        from repro.cell.montecarlo import run_cell_montecarlo

        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        mu, sigma, tail, n = constraint.min_margin_stats(0.55, 0.0)

        vdd = paper_session.library.vdd
        result = run_cell_montecarlo(
            constraint.base.cell, n_samples=60, seed=0, vdd=vdd,
            read_bias=CellBias.read(vdd=vdd, v_ddc=0.55, v_ssc=0.0),
            metrics=("hsnm", "rsnm"), snm_points=41,
        )
        values = np.minimum(result.metric("hsnm").values,
                            result.metric("rsnm").values)
        assert n == values.size
        assert mu == float(np.mean(values))
        assert sigma == float(np.std(values, ddof=1))
        assert tail == int(np.sum(values < 0.0))


class TestSharedMarginMemo:
    """One HSNM/RSNM sample memo per session and flavor: a memo hit
    equals a fresh solve bitwise, and no sample is solved twice."""

    RAILS = ((0.55, 0.0), (0.55, -0.05), (0.6, -0.12))

    @pytest.fixture(scope="class")
    def one_session(self):
        """The yield cells on one fresh session, every Monte Carlo SNM
        solve recorded."""
        session = Session.create(cache_path=CACHE_PATH,
                                 voltage_mode="paper")
        with pytest.MonkeyPatch.context() as patch:
            calls = _record_snm_solves(patch)
            summaries = {
                capacity: compute_yield_cell(session, capacity, "hvt",
                                             "M2").summary()
                for capacity in YIELD_CELLS
            }
        return session, summaries, calls

    def test_memo_hit_equals_fresh_solve(self, paper_session,
                                         monkeypatch):
        base = YieldConstraint(paper_session.library, "hvt",
                               paper_session.delta)
        filler = _target_constraint(paper_session, "secded",
                                    n_samples=60, base=base)
        for rails in self.RAILS:
            filler.min_margin_stats(*rails)
        reader = _target_constraint(paper_session, "secded",
                                    n_samples=60, base=base)
        fresh = _target_constraint(paper_session, "secded",
                                   n_samples=60)
        assert fresh.margin_samples is not reader.margin_samples

        calls = _record_snm_solves(monkeypatch)
        hits = [reader.min_margin_stats(*rails) for rails in self.RAILS]
        assert calls == []
        for rails, hit in zip(self.RAILS, hits):
            assert hit == fresh.min_margin_stats(*rails)
            assert reader.margin_samples.min_margin(*rails).tobytes() \
                == fresh.margin_samples.min_margin(*rails).tobytes()
        # The fresh constraint paid one HSNM and one RSNM per pair.
        assert len(calls) == 1 + len(self.RAILS)

    def test_cells_on_one_session_equal_fresh_sessions(self, one_session):
        _, shared, _ = one_session
        for capacity in YIELD_CELLS:
            session = Session.create(cache_path=CACHE_PATH,
                                     voltage_mode="paper")
            fresh = compute_yield_cell(session, capacity, "hvt", "M2")
            assert repr(shared[capacity]) == repr(fresh.summary())

    def test_each_sample_solved_once(self, one_session):
        session, _, calls = one_session
        rails = {call[1:] for call in calls if call[0]}
        # One HSNM solve, then one RSNM solve per distinct rail pair the
        # two cells' searches visited between them.
        assert [call for call in calls if not call[0]] \
            == [(False, session.library.vdd, 0.0)]
        assert len(calls) == 1 + len(rails)
        assert len(rails) > 1

    def test_concurrent_fills_are_idempotent(self, one_session):
        _, shared, _ = one_session
        session = Session.create(cache_path=CACHE_PATH,
                                 voltage_mode="paper")
        capacity = YIELD_CELLS[0]
        summaries = _run_threads(2, lambda: repr(compute_yield_cell(
            session, capacity, "hvt", "M2").summary()))
        assert summaries == [repr(shared[capacity])] * 2

    def test_racing_readers_share_one_stored_array(self, paper_session):
        from repro.cell.montecarlo import MarginSampleMemo

        cell, vdd = paper_session.cells["hvt"], paper_session.library.vdd
        reference = MarginSampleMemo(cell, vdd, 8, 3)
        expected = [reference.hsnm().tobytes()] + [
            reference.rsnm(*rails).tobytes() for rails in self.RAILS]
        memo = MarginSampleMemo(cell, vdd, 8, 3)
        reads = _run_threads(8, lambda: [memo.hsnm()] + [
            memo.rsnm(*rails) for rails in self.RAILS])
        stored = [memo.hsnm()] + [memo.rsnm(*rails)
                                  for rails in self.RAILS]
        # Whoever solved first, every reader got the one array the memo
        # kept, and it equals a single-threaded solve bitwise.
        for read in reads:
            assert all(a is b for a, b in zip(read, stored))
        assert [values.tobytes() for values in stored] == expected
        assert not stored[0].flags.writeable


class TestLazyRequirement:
    """``satisfied_grid`` asks for the relaxed floor only at levels whose
    nominal margin is below ``max(delta, 0)``, the most that floor can
    be, and answers exactly as the eager mask did."""

    AXIS = [float(v) for v in DesignSpace().v_ssc_values]
    ORDERS = {"axis": AXIS, "reversed": AXIS[::-1]}

    def _grid(self, constraint, levels):
        return constraint.satisfied_grid(RELAXED_V_DDC, levels,
                                         RELAXED_V_DDC)

    # At Y = 0.9 every level is feasible once relaxed; at Y = 1e-12 the
    # code buys less and the four levels nearest V_SSC 0 stay infeasible.
    @pytest.mark.parametrize("order,y_target", [
        ("axis", 0.9), ("axis", 1e-12), ("reversed", 1e-12)])
    def test_gaussian_mask_equals_the_eager_mask(self, paper_session,
                                                 order, y_target):
        levels = self.ORDERS[order]
        base = paper_session.constraint("hvt")
        lazy = _target_constraint(paper_session, "secded", y_target,
                                  base=base)
        eager = _target_constraint(paper_session, "secded", y_target,
                                   base=base)
        mask = self._grid(lazy, levels)
        assert mask.tolist() == _eager_mask(
            eager, RELAXED_V_DDC, levels, RELAXED_V_DDC).tolist()
        assert mask.any()
        assert mask.all() == (y_target == 0.9)
        assert lazy._stat_cache.keys() < eager._stat_cache.keys()
        for key, stats in lazy._stat_cache.items():
            assert stats == eager._stat_cache[key]

    def test_memo_solves_rsnm_only_below_delta(self, paper_session):
        delta = paper_session.delta
        base = YieldConstraint(
            paper_session.library, "hvt", delta,
            trust_fixed_rails=paper_session.constraint(
                "hvt").trust_fixed_rails)
        constraint = _target_constraint(paper_session, "secded", base=base)
        assert self._grid(constraint, self.AXIS).all()
        nominal = _nominal(constraint, RELAXED_V_DDC, self.AXIS,
                           RELAXED_V_DDC)
        below = {(RELAXED_V_DDC, round(v, 4))
                 for v, margin in zip(self.AXIS, nominal) if margin < delta}
        # Nominal RSNM rises from 142 mV at V_SSC 0 to 160 mV at -240 mV:
        # the 12 most negative levels clear delta and solve nothing.
        assert len(below) == 13
        assert set(constraint.margin_samples._solved) == {"hsnm"} | below

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_shifted_hint_and_relaxations_equal_the_eager_run(
            self, paper_session, order):
        levels = self.ORDERS[order]
        settings = dict(n_samples=60, sampler="shifted", ci_target=0.5,
                        max_samples=128,
                        base=paper_session.constraint("hvt"))
        lazy = _target_constraint(paper_session, "secded", **settings)
        eager = _target_constraint(paper_session, "secded", **settings)
        mask = self._grid(lazy, levels)
        assert mask.tolist() == _eager_mask(
            eager, RELAXED_V_DDC, levels, RELAXED_V_DDC).tolist()
        assert eager._direction_hint is not None
        assert np.asarray(lazy._direction_hint).tobytes() \
            == np.asarray(eager._direction_hint).tobytes()
        for key, (relaxation, _) in lazy._relax_cache.items():
            assert relaxation == eager._relax_cache[key][0]
        # Every level up to the one whose buffer set the hint is
        # computed, whatever its margin; after it, only those below the
        # ceiling are.
        keys = [(RELAXED_V_DDC, round(v, 4)) for v in levels]
        hinted = next(i for i, key in enumerate(keys)
                      if eager._buffer_cache[key].search.crossed)
        nominal = _nominal(lazy, RELAXED_V_DDC, levels, RELAXED_V_DDC)
        ceiling = max(lazy.delta, 0.0)
        assert set(lazy._relax_cache) == {
            key for i, (key, margin) in enumerate(zip(keys, nominal))
            if i <= hinted or margin < ceiling}
        if order == "reversed":
            # The first level clears the ceiling, yet runs its buffer.
            assert nominal[0] >= ceiling
            assert keys[0] in lazy._relax_cache


class TestSampleCount:
    """A ddof=1 sigma needs two samples; one is refused up front."""

    def test_one_sample_rejected(self, paper_session):
        with pytest.raises(ValueError, match="n_samples .* got 1$"):
            _target_constraint(paper_session, "secded", n_samples=1)

    def test_study_rejects_one_sample_before_searching(self,
                                                       paper_session):
        def evaluations():
            return perf.get_registry().snapshot()["counters"].get(
                "optimizer.evaluations", 0)

        before = evaluations()
        with pytest.raises(ValueError, match="n_samples .* got 1$"):
            compute_yield_cell(paper_session, 1024, "hvt", "M2",
                               n_samples=1)
        assert evaluations() == before


class TestMonteCarloYieldConstraint:
    def test_reads_memo_bit_identical_whatever_v_wl(self, paper_session,
                                                    monkeypatch):
        from repro.cell.bias import CellBias
        from repro.cell.montecarlo import run_cell_montecarlo

        library = paper_session.library
        vdd = library.vdd
        constraint = MonteCarloYieldConstraint(library, "hvt", k=3.0,
                                               n_samples=24, seed=7)
        rails = ((0.55, 0.0), (0.55, -0.1))
        for v_ddc, v_ssc in rails:
            result = run_cell_montecarlo(
                paper_session.cells["hvt"], n_samples=24, seed=7,
                vdd=vdd,
                read_bias=CellBias.read(vdd=vdd, v_ddc=v_ddc,
                                        v_ssc=v_ssc),
                metrics=("hsnm", "rsnm"), snm_points=41,
            )
            assert constraint.mu_minus_k_sigma(v_ddc, v_ssc) == (
                result.metric("hsnm").mu_minus_k_sigma(3.0),
                result.metric("rsnm").mu_minus_k_sigma(3.0),
            )
            assert constraint.margins(v_ddc, v_ssc, 0.50)[:2] \
                == constraint.mu_minus_k_sigma(v_ddc, v_ssc)

        # Neither margin depends on V_WL: another wordline level at the
        # same rails solves nothing.
        calls = _record_snm_solves(monkeypatch)
        for v_ddc, v_ssc in rails:
            assert constraint.margins(v_ddc, v_ssc, 0.60)[:2] \
                == constraint.mu_minus_k_sigma(v_ddc, v_ssc)
            constraint.satisfied(v_ddc, v_ssc, 0.60)
        assert calls == []


class TestSampledRelaxation:
    """The rare-event sampler behind the margin-floor solve."""

    def test_unknown_sampler_rejected(self, paper_session):
        # Only gaussian and shifted are samplers of the yield study.
        for sampler in ("bogus", "naive", "antithetic", "stratified"):
            with pytest.raises(ValueError):
                _target_constraint(paper_session, "secded",
                                   sampler=sampler)

    def test_study_rejects_unknown_sampler_before_searching(
            self, paper_session):
        def evaluations():
            return perf.get_registry().snapshot()["counters"].get(
                "optimizer.evaluations", 0)

        before = evaluations()
        with pytest.raises(ValueError, match="unknown sampler"):
            compute_yield_cell(paper_session, 16384, "hvt", "M2",
                               sampler="naive")
        assert evaluations() == before

    def test_gaussian_mode_has_no_tail_estimate(self, paper_session):
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        with pytest.raises(ValueError):
            constraint.tail_estimate(0.55, 0.0)

    def test_unconverged_budget_falls_back_to_gaussian(self,
                                                       paper_session):
        constraint = _target_constraint(
            paper_session, "secded", n_samples=60, sampler="shifted",
            ci_target=0.01, max_samples=128,
        )
        relax = constraint.relaxation(0.55, 0.0)
        assert relax == constraint.delta_z * constraint.sigma(0.55, 0.0)
        estimate = constraint._relax_cache[(0.55, 0.0)][1]
        assert estimate is not None
        assert not estimate.converged

    def test_buffer_reused_across_floor_queries(self, paper_session):
        constraint = _target_constraint(
            paper_session, "secded", n_samples=60, sampler="shifted",
            ci_target=0.5, max_samples=256,
        )
        relax = constraint.relaxation(0.55, 0.0)
        buffer = constraint._buffer_cache[(0.55, 0.0)]
        assert buffer.search is not None
        evals = buffer.solver.n_evals
        # Repeated relaxations, reported tails, and fresh floor
        # bisections all ride the cached samples — zero re-solves.
        assert constraint.relaxation(0.55, 0.0) == relax
        estimate = constraint.tail_estimate(0.55, 0.0)
        buffer.floor_for(1e-3)
        assert buffer.solver.n_evals == evals
        assert estimate.n_samples >= 2 * buffer.block
        assert 0.0 <= relax
        assert constraint.requirement(0.55, 0.0) <= constraint.delta


    def test_sampled_relaxation_memo_roundtrip(self, paper_session):
        constraint = _target_constraint(
            paper_session, "secded", n_samples=60, sampler="shifted",
            ci_target=0.5, max_samples=256,
        )
        relax = constraint.relaxation(0.55, 0.0)
        assert constraint._relax_cache[(0.55, 0.0)][0] == relax

        # The sample buffers hold live solver closures and stay in
        # their process; the relaxation memo pickles without them.
        fresh = pickle.loads(pickle.dumps(
            replace(constraint, _buffer_cache={})))
        assert fresh.relaxation(0.55, 0.0) == relax
        # Answered from the memo: no buffer was ever built.
        assert fresh._buffer_cache == {}


class TestCodeResolution:
    def test_string_code_resolved(self, paper_session):
        constraint = _target_constraint(paper_session, "secded")
        assert constraint.code.name == "secded"
        assert constraint.code.check_bits == 8

    def test_code_object_passthrough(self, paper_session):
        code = make_code("secded-x2", 64)
        constraint = _target_constraint(paper_session, code)
        assert constraint.code is code
        assert constraint.n_words == CAPACITY_BITS // 64
