"""Pareto-front extraction, the front sweep and its dominance gate,
weighted optima."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.analysis.experiments import (
    CAPACITIES_BYTES,
    FLAVORS,
    METHODS,
)
from repro.opt import (
    DesignSpace,
    ExhaustiveOptimizer,
    best_weighted,
    make_policy,
    pareto_front,
)
from repro.opt.results import LandscapePoint

from .test_opt_fused import _policy
from .test_opt_pruned import ECC_CONFIGS, _model

STUDY_CELLS = [
    (flavor, method, capacity)
    for flavor in FLAVORS
    for method in METHODS
    for capacity in CAPACITIES_BYTES
]


def point(d, e, n_r=64):
    return LandscapePoint(n_r=n_r, v_ssc=0.0, n_pre=1, n_wr=1,
                          edp=d * e, d_array=d, e_total=e)


def test_front_filters_dominated_points():
    points = [point(1.0, 4.0), point(2.0, 2.0), point(4.0, 1.0),
              point(3.0, 3.0)]  # the last one is dominated
    front = pareto_front(points)
    assert len(front) == 3
    assert all(not (p.d_array == 3.0 and p.e_total == 3.0) for p in front)


def test_front_sorted_by_delay():
    front = pareto_front([point(4.0, 1.0), point(1.0, 4.0),
                          point(2.0, 2.0)])
    delays = [p.d_array for p in front]
    assert delays == sorted(delays)


def test_single_point_front():
    front = pareto_front([point(1.0, 1.0)])
    assert len(front) == 1
    assert front[0].edp == pytest.approx(1.0)


def test_empty_landscape_raises():
    with pytest.raises(ValueError):
        pareto_front([])


def test_equal_delay_keeps_lowest_energy():
    front = pareto_front([point(1.0, 3.0), point(1.0, 2.0),
                          point(2.0, 1.0)])
    assert [(p.d_array, p.e_total) for p in front] == [(1.0, 2.0),
                                                       (2.0, 1.0)]


def test_equal_energy_keeps_lowest_delay():
    front = pareto_front([point(3.0, 1.0), point(2.0, 1.0)])
    assert [(p.d_array, p.e_total) for p in front] == [(2.0, 1.0)]


def test_exact_duplicates_keep_first_in_visit_order():
    # Two coincident (D, E) points must resolve to the *first* one the
    # search would have visited — the documented tie rule.
    first = point(1.0, 1.0, n_r=8)
    second = point(1.0, 1.0, n_r=16)
    front = pareto_front([first, second])
    assert len(front) == 1
    assert front[0].n_r == 8
    # ...and the order of arrival, not the coordinates, decides.
    front = pareto_front([second, first])
    assert front[0].n_r == 16


points_strategy = st.lists(
    st.tuples(st.floats(min_value=0.1, max_value=10.0),
              st.floats(min_value=0.1, max_value=10.0)),
    min_size=1, max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(points_strategy)
def test_front_is_mutually_non_dominated(raw):
    """Property: no front member dominates another."""
    front = pareto_front([point(d, e) for d, e in raw])
    for a in front:
        for b in front:
            if a is b:
                continue
            dominates = (a.d_array <= b.d_array and a.e_total <= b.e_total
                         and (a.d_array < b.d_array
                              or a.e_total < b.e_total))
            assert not dominates


@settings(max_examples=60, deadline=None)
@given(points_strategy)
def test_every_point_dominated_or_on_front(raw):
    """Property: each input point is beaten (weakly) by a front point."""
    points = [point(d, e) for d, e in raw]
    front = pareto_front(points)
    for p in points:
        assert any(f.d_array <= p.d_array + 1e-12
                   and f.e_total <= p.e_total + 1e-12 for f in front)


def test_best_weighted_recovers_edp_optimum():
    points = [point(1.0, 4.0), point(2.0, 1.5), point(4.0, 1.0)]
    front = pareto_front(points)
    best = best_weighted(front, 1.0, 1.0)
    assert best.edp == pytest.approx(min(p.edp for p in points))


def test_best_weighted_exponents_shift_choice():
    points = [point(1.0, 5.0), point(5.0, 1.0)]
    front = pareto_front(points)
    fast = best_weighted(front, energy_exponent=1.0, delay_exponent=3.0)
    green = best_weighted(front, energy_exponent=3.0, delay_exponent=1.0)
    assert fast.d_array < green.d_array


def test_best_weighted_empty_front_raises():
    with pytest.raises(ValueError):
        best_weighted([])


# ---------------------------------------------------------------------------
# Front sweeps (ExhaustiveOptimizer.pareto)
# ---------------------------------------------------------------------------

def _optimizer(paper_session, flavor):
    return ExhaustiveOptimizer(
        paper_session.model(flavor), DesignSpace(),
        paper_session.constraint(flavor),
    )


def _pareto(paper_session, flavor, method, capacity_bytes):
    policy = make_policy(method, paper_session.yield_levels(flavor))
    return _optimizer(paper_session, flavor).pareto(capacity_bytes * 8,
                                                    policy)


@pytest.mark.parametrize("flavor,method,capacity_bytes", STUDY_CELLS)
def test_pruned_pareto_matches_landscape_front(paper_session, flavor,
                                               method, capacity_bytes):
    """The sweep's front is the batch front of the search's own full
    landscape, over every tile, on every study cell."""
    optimizer = _optimizer(paper_session, flavor)
    policy = make_policy(method, paper_session.yield_levels(flavor))
    sweep = optimizer.pareto(capacity_bytes * 8, policy)
    full = optimizer.optimize(capacity_bytes * 8, policy,
                              keep_landscape=True)
    assert list(sweep.front) == pareto_front(full.landscape)
    assert sweep.n_tiles == len(full.landscape)
    assert 0 < sweep.n_evaluated <= full.n_evaluated


def test_pareto_front_members_are_feasible_landscape_points(
        paper_session):
    optimizer = _optimizer(paper_session, "hvt")
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    result = optimizer.optimize(16384 * 8, policy, keep_landscape=True)
    sweep = optimizer.pareto(16384 * 8, policy)
    landscape = {(p.n_r, p.v_ssc, p.n_pre, p.n_wr): p
                 for p in result.landscape}
    for p in sweep.front:
        lp = landscape[(p.n_r, p.v_ssc, p.n_pre, p.n_wr)]
        assert (lp.d_array, lp.e_total) == (p.d_array, p.e_total)


def test_best_weighted_unit_exponents_recover_edp_optimum(paper_session):
    optimizer = _optimizer(paper_session, "hvt")
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    sweep = optimizer.pareto(16384 * 8, policy)
    best = best_weighted(sweep.front, 1.0, 1.0)
    direct = optimizer.optimize(16384 * 8, policy)
    assert best.edp == direct.metrics.edp
    assert best.n_r == direct.design.n_r
    assert best.n_pre == direct.design.n_pre
    assert best.n_wr == direct.design.n_wr


def test_pareto_capacity_bytes_property(paper_session):
    sweep = _pareto(paper_session, "hvt", "M2", 128)
    assert sweep.capacity_bytes == 128
    assert sweep.capacity_bits == 128 * 8
    assert sweep.flavor == "hvt" and sweep.method == "M2"


# ---------------------------------------------------------------------------
# The dominance gate: pareto() skips a row when a scored design strictly
# dominates the bound point (d_lb, e_lb) of every one of its tiles.
# ---------------------------------------------------------------------------

def _rows_skipped():
    return perf.get_registry().snapshot()["counters"].get(
        "optimizer.rows_skipped", 0)


@settings(max_examples=100, deadline=None)
@given(flavor=st.sampled_from(FLAVORS),
       capacity_bytes=st.sampled_from([64 << k for k in range(11)]),
       policy_name=st.sampled_from(("M1", "M2", "M2-NBL")),
       ecc=st.sampled_from(sorted(ECC_CONFIGS)))
def test_gated_front_equals_the_reference_front(paper_session, flavor,
                                                capacity_bytes,
                                                policy_name, ecc):
    """The gate drops only strictly dominated tiles, so the front, its
    EDP optimum and the tile count are the full landscape's, while the
    scored and skipped rows add up to every row."""
    optimizer = ExhaustiveOptimizer(_model(paper_session, flavor, ecc),
                                    DesignSpace(),
                                    paper_session.constraint(flavor))
    policy = _policy(paper_session, flavor, policy_name)
    bits = capacity_bytes * 8
    reference = optimizer.optimize_reference(bits, policy,
                                             keep_landscape=True)
    before = _rows_skipped()
    sweep = optimizer.pareto(bits, policy)
    skipped = _rows_skipped() - before

    assert list(sweep.front) == pareto_front(reference.landscape)
    assert sweep.n_tiles == len(reference.landscape)
    assert 0 < sweep.n_evaluated <= reference.n_evaluated
    assert (min(p.edp for p in sweep.front)
            == optimizer.optimize(bits, policy).metrics.edp)
    rows = len(optimizer.space.row_counts(bits))
    per_row = reference.n_evaluated // rows
    assert sweep.n_evaluated % per_row == 0
    assert sweep.n_evaluated // per_row + skipped == rows


@pytest.mark.parametrize("capacity_bytes,scored,rows", [
    (16384, 2, 4),
    (512, 1, 9),
])
def test_gate_scores_only_undominated_rows(paper_session, capacity_bytes,
                                           scored, rows):
    """HVT/M2 cells whose front lies in a few rows: the gate scores
    only those."""
    optimizer = _optimizer(paper_session, "hvt")
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    bits = capacity_bytes * 8
    full = optimizer.optimize(bits, policy, keep_landscape=True)
    sweep = optimizer.pareto(bits, policy)
    assert len(optimizer.space.row_counts(bits)) == rows
    assert sweep.n_evaluated * rows == full.n_evaluated * scored
    assert list(sweep.front) == pareto_front(full.landscape)
