"""The row gate: admissible tile bounds and the rows they let the search
skip.

Without a landscape, :meth:`ExhaustiveOptimizer.optimize` skips every
row whose smallest ``(n_r, V_SSC)`` tile bound strictly exceeds the
incumbent EDP.  That is only safe while the bounds of
:func:`~repro.opt.bounds.tile_lower_bounds` never exceed the true
metrics anywhere in their tile, which the property test below checks
over random points of random configurations.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.analysis.experiments import CAPACITIES_BYTES, FLAVORS, METHODS
from repro.array import DesignPoint, SRAMArrayModel
from repro.errors import DesignSpaceError
from repro.opt import (
    DesignSpace,
    ExhaustiveOptimizer,
    make_policy,
    policy_m2_negative_bl,
)
from repro.opt.bounds import tile_lower_bounds

#: The full 20-cell study matrix (5 capacities x 2 flavors x 2 methods).
STUDY_CELLS = [
    (flavor, method, capacity)
    for flavor in FLAVORS
    for method in METHODS
    for capacity in CAPACITIES_BYTES
]

#: ECC configurations the bounds must hold under.
ECC_CONFIGS = {
    "none": {},
    "inline": {"ecc": "secded"},
    "pipelined": {"ecc": "secded", "ecc_pipelined": True},
}


def _optimizer(paper_session, flavor, model=None):
    return ExhaustiveOptimizer(
        model or paper_session.model(flavor), DesignSpace(),
        paper_session.constraint(flavor),
    )


@pytest.mark.parametrize("flavor,method,capacity_bytes", STUDY_CELLS)
def test_pruned_parity_on_study_matrix(paper_session, flavor, method,
                                       capacity_bytes):
    """The gated search under pipelined and 4-way interleaved SECDED
    (whose constant ECC terms enter both the bounds and the metrics)
    lands on the reference optimum."""
    policy = make_policy(method, paper_session.yield_levels(flavor))
    for config in (
            replace(paper_session.config, ecc="secded",
                    ecc_pipelined=True),
            replace(paper_session.config, ecc="secded-x4")):
        model = SRAMArrayModel(paper_session.chars[flavor], config)
        optimizer = _optimizer(paper_session, flavor, model)
        reference = optimizer.optimize_reference(capacity_bytes * 8,
                                                 policy)
        gated = optimizer.optimize(capacity_bytes * 8, policy)
        assert gated.design == reference.design
        assert gated.metrics.edp == reference.metrics.edp
        assert gated.metrics.d_array == reference.metrics.d_array
        assert gated.metrics.e_total == reference.metrics.e_total
        assert gated.margins == reference.margins
        assert gated.n_evaluated <= reference.n_evaluated


def test_pruning_skips_at_least_half_the_space(paper_session):
    """The acceptance cell: 16KB/HVT/M2 skips >= 50% of the space."""
    optimizer = _optimizer(paper_session, "hvt")
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    reference = optimizer.optimize_reference(16384 * 8, policy)
    gated = optimizer.optimize(16384 * 8, policy)
    assert gated.design == reference.design
    assert gated.n_evaluated <= reference.n_evaluated // 2


def test_pruned_records_perf_counters(paper_session):
    def counter(name):
        return perf.get_registry().snapshot()["counters"].get(name, 0)

    before_rows = counter("optimizer.rows_skipped")
    before_points = counter("optimizer.evaluations")
    optimizer = _optimizer(paper_session, "hvt")
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    gated = optimizer.optimize(16384 * 8, policy)
    assert counter("optimizer.rows_skipped") > before_rows
    assert (counter("optimizer.evaluations") - before_points
            == gated.n_evaluated)


_MODELS = {}


def _model(session, flavor, ecc):
    key = (flavor, ecc)
    if key not in _MODELS:
        _MODELS[key] = SRAMArrayModel(
            session.chars[flavor],
            replace(session.config, **ECC_CONFIGS[ecc]))
    return _MODELS[key]


@settings(max_examples=80, deadline=None)
@given(data=st.data(),
       flavor=st.sampled_from(FLAVORS),
       capacity_bytes=st.sampled_from([64 << k for k in range(11)]),
       ecc=st.sampled_from(sorted(ECC_CONFIGS)),
       policy_name=st.sampled_from(("M1", "M2", "M2-NBL")))
def test_bounds_are_admissible(paper_session, data, flavor,
                               capacity_bytes, ecc, policy_name):
    """A tile's d_array / e_total / edp bounds sit at or below the
    true metrics of any point in the tile."""
    space = DesignSpace()
    levels = paper_session.yield_levels(flavor)
    if policy_name == "M2-NBL":
        policy = policy_m2_negative_bl(levels, paper_session.library.vdd,
                                       -0.15)
    else:
        policy = make_policy(policy_name, levels)
    model = _model(paper_session, flavor, ecc)
    bits = capacity_bytes * 8
    rows = space.row_counts(bits)
    r = data.draw(st.integers(0, len(rows) - 1), label="row")
    v_ssc = data.draw(st.sampled_from(space.v_ssc_values), label="v_ssc")
    n_pre = data.draw(st.integers(1, space.n_pre_max), label="n_pre")
    n_wr = data.draw(st.integers(1, space.n_wr_max), label="n_wr")
    bounds = tile_lower_bounds(model, space, bits, policy, [v_ssc])
    metrics = model.evaluate(bits, DesignPoint(
        n_r=rows[r], n_c=bits // rows[r], n_pre=n_pre, n_wr=n_wr,
        v_ddc=policy.v_ddc, v_ssc=v_ssc, v_wl=policy.v_wl,
        v_bl=policy.v_bl,
    ))
    assert bounds.d_array[r, 0] <= metrics.d_array
    assert bounds.e_total[r, 0] <= metrics.e_total
    assert bounds.edp[r, 0] <= metrics.edp


def test_bounds_tighten_with_fin_range(paper_session):
    """Bounding a sub-range of fins can only raise (tighten) the bound."""
    optimizer = _optimizer(paper_session, "hvt")
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    space = optimizer.space
    capacity_bits = 16384 * 8
    feasible = optimizer._feasible_v_ssc(policy)
    wide = tile_lower_bounds(optimizer.model, space, capacity_bits,
                             policy, feasible)
    narrow_space = DesignSpace(n_pre_max=space.n_pre_values[-1] // 2,
                               n_wr_max=space.n_wr_values[-1] // 2)
    narrow = tile_lower_bounds(optimizer.model, narrow_space,
                               capacity_bits, policy, feasible)
    assert np.all(narrow.edp >= wide.edp)


def test_pruned_infeasible_space_raises(paper_session):
    """A constraint without ``satisfied_grid`` that rejects every
    candidate: the per-candidate feasibility path raises too."""
    class Infeasible:
        flavor = "hvt"

        def satisfied(self, *args, **kwargs):
            return False

        def margins(self, *args, **kwargs):
            return (0.0, 0.0, 0.0)

    optimizer = ExhaustiveOptimizer(
        paper_session.model("hvt"), DesignSpace(), Infeasible()
    )
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    with pytest.raises(DesignSpaceError):
        optimizer.optimize(1024 * 8, policy)
    with pytest.raises(DesignSpaceError):
        optimizer.pareto(1024 * 8, policy)
