"""The search's correctness contract: production vs reference.

:meth:`ExhaustiveOptimizer.optimize` (the bound-gated row sweep) and
:meth:`~ExhaustiveOptimizer.pareto` must agree with the scalar slice
loop :meth:`~ExhaustiveOptimizer.optimize_reference` — same design,
same metrics and margins, bit for bit; with a landscape, the same
landscape; the same Pareto front — over the paper's study matrix, the
benchmark's 64 B-64 KB capacities, both flavors, M1, M2 and M2 with a
negative bitline, with and without ECC.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.experiments import CAPACITIES_BYTES, FLAVORS, METHODS
from repro.array import SRAMArrayModel
from repro.errors import DesignSpaceError
from repro.opt import (
    DesignSpace,
    ExhaustiveOptimizer,
    make_policy,
    pareto_front,
    policy_m2_negative_bl,
)

#: Capacities [bytes]: the paper's five plus the benchmark's 64 B-64 KB.
CAPACITIES = sorted(set(CAPACITIES_BYTES) | {64 << k for k in range(11)})
POLICIES = ("M1", "M2", "M2-NBL")
ECC_CODES = ("none", "secded")


def _case_id(flavor, policy, capacity_bytes, ecc):
    # The paper's cells (no ECC, M1/M2) keep their historical ids.
    label = "%s-%s-%d" % (flavor, policy, capacity_bytes)
    return label if ecc == "none" else "%s-%s" % (label, ecc)


CASES = [
    pytest.param(flavor, policy, capacity, ecc,
                 id=_case_id(flavor, policy, capacity, ecc))
    for ecc in ECC_CODES
    for flavor in FLAVORS
    for policy in POLICIES
    for capacity in CAPACITIES
]


def _policy(session, flavor, name):
    levels = session.yield_levels(flavor)
    if name == "M2-NBL":
        return policy_m2_negative_bl(levels, session.library.vdd, -0.15)
    return make_policy(name, levels)


def _optimizer(session, flavor, ecc="none"):
    model = session.model(flavor)
    if ecc != "none":
        model = SRAMArrayModel(session.chars[flavor],
                               replace(session.config, ecc=ecc))
    return ExhaustiveOptimizer(model, DesignSpace(),
                               session.constraint(flavor))


def assert_same_optimum(result, reference):
    """Same design, metrics at the optimum and margins, bit for bit."""
    assert result.design == reference.design
    assert result.metrics.edp == reference.metrics.edp
    assert result.metrics.d_array == reference.metrics.d_array
    assert result.metrics.e_total == reference.metrics.e_total
    assert result.margins == reference.margins


@pytest.mark.parametrize("flavor,policy,capacity_bytes,ecc", CASES)
def test_three_way_parity_on_study_matrix(paper_session, flavor, policy,
                                          capacity_bytes, ecc):
    """Production EDP search, production landscape and Pareto sweep,
    each against one reference run."""
    optimizer = _optimizer(paper_session, flavor, ecc)
    voltage_policy = _policy(paper_session, flavor, policy)
    bits = capacity_bytes * 8
    reference = optimizer.optimize_reference(bits, voltage_policy,
                                             keep_landscape=True)
    gated = optimizer.optimize(bits, voltage_policy)
    assert_same_optimum(gated, reference)
    assert gated.landscape == []
    assert 0 < gated.n_evaluated <= reference.n_evaluated

    full = optimizer.optimize(bits, voltage_policy, keep_landscape=True)
    assert_same_optimum(full, reference)
    assert full.landscape == reference.landscape
    assert full.n_evaluated == reference.n_evaluated

    sweep = optimizer.pareto(bits, voltage_policy)
    assert list(sweep.front) == pareto_front(reference.landscape)
    assert sweep.n_tiles == len(reference.landscape)
    assert 0 < sweep.n_evaluated <= reference.n_evaluated


def test_fused_infeasible_space_raises(paper_session):
    """No feasible V_SSC: both searches raise, neither evaluates."""
    class Infeasible:
        flavor = "hvt"

        def satisfied_grid(self, v_ddc, v_ssc_values, v_wl, v_bl=0.0):
            return np.zeros(len(v_ssc_values), dtype=bool)

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
    with pytest.raises(DesignSpaceError):
        optimizer.optimize_reference(1024 * 8, policy)


# ---------------------------------------------------------------------------
# optimize_many: one optimize per policy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flavor,capacity_bytes", [
    (flavor, capacity)
    for flavor in FLAVORS
    for capacity in CAPACITIES_BYTES
])
def test_optimize_many_parity_on_study_matrix(paper_session, flavor,
                                              capacity_bytes):
    optimizer = _optimizer(paper_session, flavor)
    levels = paper_session.yield_levels(flavor)
    policies = [make_policy(method, levels) for method in METHODS]
    many = optimizer.optimize_many(capacity_bytes * 8, policies)
    assert len(many) == len(METHODS)
    for policy, result in zip(policies, many):
        single = optimizer.optimize(capacity_bytes * 8, policy)
        assert_same_optimum(result, single)
        assert result.n_evaluated == single.n_evaluated


def test_optimize_many_empty_policy_list(paper_session):
    assert _optimizer(paper_session, "hvt").optimize_many(1024 * 8,
                                                         []) == []
