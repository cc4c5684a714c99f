"""Search parity on a trimmed space, and the array/constraint inputs
the search relies on.

The row sweep must match the reference slice loop bit for bit on any
design space, not only the paper's: here a coarser V_SSC grid, fewer
fin counts and a capped row range, with the landscape kept.
"""

import pickle

import numpy as np
import pytest

from repro.array import ArrayConfig, SRAMArrayModel
from repro.opt import constraints
from repro.opt import (
    DesignSpace,
    ExhaustiveOptimizer,
    YieldConstraint,
    make_policy,
)

CASES = [
    (flavor, method, capacity_bytes)
    for flavor in ("lvt", "hvt")
    for method in ("M1", "M2")
    for capacity_bytes in (1024, 16384)
]

TRIMMED = DesignSpace(v_ssc_values=(0.0, -0.06, -0.12, -0.18, -0.24),
                      n_r_max=256, n_pre_max=12, n_wr_max=6)


@pytest.mark.parametrize("flavor,method,capacity_bytes", CASES)
def test_engines_bit_identical(paper_session, flavor, method,
                               capacity_bytes):
    optimizer = ExhaustiveOptimizer(paper_session.model(flavor), TRIMMED,
                                    paper_session.constraint(flavor))
    policy = make_policy(method, paper_session.yield_levels(flavor))
    reference = optimizer.optimize_reference(
        capacity_bytes * 8, policy, keep_landscape=True)
    for keep_landscape in (False, True):
        result = optimizer.optimize(capacity_bytes * 8, policy,
                                    keep_landscape=keep_landscape)
        assert result.design == reference.design
        assert result.metrics.edp == reference.metrics.edp
        assert result.metrics.d_array == reference.metrics.d_array
        assert result.metrics.e_total == reference.metrics.e_total
        assert result.margins == reference.margins
    assert result.n_evaluated == reference.n_evaluated
    assert result.landscape == reference.landscape


def test_vectorized_constraint_fallback(library, hvt_char):
    """A duck-typed constraint without satisfied_grid still works (the
    search falls back to per-candidate satisfied() calls)."""

    class MinimalConstraint:
        flavor = "hvt"

        def __init__(self, inner):
            self.inner = inner

        def satisfied(self, v_ddc, v_ssc, v_wl, v_bl=0.0):
            return self.inner.satisfied(v_ddc, v_ssc, v_wl, v_bl)

        def margins(self, v_ddc, v_ssc, v_wl, v_bl=0.0):
            return self.inner.margins(v_ddc, v_ssc, v_wl, v_bl)

    inner = YieldConstraint(library, "hvt", delta=0.35 * library.vdd)
    inner._v_flip = hvt_char.v_wl_flip
    model = SRAMArrayModel(hvt_char, ArrayConfig())
    space = DesignSpace(n_pre_max=10, n_wr_max=5)
    from repro.opt import YieldLevels

    levels = YieldLevels(v_ddc_min=0.550, v_wl_min=0.540)
    policy = make_policy("M2", levels)
    reference = ExhaustiveOptimizer(model, space, inner) \
        .optimize_reference(1024 * 8, policy)
    ducked = ExhaustiveOptimizer(
        model, space, MinimalConstraint(inner)
    ).optimize(1024 * 8, policy)
    assert ducked.design == reference.design
    assert ducked.metrics.edp == reference.metrics.edp


def test_model_accepts_v_ssc_axis(paper_session):
    """Direct model check: a (S, 1, 1) V_SSC axis broadcasts to
    (S, P, W) metrics whose slices match scalar evaluations."""
    from repro.array import DesignPoint

    model = paper_session.model("hvt")
    space = DesignSpace(n_pre_max=6, n_wr_max=4)
    n_pre, n_wr = np.meshgrid(space.n_pre_values, space.n_wr_values,
                              indexing="ij")
    levels = np.array([-0.12, -0.06, 0.0])
    axis = levels.reshape(-1, 1, 1)
    batch = model.evaluate(4096 * 8, DesignPoint(
        n_r=512, n_c=64, n_pre=n_pre, n_wr=n_wr,
        v_ddc=0.550, v_ssc=axis, v_wl=0.550,
    ))
    assert batch.edp.shape == (3,) + n_pre.shape
    for s, v_ssc in enumerate(levels):
        single = model.evaluate(4096 * 8, DesignPoint(
            n_r=512, n_c=64, n_pre=n_pre, n_wr=n_wr,
            v_ddc=0.550, v_ssc=float(v_ssc), v_wl=0.550,
        ))
        assert np.array_equal(batch.edp[s], single.edp)
        assert np.array_equal(
            np.broadcast_to(batch.d_array, batch.edp.shape)[s],
            np.broadcast_to(single.d_array, single.edp.shape),
        )


def test_constraint_grid_matches_scalar(paper_session):
    """satisfied_grid / margins_grid agree with the scalar API."""
    constraint = paper_session.constraint("hvt")
    space = DesignSpace()
    levels = paper_session.yield_levels("hvt")
    policy = make_policy("M2", levels)
    candidates = [float(v) for v in policy.v_ssc_candidates(space)]
    mask = constraint.satisfied_grid(policy.v_ddc, candidates,
                                     policy.v_wl, policy.v_bl)
    hsnm, rsnm, wm = constraint.margins_grid(policy.v_ddc, candidates,
                                             policy.v_wl, policy.v_bl)
    assert mask.shape == (len(candidates),)
    for k, v_ssc in enumerate(candidates):
        assert bool(mask[k]) == constraint.satisfied(
            policy.v_ddc, v_ssc, policy.v_wl, policy.v_bl
        )
        s_hsnm, s_rsnm, s_wm = constraint.margins(
            policy.v_ddc, v_ssc, policy.v_wl, policy.v_bl
        )
        assert hsnm[k] == s_hsnm
        assert rsnm[k] == s_rsnm
        assert wm[k] == s_wm


def _never(*args, **kwargs):
    raise AssertionError("recomputed a memoized margin")


def test_margin_memo_round_trip(library, hvt_char, monkeypatch):
    """Memoized margins travel with a pickled constraint (as a process
    pool ships the caller's session to its workers), and the loaded
    copy answers without recomputing butterflies."""
    source = YieldConstraint(library, "hvt", delta=0.35 * library.vdd)
    source._v_flip = hvt_char.v_wl_flip
    source.margins(0.550, -0.10, 0.550)
    source.margins(0.550, -0.20, 0.550)
    assert len(source._rsnm_cache) == 2

    target = pickle.loads(pickle.dumps(source))
    assert target._rsnm_cache == source._rsnm_cache
    assert target._v_flip == source._v_flip
    assert target._hsnm == source._hsnm
    monkeypatch.setattr(constraints, "butterfly", _never)
    monkeypatch.setattr(constraints, "hold_snm", _never)
    assert target.margins(0.550, -0.10, 0.550) == source.margins(
        0.550, -0.10, 0.550
    )
