"""Yield constraints (fixed-delta and trust modes)."""

import pytest

import repro.assist.study
import repro.cell.montecarlo
import repro.cell.snm
import repro.opt.constraints
from repro.analysis import Session
from repro.analysis.runner import run_study
from repro.opt import YieldConstraint

from .conftest import CACHE_PATH


@pytest.fixture(scope="module")
def constraint(library, hvt_char):
    c = YieldConstraint(library, "hvt", delta=0.35 * library.vdd)
    c._v_flip = hvt_char.v_wl_flip  # reuse the characterized flip point
    return c


def test_margins_structure(constraint):
    hsnm, rsnm, wm = constraint.margins(0.55, -0.1, 0.55)
    assert hsnm > 0 and rsnm > 0 and wm > 0


def test_satisfied_at_paper_operating_point(constraint):
    assert constraint.satisfied(0.55, -0.1, 0.55)


def test_unsatisfied_without_assists(constraint, library):
    # No boost: RSNM below delta (the premise of the whole paper).
    assert not constraint.satisfied(library.vdd, 0.0, 0.55)


def test_unsatisfied_with_weak_wordline(constraint):
    # WM fails when the write wordline is barely above the flip point.
    assert not constraint.satisfied(0.55, 0.0, 0.40)


def test_rsnm_memoization(constraint):
    first = constraint.rsnm(0.55, -0.05)
    again = constraint.rsnm(0.55, -0.05)
    assert first == again
    assert (0.55, -0.05) in constraint._rsnm_cache


def test_hsnm_independent_of_assists(constraint):
    assert constraint.hsnm() == constraint.hsnm()
    assert constraint.hsnm() > constraint.delta


def test_wm_linear_in_wordline(constraint):
    assert constraint.wm(0.60) - constraint.wm(0.50) == pytest.approx(0.10)


def test_trust_fixed_rails_skips_wm(library, hvt_char):
    trusting = YieldConstraint(
        library, "hvt", delta=0.35 * library.vdd, trust_fixed_rails=True
    )
    trusting._v_flip = hvt_char.v_wl_flip
    # A wordline that fails WM in strict mode passes in trust mode
    # (the rails are pinned to paper-validated values).
    assert trusting.satisfied(0.55, 0.0, 0.40)
    strict = YieldConstraint(library, "hvt", delta=0.35 * library.vdd)
    strict._v_flip = hvt_char.v_wl_flip
    assert not strict.satisfied(0.55, 0.0, 0.40)


def test_fresh_study_solves_each_rsnm_axis_at_once(monkeypatch):
    """A fresh session's study makes six margin solves: two HSNMs, the
    two M1 single levels, and one lane-batched V_SSC axis per flavor,
    not one butterfly per level."""
    solves = []

    def counted(solver):
        def wrapper(*args, **kwargs):
            solves.append(solver.__name__)
            return solver(*args, **kwargs)
        return wrapper

    for module in (repro.assist.study, repro.cell.montecarlo,
                   repro.cell.snm, repro.opt.constraints):
        for name in ("butterfly", "snm_samples"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(getattr(module, name)))
    session = Session.create(cache_path=CACHE_PATH, voltage_mode="paper")
    run_study(session, capacities=(32,))
    assert len(solves) <= 6, solves
