"""CI gate: fail when the production search regresses against the
committed ``BENCH_search.json`` baseline.

Usage::

    PYTHONPATH=src python benchmarks/check_search_regression.py

The gate re-times the baseline's tracked configuration (one 16KB/HVT/M2
search) on the current machine, then normalizes the measured production
time by the reference's machine factor — the ratio of the
:meth:`~repro.opt.ExhaustiveOptimizer.optimize_reference` time measured
*now* to the reference time recorded in the baseline
(``single.loop_seconds``).  The reference loop's code does not change
with the production search, so that factor cancels out hardware
differences between the committed baseline and the CI runner, leaving
only genuine code regressions.

Before timing, the production answer must equal the reference's on the
gate cell, and the production Pareto front (whose dominance gate skips
rows) must equal the front of the reference's full landscape over the
same number of tiles — a wrong answer is a correctness bug, not a perf
regression.  The Pareto sweep's time and skipped rows are printed with
no threshold.  The yield-target constraint rides the same machine
factor as an extra leg, after re-checking that a non-correcting code
reproduces the fixed-delta argmin exactly.  Legs whose baseline fields
are missing skip gracefully.

Exit codes: 0 = pass (or graceful skip), 1 = regression beyond the
threshold or a parity failure.
"""

from __future__ import annotations

import json
import os
import sys
import time

#: Fail the gate when the normalized production time regresses beyond
#: this.
THRESHOLD = 0.25

#: Repetitions per timing; best-of keeps scheduler noise out.
REPEATS = 5

_HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(_HERE, "..", "BENCH_search.json")
CACHE_PATH = os.path.join(_HERE, "..", ".repro_cache.json")


def _skip(message):
    print("search-regression gate: SKIP — %s" % message)
    return 0


def _best_of(*searches):
    """Best-of-REPEATS wall time of each zero-argument search, after a
    warm-up.  The searches run interleaved, so a shift in the host's
    speed during the measurement reaches all of them alike."""
    best = [float("inf")] * len(searches)
    for search in searches:
        search()
    for _ in range(REPEATS):
        for index, search in enumerate(searches):
            start = time.perf_counter()
            search()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def _yield_search(session, policy):
    """The gate cell's search under the ECC-relaxed yield-target
    constraint, plus whether a non-correcting code left the
    fixed-delta argmin intact (a relaxation with ``code="none"`` that
    moves it is a correctness bug)."""
    from repro.opt import DesignSpace, ExhaustiveOptimizer
    from repro.opt.constraints import YieldTargetConstraint

    base_constraint = session.constraint("hvt")

    def search(constraint):
        optimizer = ExhaustiveOptimizer(session.model("hvt"),
                                        DesignSpace(), constraint)
        return lambda: optimizer.optimize(16384 * 8, policy)

    def yield_constraint(code):
        constraint = YieldTargetConstraint(
            library=session.library, flavor="hvt",
            delta=session.delta, y_target=0.9, code=code,
            capacity_bits=16384 * 8,
            word_bits=session.config.word_bits,
            trust_fixed_rails=base_constraint.trust_fixed_rails,
            base=base_constraint,
        )
        return constraint

    fixed_ref = search(base_constraint)()
    none_ref = search(yield_constraint("none"))()
    intact = (none_ref.design == fixed_ref.design
              and none_ref.metrics.edp == fixed_ref.metrics.edp)
    if not intact:
        print("  yield-constraint: code='none' DIVERGED from the "
              "fixed-delta search (design %s vs %s)"
              % (none_ref.design, fixed_ref.design))
    return search(yield_constraint("secded")), intact


def _leg(label, baseline_seconds, measured_seconds, machine_factor):
    """Print one normalized leg; returns True when it regressed."""
    expected = baseline_seconds * machine_factor
    regression = measured_seconds / expected - 1.0
    print("  %s: baseline %.2f ms, measured %.2f ms, expected %.2f ms, "
          "regression %+.1f%% (threshold +%.0f%%)"
          % (label, baseline_seconds * 1e3, measured_seconds * 1e3,
             expected * 1e3, regression * 100.0, THRESHOLD * 100.0))
    return regression > THRESHOLD


def main():
    try:
        with open(BASELINE_PATH) as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as exc:
        return _skip("no readable baseline at %s (%s)"
                     % (BASELINE_PATH, exc))
    single = baseline.get("single", {})
    base_production = single.get("production_seconds")
    base_reference = single.get("loop_seconds")
    if not base_production or not base_reference:
        return _skip("baseline lacks single.production_seconds or "
                     "single.loop_seconds")

    from repro.analysis.experiments import Session
    from repro.opt import (
        DesignSpace,
        ExhaustiveOptimizer,
        make_policy,
        pareto_front,
    )

    session = Session.create(cache_path=CACHE_PATH, voltage_mode="paper")
    optimizer = ExhaustiveOptimizer(
        session.model("hvt"), DesignSpace(), session.constraint("hvt"))
    policy = make_policy("M2", session.yield_levels("hvt"))

    failed = False
    reference = optimizer.optimize_reference(16384 * 8, policy,
                                             keep_landscape=True)
    production = optimizer.optimize(16384 * 8, policy)
    if (production.design != reference.design
            or production.metrics.edp != reference.metrics.edp):
        print("  parity: production DIVERGED from the reference "
              "(design %s vs %s)" % (production.design, reference.design))
        failed = True
    pareto = optimizer.pareto(16384 * 8, policy)
    if (list(pareto.front) != pareto_front(reference.landscape)
            or pareto.n_tiles != len(reference.landscape)):
        print("  pareto parity: production front DIVERGED from the "
              "reference landscape's front (%d vs %d points, %d vs %d "
              "tiles)" % (len(pareto.front),
                          len(pareto_front(reference.landscape)),
                          pareto.n_tiles, len(reference.landscape)))
        failed = True
    rows = len(optimizer.space.row_counts(16384 * 8))
    rows_scored = pareto.n_evaluated * rows // reference.n_evaluated

    searches = [lambda: optimizer.optimize_reference(16384 * 8, policy),
                lambda: optimizer.optimize(16384 * 8, policy),
                lambda: optimizer.pareto(16384 * 8, policy)]
    base_yield = single.get("yield_constraint_seconds")
    if base_yield:
        # Its warm-up inside _best_of pays the Monte Carlo statistics.
        yield_search, intact = _yield_search(session, policy)
        searches.append(yield_search)
        failed = failed or not intact
    measured = _best_of(*searches)
    # Hardware normalization: how much faster/slower this machine runs
    # the unchanged reference loop than the baseline machine did.
    machine_factor = measured[0] / base_reference

    print("search-regression gate (%s)" % single.get("config", "?"))
    print("  reference: baseline %.2f ms, measured %.2f ms -> machine "
          "factor %.2fx" % (base_reference * 1e3, measured[0] * 1e3,
                            machine_factor))
    failed = _leg("production", base_production, measured[1],
                  machine_factor) or failed
    print("  pareto (no threshold): measured %.2f ms, %d of %d rows "
          "skipped" % (measured[2] * 1e3, rows - rows_scored, rows))
    if base_yield:
        failed = _leg("yield-constraint", base_yield, measured[3],
                      machine_factor) or failed
    else:
        print("  yield-constraint: baseline predates the yield leg — "
              "leg skipped")

    if failed:
        print("search-regression gate: FAIL")
        return 1
    print("search-regression gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
