"""Performance microbenchmarks of the optimization machinery itself.

The paper reports its exhaustive search completes "in less than two
minutes" on a 2011-era Xeon server; these benchmarks time our
search and its reference loop with real repetition statistics (these are the
only benchmarks where pytest-benchmark's multi-round timing is the
point, rather than a harness around a one-shot experiment).
"""

import numpy as np

from repro.array import ArrayConfig, DesignPoint, SRAMArrayModel
from repro.opt import (
    DesignSpace,
    ExhaustiveOptimizer,
    make_policy,
    pareto_front,
)


def bench_single_evaluation(benchmark, paper_session):
    """One scalar design-point evaluation of the analytical model."""
    model = SRAMArrayModel(paper_session.chars["hvt"], ArrayConfig())
    design = DesignPoint(n_r=512, n_c=64, n_pre=25, n_wr=3,
                         v_ddc=0.550, v_ssc=-0.240, v_wl=0.550)
    metrics = benchmark(model.evaluate, 4096 * 8, design)
    assert metrics.edp > 0


def bench_grid_evaluation(benchmark, paper_session):
    """A full 50x20 fin grid in one broadcast call (1000 designs)."""
    model = SRAMArrayModel(paper_session.chars["hvt"], ArrayConfig())
    space = DesignSpace()
    n_pre, n_wr = np.meshgrid(space.n_pre_values, space.n_wr_values,
                              indexing="ij")
    design = DesignPoint(n_r=512, n_c=64, n_pre=n_pre, n_wr=n_wr,
                         v_ddc=0.550, v_ssc=-0.240, v_wl=0.550)
    metrics = benchmark(model.evaluate, 4096 * 8, design)
    assert metrics.edp.shape == n_pre.shape


def bench_full_optimization(benchmark, paper_session):
    """The production search for one 16KB configuration (the paper's
    Section-5 search: n_r x V_SSC x N_pre x N_wr; the row gate scores
    half of this cell's 100k-point space)."""
    model = paper_session.model("hvt")
    constraint = paper_session.constraint("hvt")
    # Warm the constraint memoization so the benchmark times the search.
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    optimizer = ExhaustiveOptimizer(model, DesignSpace(), constraint)
    optimizer.optimize(16384 * 8, policy)

    result = benchmark(optimizer.optimize, 16384 * 8, policy)
    assert result.metrics.edp > 0
    assert result.n_evaluated >= 50_000


def bench_pareto_sweep(benchmark, paper_session):
    """The production Pareto sweep of the same 16KB configuration: its
    dominance gate skips the rows whose every tile a scored design
    strictly dominates, and the front stays the reference
    landscape's."""
    model = paper_session.model("hvt")
    constraint = paper_session.constraint("hvt")
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    optimizer = ExhaustiveOptimizer(model, DesignSpace(), constraint)
    reference = optimizer.optimize_reference(16384 * 8, policy,
                                             keep_landscape=True)

    result = benchmark(optimizer.pareto, 16384 * 8, policy)
    assert list(result.front) == pareto_front(reference.landscape)
    assert result.n_tiles == len(reference.landscape)
    assert 0 < result.n_evaluated < reference.n_evaluated


def bench_full_optimization_loop_engine(benchmark, paper_session):
    """The same 16KB search through the reference slice loop — the
    machine factor of the search gate (``single.loop_seconds`` in
    ``BENCH_search.json``)."""
    model = paper_session.model("hvt")
    constraint = paper_session.constraint("hvt")
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    optimizer = ExhaustiveOptimizer(model, DesignSpace(), constraint)
    optimizer.optimize_reference(16384 * 8, policy)

    result = benchmark(optimizer.optimize_reference, 16384 * 8, policy)
    assert result.metrics.edp > 0
    assert result.n_evaluated >= 50_000
