"""Device-circuit-architecture co-optimization (the paper's framework).

Public API:

* :class:`DesignSpace` — the paper's search ranges.
* :class:`YieldLevels` / :func:`make_policy` — the M1/M2 rail policies.
* :class:`YieldConstraint` — min(HSNM, RSNM, WM) >= delta.
* :class:`ExhaustiveOptimizer` — the minimum-EDP search (a bound-gated
  row sweep, checked against the scalar
  :meth:`~ExhaustiveOptimizer.optimize_reference` loop) and the
  :meth:`~ExhaustiveOptimizer.pareto` front sweep.
* :func:`tile_lower_bounds` — admissible per-(n_r, V_SSC) bounds behind
  the search's row gate.
* :func:`pareto_front` — energy-delay trade-off analysis (extension).
"""

from .bounds import TileBounds, tile_lower_bounds
from .constraints import MonteCarloYieldConstraint, YieldConstraint, \
    YieldTargetConstraint
from .exhaustive import ExhaustiveOptimizer
from .methods import (
    CONSOLIDATION_THRESHOLD,
    VoltagePolicy,
    YieldLevels,
    make_policy,
    policy_m1,
    policy_m2,
    policy_m2_negative_bl,
)
from .pareto import (
    ParetoPoint,
    ParetoSearchResult,
    best_weighted,
    pareto_front,
)
from .results import LandscapePoint, OptimizationResult
from .space import DesignSpace

__all__ = [
    "CONSOLIDATION_THRESHOLD",
    "DesignSpace",
    "ExhaustiveOptimizer",
    "LandscapePoint",
    "MonteCarloYieldConstraint",
    "OptimizationResult",
    "ParetoPoint",
    "ParetoSearchResult",
    "TileBounds",
    "VoltagePolicy",
    "YieldConstraint",
    "YieldTargetConstraint",
    "YieldLevels",
    "best_weighted",
    "make_policy",
    "pareto_front",
    "policy_m1",
    "policy_m2",
    "policy_m2_negative_bl",
    "tile_lower_bounds",
]
