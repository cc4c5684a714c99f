"""Exhaustive minimum-EDP search (paper Section 5).

With V_DDC / V_WL pre-set by the voltage policy, the free variables are
``(n_r, V_SSC, N_pre, N_wr)`` — small enough for exhaustive search (the
paper reports under two minutes on a 2011-era server; the sweep here
takes milliseconds per configuration).

One production search, :meth:`ExhaustiveOptimizer.optimize`, sweeps the
space row by row: each row count is one :meth:`SRAMArrayModel.evaluate`
call over the feasible V_SSC axis ``(S, 1, 1)`` and the thin fin axes
``(P, 1) x (1, W)``, reduced per V_SSC slice with array ops.  A row is
at most ``25 x 1000`` elements, so every temporary stays cache-sized,
and the organization-independent Table-2 precursors are computed once
per search and shared across its rows.

An EDP search without a landscape and a Pareto search are
*bound-gated*: one :func:`~repro.opt.bounds.tile_lower_bounds` call
bounds the delay, energy and EDP of every ``(n_r, V_SSC)`` tile, the
row holding the smallest EDP bound is evaluated first, and the other
rows follow in row order, each skipped when its objective's test rules
it out:

* EDP: the row's smallest EDP bound strictly exceeds the incumbent.  A
  skipped row's designs all score above it, so the optimum and every
  tie with it lie in the evaluated rows, where the final scan replays
  the reference's r-major/s-minor strict-``<`` order.
* Pareto: a landscape point of an evaluated row strictly dominates the
  bound point ``(d_lb, e_lb)`` of every tile of the row.  Each tile's
  landscape point is then strictly dominated too, so it is neither a
  front point nor an exact duplicate of one; removing such points
  changes neither the front nor which duplicate wins its tie, and
  :func:`~repro.opt.pareto.pareto_front` of the evaluated rows, in
  r-major/s-minor order, equals the full landscape's front.

A landscape search (``optimize(keep_landscape=True)``) evaluates every
row.

:meth:`ExhaustiveOptimizer.optimize_reference` keeps the original
per-``(n_r, V_SSC)`` slice loop as the executable spec: the production
search returns bit-identical designs, metrics, margins, and landscapes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .. import perf
from ..array.model import DesignPoint
from ..errors import DesignSpaceError
from .bounds import tile_lower_bounds
from .pareto import ParetoSearchResult, pareto_front
from .results import LandscapePoint, OptimizationResult


class _Row(NamedTuple):
    """One scored row's slice bests, one entry per feasible V_SSC."""

    edp: np.ndarray
    d_array: np.ndarray
    e_total: np.ndarray
    n_pre: np.ndarray
    n_wr: np.ndarray


def _edp_ruled_out(bounds, r, scored):
    """Row ``r``'s smallest EDP bound strictly exceeds the incumbent,
    the smallest EDP scored so far.  Strict: a row whose bound equals
    the incumbent could tie, and ties resolve by visit order among the
    scored rows."""
    return bounds.edp[r].min() > min(row.edp.min() for row in scored)


def _front_ruled_out(bounds, r, scored):
    """Every tile of row ``r`` has its bound point ``(d_lb, e_lb)``
    strictly dominated by a scored landscape point: no worse in delay
    and energy, and better in at least one."""
    d = np.concatenate([row.d_array for row in scored])
    e = np.concatenate([row.e_total for row in scored])
    d_lb = bounds.d_array[r][:, None]
    e_lb = bounds.e_total[r][:, None]
    dominated = (d <= d_lb) & (e <= e_lb) & ((d < d_lb) | (e < e_lb))
    return bool(dominated.any(axis=1).all())


#: The gated objectives' skip tests, ``test(bounds, r, scored_rows)``.
_SKIP_TESTS = {"edp": _edp_ruled_out, "pareto": _front_ruled_out}


class ExhaustiveOptimizer:
    """Minimum-EDP exhaustive search over a :class:`DesignSpace`."""

    def __init__(self, model, space, constraint):
        self.model = model
        self.space = space
        self.constraint = constraint

    def optimize(self, capacity_bits, policy, keep_landscape=False):
        """Search one capacity under one voltage policy.

        Returns an :class:`OptimizationResult`; raises
        :class:`DesignSpaceError` when no candidate satisfies the yield
        constraint.  ``n_evaluated`` counts the design points of the
        rows actually evaluated (all of them when ``keep_landscape``).
        """
        with perf.timed("optimizer.search"):
            best, landscape, n_evaluated, _ = self._sweep(
                capacity_bits, policy,
                "landscape" if keep_landscape else "edp",
            )
        perf.count("optimizer.evaluations", n_evaluated)
        return self._finalize(capacity_bits, policy, best, landscape,
                              n_evaluated)

    def optimize_many(self, capacity_bits, policies, keep_landscape=False):
        """:meth:`optimize` for each policy, in input order."""
        return [self.optimize(capacity_bits, policy, keep_landscape)
                for policy in policies]

    def optimize_reference(self, capacity_bits, policy,
                           keep_landscape=False):
        """The scalar slice loop: one model call per ``(n_r, V_SSC)``.

        The executable spec :meth:`optimize` and :meth:`pareto` are
        checked against; it always evaluates the whole space."""
        best, landscape, n_evaluated = self._search_loop(
            capacity_bits, policy, keep_landscape
        )
        return self._finalize(capacity_bits, policy, best, landscape,
                              n_evaluated)

    def pareto(self, capacity_bits, policy):
        """Energy-delay Pareto front of one capacity under one policy:
        :func:`~repro.opt.pareto.pareto_front` of the scored rows'
        landscape, element-wise equal to the full landscape's front.

        Returns a :class:`ParetoSearchResult`; raises
        :class:`DesignSpaceError` when no candidate satisfies the yield
        constraint.
        """
        with perf.timed("optimizer.pareto"):
            best, landscape, n_evaluated, n_tiles = self._sweep(
                capacity_bits, policy, "pareto"
            )
        perf.count("optimizer.evaluations", n_evaluated)
        if best is None:
            raise self._infeasible(capacity_bits, policy)
        return ParetoSearchResult(
            capacity_bits=capacity_bits,
            flavor=self.constraint.flavor,
            method=policy.method,
            front=tuple(pareto_front(landscape)),
            n_evaluated=n_evaluated,
            n_tiles=n_tiles,
        )

    @staticmethod
    def _infeasible(capacity_bits, policy):
        return DesignSpaceError(
            "no feasible design for %d bits under policy %s "
            "(yield constraint unsatisfiable)"
            % (capacity_bits, policy.method)
        )

    def _finalize(self, capacity_bits, policy, best, landscape,
                  n_evaluated):
        """Re-evaluate the winner at scalar rank and wrap the result."""
        if best is None:
            raise self._infeasible(capacity_bits, policy)
        final_design = DesignPoint(
            n_r=best.n_r, n_c=capacity_bits // best.n_r,
            n_pre=best.n_pre, n_wr=best.n_wr,
            v_ddc=policy.v_ddc, v_ssc=best.v_ssc, v_wl=policy.v_wl,
            v_bl=policy.v_bl,
        )
        final_metrics = self.model.evaluate(capacity_bits, final_design)
        margins = self.constraint.margins(
            final_design.v_ddc, final_design.v_ssc, final_design.v_wl,
            final_design.v_bl,
        )
        return OptimizationResult(
            capacity_bits=capacity_bits,
            flavor=self.constraint.flavor,
            method=policy.method,
            design=final_design,
            metrics=final_metrics,
            margins=margins,
            n_evaluated=n_evaluated,
            landscape=landscape,
        )

    def _feasible_v_ssc(self, policy):
        """The policy's V_SSC candidates that clear the yield constraint,
        in candidate order (margins are organization-independent, so
        this is computed once per search, not once per slice)."""
        candidates = np.asarray(policy.v_ssc_candidates(self.space),
                                dtype=float)
        grid_check = getattr(self.constraint, "satisfied_grid", None)
        if grid_check is not None:
            mask = np.asarray(grid_check(
                policy.v_ddc, candidates, policy.v_wl, policy.v_bl
            ), dtype=bool)
        else:
            mask = np.array([
                bool(self.constraint.satisfied(
                    policy.v_ddc, float(v), policy.v_wl, policy.v_bl
                ))
                for v in candidates
            ], dtype=bool)
        return candidates[mask]

    # -- the production row sweep ------------------------------------------

    def _sweep(self, capacity_bits, policy, objective):
        """``(best, landscape, n_evaluated, n_tiles)`` of the row sweep;
        ``best`` is None when no V_SSC candidate is feasible, and
        ``n_tiles`` counts every ``(n_r, V_SSC)`` tile, scored or not.

        ``objective`` picks the rows: ``"landscape"`` scores every row
        and returns the whole landscape; ``"edp"`` and ``"pareto"``
        skip the rows their test in :data:`_SKIP_TESTS` rules out, and
        ``"pareto"`` returns the scored rows' landscape.
        """
        feasible = self._feasible_v_ssc(policy)
        if feasible.size == 0:
            return None, [], 0, 0
        rows = self.space.row_counts(capacity_bits)
        n_pre = np.asarray(self.space.n_pre_values)
        n_wr = np.asarray(self.space.n_wr_values)
        grid_shape = (n_pre.size, n_wr.size)
        slice_shape = (feasible.size,) + grid_shape
        v_ssc = feasible.tolist()
        # Row-independent precursors, filled by the first row's call:
        # this dict belongs to this sweep's rails, V_SSC and fin axes.
        shared = {}

        def evaluate_row(n_r):
            """One model call, reduced to the row's slice bests."""
            design = DesignPoint(
                n_r=n_r, n_c=capacity_bits // n_r,
                n_pre=n_pre.reshape(-1, 1), n_wr=n_wr.reshape(1, -1),
                v_ddc=policy.v_ddc, v_ssc=feasible.reshape(-1, 1, 1),
                v_wl=policy.v_wl, v_bl=policy.v_bl,
            )
            metrics = self.model.evaluate(capacity_bits, design,
                                          shared=shared)
            args = np.ascontiguousarray(
                np.broadcast_to(metrics.edp, slice_shape)
            ).reshape(feasible.size, -1).argmin(axis=1)
            i, j = np.unravel_index(args, grid_shape)
            edp, d_array, e_total = (
                np.broadcast_to(value, slice_shape)[
                    np.arange(feasible.size), i, j]
                for value in (metrics.edp, metrics.d_array,
                              metrics.e_total)
            )
            return _Row(edp, d_array, e_total, n_pre[i], n_wr[j])

        def points(r):
            """Row ``r``'s landscape points, in V_SSC order."""
            row = evaluated[r]
            return [
                LandscapePoint(n_r=rows[r], v_ssc=v, n_pre=pre, n_wr=wr,
                               edp=edp, d_array=d, e_total=e)
                for v, pre, wr, edp, d, e in zip(v_ssc, *(
                    value.tolist() for value in (
                        row.n_pre, row.n_wr, row.edp, row.d_array,
                        row.e_total)))
            ]

        evaluated = {}
        if objective == "landscape":
            for r, n_r in enumerate(rows):
                evaluated[r] = evaluate_row(n_r)
        else:
            bounds = tile_lower_bounds(
                self.model, self.space, capacity_bits, policy, feasible
            )
            skip = _SKIP_TESTS[objective]
            # The row holding the smallest EDP bound seeds the scored
            # set; the others follow in row order.
            first = int(np.argmin(bounds.edp.min(axis=1)))
            for r in [first] + [r for r in range(len(rows)) if r != first]:
                if evaluated and skip(bounds, r, evaluated.values()):
                    continue
                evaluated[r] = evaluate_row(rows[r])
            perf.count("optimizer.rows_skipped", len(rows) - len(evaluated))
        order = sorted(evaluated)
        # np.argmin returns the first minimum in r-major/s-minor order:
        # the reference's strict-< improvement scan.
        k = int(np.concatenate([evaluated[r].edp for r in order]).argmin())
        best = points(order[k // feasible.size])[k % feasible.size]
        landscape = []
        if objective != "edp":
            landscape = [p for r in order for p in points(r)]
        n_evaluated = len(order) * feasible.size * n_pre.size * n_wr.size
        return best, landscape, n_evaluated, len(rows) * feasible.size

    # -- the reference -----------------------------------------------------

    def _search_loop(self, capacity_bits, policy, keep_landscape):
        """The original per-(n_r, V_SSC) slice loop."""
        n_pre_grid, n_wr_grid = np.meshgrid(
            self.space.n_pre_values, self.space.n_wr_values, indexing="ij"
        )
        best = None
        landscape = []
        n_evaluated = 0
        for n_r in self.space.row_counts(capacity_bits):
            n_c = capacity_bits // n_r
            for v_ssc in policy.v_ssc_candidates(self.space):
                if not self.constraint.satisfied(
                    policy.v_ddc, v_ssc, policy.v_wl, policy.v_bl
                ):
                    continue
                design = DesignPoint(
                    n_r=n_r, n_c=n_c,
                    n_pre=n_pre_grid, n_wr=n_wr_grid,
                    v_ddc=policy.v_ddc, v_ssc=float(v_ssc),
                    v_wl=policy.v_wl, v_bl=policy.v_bl,
                )
                metrics = self.model.evaluate(capacity_bits, design)
                n_evaluated += n_pre_grid.size
                flat = int(np.argmin(metrics.edp))
                i, j = np.unravel_index(flat, n_pre_grid.shape)
                slice_best = LandscapePoint(
                    n_r=n_r, v_ssc=float(v_ssc),
                    n_pre=int(n_pre_grid[i, j]),
                    n_wr=int(n_wr_grid[i, j]),
                    edp=float(metrics.edp[i, j]),
                    d_array=float(metrics.d_array[i, j]),
                    e_total=float(metrics.e_total[i, j]),
                )
                if keep_landscape:
                    landscape.append(slice_best)
                if best is None or slice_best.edp < best.edp:
                    best = slice_best
        return best, landscape, n_evaluated
