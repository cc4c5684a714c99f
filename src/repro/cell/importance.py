"""Rare-event estimation of margin failure tails (importance sampling).

The array-relevant failure regime sits at ``p_fail ~ 1e-7 .. 1e-9`` per
cell (a 99% array-yield target over 10^5-10^6 cells), where the
brute-force Monte Carlo of :mod:`repro.cell.montecarlo` is hopeless: an
empirical tail count needs ``~10/p`` margin solves per operating point.
This module turns that into a few thousand *weighted* solves with a
controlled confidence interval.  It has two samplers:

* **mean-shift importance sampling** (``sampler="shifted"``), the
  production sampler — find the dominant failure direction in the
  per-transistor Vt-shift space with a cheap batched search
  (finite-difference gradient, a ray scan, a boundary bisection, then
  coordinate-ascent refinement — every probe rides the lane-batched
  margin solvers), recentre part of the sampling mass on that
  most-probable failure point through a *defensive mixture*
  ``a*N(0,s^2) + (1-a)*N(shift, s^2)`` (which caps every likelihood
  ratio at ``1/a`` — a pure mean shift makes the self-normalizing
  denominator diverge), and estimate the tail with self-normalized
  likelihood-ratio weights.  An effective-sample-size (ESS) diagnostic
  reports how much of the weighted sample actually contributes.
* the **naive** empirical counter (``sampler="naive"``) — unweighted
  iid draws, kept as the reference the shifted sampler is measured
  against (the tests and ``benchmarks/bench_yield.py``).

Determinism
-----------

Samples are drawn in fixed *blocks* of :data:`BLOCK` rows; block ``i``
of a stream is generated by its own child generator derived from
``(seed, i)``.  The adaptive budget loop grows the sample set in
solver-sized chunks but evaluates its stopping rule only at block
boundaries, so for a fixed seed the returned estimate (value, CI and
``n_samples``) is bit-identical regardless of the chunk size or the
executor that ran the solves — only the telemetry (how many extra
samples were solved past the stopping boundary) may differ.

The module is solver-agnostic: anything callable as
``margins = solver(shift_matrix)`` works, with
:func:`cell_margin_solver` wrapping the production batched cell solvers
(:func:`repro.cell.montecarlo.batched_cell` + the lane-batched SNM /
write-margin extraction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .. import perf
from ..devices.variation import VariationModel
from .bias import CellBias
from .sram6t import TRANSISTOR_ROLES

#: Two-sided 95% normal quantile used for every confidence interval.
Z_95 = 1.959963984540054

#: Atomic sample-block size of the deterministic seed streams.  The
#: adaptive loop only ever stops at a block boundary, which is what
#: makes its result independent of how blocks were chunked into solver
#: calls.
BLOCK = 64

#: Recognized samplers: the unweighted reference and the production
#: mean-shift importance sampler.
SAMPLERS = ("naive", "shifted")

#: Per-transistor coordinates of a Vt-shift sample.
N_TRANSISTORS = len(TRANSISTOR_ROLES)

#: Mass the shifted sampler keeps on the *nominal* Gaussian (the
#: defensive component).  Every likelihood ratio is then bounded by
#: ``1 / DEFENSIVE_FRACTION``, which is what keeps the self-normalized
#: estimator's denominator concentrated; the rest of the mass samples
#: the failure region.
DEFENSIVE_FRACTION = 0.5


def _require_sampler(sampler):
    if sampler not in SAMPLERS:
        raise ValueError(
            "unknown sampler %r (expected one of %s)"
            % (sampler, "/".join(SAMPLERS))
        )


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

class MarginSolver:
    """A margin function over Vt-shift matrices, with an eval counter.

    Wraps ``fn(shift_matrix) -> margins``: input ``(n, T)`` per-
    transistor Vt shifts [V], output the ``(n,)`` per-sample margin
    [V].  ``n_evals`` counts solved rows — the currency every
    samples-to-CI benchmark is quoted in.
    """

    def __init__(self, fn):
        self._fn = fn
        self.n_evals = 0

    def __call__(self, shifts):
        shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
        self.n_evals += shifts.shape[0]
        perf.count("importance.solver_rows", shifts.shape[0])
        return np.asarray(self._fn(shifts), dtype=float)


def cell_margin_solver(cell, vdd, read_bias, hold_bias=None,
                       metrics=("hsnm", "rsnm"), snm_points=41,
                       wm_resolution=0.002):
    """The production min-margin solver at one operating point.

    Returns a :class:`MarginSolver` mapping a ``(n, 6)`` Vt shift
    matrix (columns in :data:`~repro.cell.sram6t.TRANSISTOR_ROLES`
    order) to the per-sample ``min`` over ``metrics`` — the same
    batched extraction :func:`repro.cell.montecarlo.run_cell_montecarlo`
    uses, so a naive draw through this solver is bit-identical to the
    brute-force engine's samples.
    """
    from .montecarlo import _margins_batched, batched_cell

    hold_bias = hold_bias or CellBias.hold(vdd)

    def solve(shifts):
        batched = batched_cell(cell, shifts)
        collected = _margins_batched(
            batched, shifts.shape[0], vdd, read_bias, hold_bias,
            metrics, wm_resolution, snm_points,
        )
        return np.min(np.vstack([collected[name] for name in metrics]),
                      axis=0)

    return MarginSolver(solve)


# ---------------------------------------------------------------------------
# Deterministic block streams
# ---------------------------------------------------------------------------

#: Domain tag keeping these streams disjoint from every other seeded
#: draw in the package (notably ``sample_shift_matrix``'s).
_STREAM_TAG = 0x7A11

def block_rng(seed, index):
    """The generator owning block ``index`` of the stream at ``seed``.

    Each block gets an independent child generator, so sample ``i`` of
    a stream is a pure function of ``(seed, i // BLOCK, i % BLOCK)`` —
    never of how many samples were requested at once.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative, got %r" % (seed,))
    return np.random.default_rng(
        np.random.SeedSequence((_STREAM_TAG, int(seed), int(index)))
    )


def draw_block(sampler, seed, index, n_transistors, sigma, block=BLOCK,
               shift=None):
    """Block ``index`` of a sampler's deterministic Vt-shift stream.

    * ``naive`` — iid ``N(0, sigma^2)`` per coordinate.
    * ``shifted`` — the defensive mixture: each row stays on the
      nominal Gaussian with probability :data:`DEFENSIVE_FRACTION` and
      recentres on ``shift`` otherwise (likelihood ratios are computed
      downstream from the mixture density).
    """
    _require_sampler(sampler)
    rng = block_rng(seed, index)
    if sampler == "naive":
        return rng.normal(0.0, sigma, (block, n_transistors))
    if shift is None:
        raise ValueError("shifted sampling needs a shift vector")
    shifted = rng.random(block) >= DEFENSIVE_FRACTION
    noise = rng.normal(0.0, sigma, (block, n_transistors))
    return noise + np.outer(shifted.astype(float),
                            np.asarray(shift, dtype=float))


def mixture_log_weights(shifts, shift, sigma,
                        defensive=DEFENSIVE_FRACTION):
    """Log likelihood ratios ``log p(z) / q(z)`` of the defensive
    mixture ``q = a*N(0, s^2 I) + (1-a)*N(shift, s^2 I)``.

    Computed from the sample coordinates alone (which mixture component
    generated a row never matters), and bounded above by ``-log a``:
    the bound is applied explicitly, because far from both components
    ``log_p - (log a + log_p)`` can round a few ulps above it.
    """
    shifts = np.asarray(shifts, dtype=float)
    shift = np.asarray(shift, dtype=float)
    inv = 1.0 / (2.0 * sigma ** 2)
    log_p = -np.sum(shifts ** 2, axis=1) * inv
    log_p_shift = -np.sum((shifts - shift) ** 2, axis=1) * inv
    stacked = np.stack([math.log(defensive) + log_p,
                        math.log1p(-defensive) + log_p_shift])
    peak = np.max(stacked, axis=0)
    log_q = peak + np.log(np.sum(np.exp(stacked - peak), axis=0))
    return np.minimum(log_p - log_q, -math.log(defensive))


# ---------------------------------------------------------------------------
# The mean-shift search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftSearch:
    """Outcome of the dominant-failure-direction search."""

    shift: np.ndarray        # the mean-shift vector [V] (zeros = none)
    direction: np.ndarray    # unit downhill direction in shift space
    n_evals: int             # solver rows spent on the search
    crossed: bool            # True when the floor crossing was bracketed
    boundary_margin: float   # solver margin at the returned shift

    @property
    def z_norm(self):
        """Shift magnitude in per-coordinate sigma units (set by the
        caller's ``sigma``; stored for diagnostics via summary())."""
        return float(np.linalg.norm(self.shift))


#: Mean-shift search constants: the finite-difference step [sigma], the
#: ray scan's reach [sigma] and point count, the boundary bisection
#: steps, the coordinate-ascent passes and the plateau restarts.
FD_STEP = 0.1
MAX_RADIUS = 9.0
SCAN_POINTS = 19
BISECT_ITERS = 12
REFINE_PASSES = 2
RESTARTS = 3


def find_failure_shift(solver, floor, sigma, *, direction=None):
    """Locate the dominant failure point ``margin(shift) <= floor``.

    Batched stages, all riding ``solver``:

    1. *gradient* — central finite differences along every coordinate in
       one batched call give the downhill unit ``direction`` (skipped
       when a ``direction`` hint is passed, e.g. from a neighbouring
       operating point);
    2. *ray scan + bisection* — the margin along the gradient ray AND
       every signed coordinate ray is scanned out to :data:`MAX_RADIUS`
       sigma in one batched call, and the crossing at the smallest
       radius is bisected to the failure boundary.  The coordinate rays
       break symmetry: a symmetric cell has a symmetric gradient, so
       pure gradient descent is confined to the symmetric manifold
       while the most probable failure points are asymmetric
       single-device Vt excursions.  If no ray crosses (real SNM
       surfaces flatten once a different metric becomes binding), the
       gradient is re-estimated at the deepest visited point and the
       scan *restarts* from there, up to :data:`RESTARTS` times — the
       resulting shift follows the crooked descent path instead of a
       straight line;
    3. *coordinate ascent* — per-coordinate refinement passes shrink the
       shift's norm while keeping it failing (each coordinate's
       candidate set solves in one batched call), which is what pulls
       the shift toward the *most probable* failure point and keeps the
       likelihood-ratio weights well conditioned.

    Returns a :class:`ShiftSearch` whose ``direction`` is the unit
    vector of the final shift; when no failure is found the deepest
    visited point is returned with ``crossed=False`` (the estimator
    then reports a tail it cannot see, with the ESS diagnostic exposing
    the miss).
    """
    start_evals = solver.n_evals
    zeros = np.zeros(N_TRANSISTORS)
    h = FD_STEP * sigma

    def outcome(shift, crossed, margin):
        shift = np.asarray(shift, dtype=float)
        norm = float(np.linalg.norm(shift))
        return ShiftSearch(
            shift=shift,
            direction=shift / norm if norm > 0.0 else shift,
            n_evals=solver.n_evals - start_evals,
            crossed=crossed, boundary_margin=float(margin),
        )

    def downhill(base):
        eye = np.eye(N_TRANSISTORS) * h
        probes = solver(np.vstack([base + eye, base - eye]))
        grad = (probes[:N_TRANSISTORS]
                - probes[N_TRANSISTORS:]) / (2.0 * h)
        norm = float(np.linalg.norm(grad))
        return None if norm == 0.0 else -grad / norm

    center = float(solver(zeros[None, :])[0])
    if center <= floor:
        # The origin already fails: the tail is not rare, no shift
        # needed (the weights degenerate to 1 and the estimator is the
        # plain empirical counter).
        return outcome(zeros, True, center)

    if direction is not None:
        direction = np.asarray(direction, dtype=float)
        norm = float(np.linalg.norm(direction))
        direction = direction / norm if norm > 0.0 else None

    radii = sigma * np.linspace(0.5, MAX_RADIUS, SCAN_POINTS)
    base, base_margin = zeros, center
    best, best_margin = zeros, center
    shift = None
    for attempt in range(RESTARTS + 1):
        if direction is None:
            direction = downhill(base)
        rays = [] if direction is None else [direction]
        if attempt == 0:
            # Signed coordinate rays: the symmetry breakers (and the
            # natural single-device failure modes).
            eye = np.eye(N_TRANSISTORS)
            rays.extend(eye)
            rays.extend(-eye)
        if not rays:
            # Flat margin surface: no informative direction.
            return outcome(best, False, best_margin)
        points = np.vstack([
            base[None, :] + radii[:, None] * ray[None, :]
            for ray in rays
        ])
        scan = solver(points).reshape(len(rays), SCAN_POINTS)
        fails = scan <= floor
        if np.any(fails):
            # The crossing at the smallest radius — closest to the
            # most probable failure point.
            per_ray = np.where(fails.any(axis=1),
                               fails.argmax(axis=1), SCAN_POINTS)
            ray_index = int(np.argmin(
                np.where(per_ray < SCAN_POINTS, radii[np.minimum(
                    per_ray, SCAN_POINTS - 1)], np.inf)))
            direction = np.asarray(rays[ray_index], dtype=float)
            first = int(per_ray[ray_index])
            lo = 0.0 if first == 0 else float(radii[first - 1])
            hi = float(radii[first])
            hi_margin = float(scan[ray_index, first])
            for _ in range(BISECT_ITERS):
                mid = 0.5 * (lo + hi)
                margin = float(
                    solver((base + mid * direction)[None, :])[0])
                if margin <= floor:
                    hi, hi_margin = mid, margin
                else:
                    lo = mid
            shift = base + hi * direction
            boundary = hi_margin
            break
        deepest = int(np.argmin(scan))
        deep_margin = float(scan.ravel()[deepest])
        if deep_margin < best_margin:
            best_margin = deep_margin
            best = points[deepest]
        if deep_margin >= base_margin - 1e-12:
            # No ray made progress: a restart would rescan the same
            # plateau.
            return outcome(best, False, best_margin)
        base, base_margin = points[deepest], deep_margin
        direction = None
    if shift is None:
        return outcome(best, False, best_margin)

    factors = np.array([0.0, 0.5, 0.75, 1.25])
    for _ in range(REFINE_PASSES):
        improved = False
        for j in range(N_TRANSISTORS):
            if shift[j] == 0.0:
                continue
            candidates = np.tile(shift, (factors.size, 1))
            candidates[:, j] = shift[j] * factors
            margins = solver(candidates)
            norms = np.linalg.norm(candidates, axis=1)
            ok = (margins <= floor) & (norms < np.linalg.norm(shift)
                                       * (1.0 - 1e-9))
            if np.any(ok):
                pick = int(np.flatnonzero(ok)[np.argmin(norms[ok])])
                shift = candidates[pick]
                boundary = float(margins[pick])
                improved = True
        if not improved:
            break
    return outcome(shift, True, boundary)


# ---------------------------------------------------------------------------
# Tail estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailEstimate:
    """A sampled tail probability with its confidence interval.

    ``p_fail`` estimates ``P(margin < floor)``; ``ci_half`` is the 95%
    half-width of the estimator's normal confidence interval (for the
    self-normalized importance sampler, the delta-method estimate).
    ``ess`` is the effective sample size ``(sum w)^2 / sum w^2`` — for
    unweighted samplers it equals ``n_samples``.  ``converged`` records
    whether the adaptive budget loop met its relative-CI target before
    hitting ``max_samples``.
    """

    p_fail: float
    ci_half: float
    n_samples: int
    ess: float
    sampler: str
    floor: float
    shift: tuple = ()
    n_solver_evals: int = 0
    n_search_evals: int = 0
    converged: bool = True
    source: str = "sampled"

    @property
    def rel_ci(self):
        """Relative CI half-width (inf when the estimate is zero)."""
        if self.p_fail <= 0.0:
            return math.inf
        return self.ci_half / self.p_fail

    @property
    def ci_low(self):
        return max(self.p_fail - self.ci_half, 0.0)

    @property
    def ci_high(self):
        return min(self.p_fail + self.ci_half, 1.0)

    def agrees_with(self, p_other):
        """Whether ``p_other`` lies inside this estimate's 95% CI."""
        return self.ci_low <= p_other <= self.ci_high

    def summary(self):
        """JSON-safe scalars (the service / bench payload)."""
        return {
            "p_fail": self.p_fail,
            "ci_half": self.ci_half,
            "rel_ci": None if not math.isfinite(self.rel_ci)
            else self.rel_ci,
            "n_samples": self.n_samples,
            "ess": self.ess,
            "sampler": self.sampler,
            "floor": self.floor,
            "shift": list(self.shift),
            "n_solver_evals": self.n_solver_evals,
            "n_search_evals": self.n_search_evals,
            "converged": self.converged,
            "source": self.source,
        }


def naive_samples_for_ci(p_fail, rel_ci, confidence_z=Z_95):
    """Brute-force sample count matching a relative CI half-width.

    The binomial normal-approximation requirement
    ``z * sqrt(p(1-p)/n) <= rel_ci * p`` solved for ``n`` — the
    denominator every variance-reduction factor in the benchmarks is
    quoted against.
    """
    if not 0.0 < p_fail < 1.0:
        raise ValueError("p_fail must be in (0, 1), got %r" % (p_fail,))
    if rel_ci <= 0.0:
        raise ValueError("rel_ci must be positive, got %r" % (rel_ci,))
    return int(math.ceil(confidence_z ** 2 * (1.0 - p_fail)
                         / (p_fail * rel_ci ** 2)))


# ---------------------------------------------------------------------------
# The sample buffer
# ---------------------------------------------------------------------------

class TailSampleBuffer:
    """Weighted margin samples at one operating point, grown in blocks.

    The buffer owns a sampler's deterministic stream: ``ensure(n)``
    extends the solved sample set to ``n`` (rounded up to whole blocks)
    and any estimate over the first ``k`` samples is a pure function of
    ``(seed, k)``.  Because the margins and log-weights are cached, any
    number of *floor* queries — :meth:`estimate` at a new floor, or the
    :meth:`floor_for` bisection inverting a tail budget into a margin
    floor — reuse the same buffer with no re-solve and no per-iteration
    allocation.
    """

    def __init__(self, solver, *, sampler="shifted", sigma_vt=None,
                 seed=0, block=BLOCK, search_floor=0.0, direction=None):
        _require_sampler(sampler)
        if block < 1:
            raise ValueError("block must be a count >= 1, got %r"
                             % (block,))
        self.solver = solver
        self.sampler = sampler
        self.sigma_vt = (VariationModel().sigma_vt if sigma_vt is None
                         else float(sigma_vt))
        self.seed = int(seed)
        self.block = int(block)
        #: Floor the mean-shift search aims at.
        self.search_floor = float(search_floor)
        self._direction_hint = direction
        self.search = None          # ShiftSearch once prepared
        self.n_search_evals = 0
        self._margins = np.empty(0)
        self._log_weights = np.empty(0)
        self._sorted = None         # (order, sorted margins, cum weights)

    # -- preparation -------------------------------------------------------

    @property
    def shift(self):
        return (self.search.shift if self.search is not None
                else np.zeros(N_TRANSISTORS))

    def prepare(self):
        """Run the once-only mean-shift search (shifted sampler only)."""
        if self.search is not None or self.sampler == "naive":
            return
        start = self.solver.n_evals
        self.search = find_failure_shift(
            self.solver, self.search_floor, self.sigma_vt,
            direction=self._direction_hint,
        )
        self.n_search_evals = self.solver.n_evals - start

    # -- growth ------------------------------------------------------------

    @property
    def n_samples(self):
        return int(self._margins.size)

    def _blocks(self):
        return self.n_samples // self.block

    def ensure(self, n_samples, chunk=None):
        """Extend the buffer to at least ``n_samples`` solved samples.

        ``chunk`` bounds how many samples ride one solver call (rounded
        up to whole blocks); it changes solver batching only — the
        samples themselves come from per-block generators and are
        identical for every chunking.
        """
        self.prepare()
        want = -(-max(int(n_samples), 0) // self.block)   # ceil blocks
        chunk_blocks = max(1, -(-int(chunk or 4 * self.block)
                                // self.block))
        while self._blocks() < want:
            first = self._blocks()
            count = min(chunk_blocks, want - first)
            blocks = [
                draw_block(
                    self.sampler, self.seed, first + i, N_TRANSISTORS,
                    self.sigma_vt, self.block, shift=self.shift,
                )
                for i in range(count)
            ]
            shifts = np.vstack(blocks)
            margins = self.solver(shifts)
            self._margins = np.concatenate([self._margins, margins])
            if self.sampler == "shifted":
                log_w = mixture_log_weights(shifts, self.shift,
                                            self.sigma_vt)
            else:
                log_w = np.zeros(shifts.shape[0])
            self._log_weights = np.concatenate([self._log_weights,
                                                log_w])
            self._sorted = None

    # -- estimation --------------------------------------------------------

    def _weights(self, n):
        """Normalized weights of the first ``n`` samples."""
        log_w = self._log_weights[:n]
        w = np.exp(log_w - np.max(log_w))
        return w / np.sum(w)

    def estimate(self, floor, n=None):
        """:class:`TailEstimate` of ``P(margin < floor)`` over the
        first ``n`` solved samples (default: all of them)."""
        n = self.n_samples if n is None else min(int(n), self.n_samples)
        if n < 2 * self.block:
            raise ValueError(
                "estimate needs at least two blocks (%d samples); "
                "ensure() more first" % (2 * self.block,)
            )
        n -= n % self.block
        margins = self._margins[:n]
        fails = margins < floor
        if self.sampler == "shifted":
            w = self._weights(n)
            p = float(np.sum(w[fails]))
            # Kish ESS, in [1, n]; equal weights can round a few ulps
            # above n.
            ess = min(1.0 / float(np.sum(w ** 2)), float(n))
            if np.any(fails):
                # Delta-method variance of the self-normalized ratio.
                var = float(np.sum((w * (fails.astype(float) - p)) ** 2))
                ci = Z_95 * math.sqrt(var)
            else:
                p, ci = 0.0, 3.0 / max(ess, 1.0)
        else:
            p = float(np.mean(fails))
            ess = float(n)
            ci = (Z_95 * math.sqrt(p * (1.0 - p) / n) if p > 0.0
                  else 3.0 / n)
        return TailEstimate(
            p_fail=p, ci_half=ci, n_samples=n, ess=ess,
            sampler=self.sampler, floor=float(floor),
            shift=tuple(float(v) for v in self.shift),
            n_solver_evals=self.solver.n_evals,
            n_search_evals=self.n_search_evals,
        )

    def estimate_to_ci(self, floor, ci_target=0.1, max_samples=4096,
                       chunk=None):
        """Grow the buffer until the relative 95% CI half-width at
        ``floor`` is at most ``ci_target`` (or ``max_samples`` solved).

        The stopping rule is evaluated at every block boundary in
        order, so the returned estimate — including its ``n_samples``
        and ``converged`` flag — is the same for every ``chunk`` size
        and executor; chunking only batches solver calls (a larger
        chunk may solve samples past the stopping boundary, which shows
        up in the eval telemetry but never in the estimate).
        """
        block = self.block
        hi_b = max(-(-int(max_samples) // block), 2)
        chunk_blocks = max(1, -(-int(chunk or 4 * block) // block))
        b = 2
        while True:
            if self._blocks() < b:
                grow = min(max(b, self._blocks() + chunk_blocks), hi_b)
                self.ensure(grow * block, chunk=chunk)
            est = self.estimate(floor, b * block)
            if est.rel_ci <= ci_target:
                return est
            if b >= hi_b:
                return replace(est, converged=False)
            b += 1

    # -- floor queries (the margin-floor solve) ----------------------------

    def _consolidated(self):
        if self.n_samples == 0:
            raise ValueError("the buffer is empty; ensure() samples "
                             "before querying floors")
        if self._sorted is None or self._sorted[0] != self.n_samples:
            order = np.argsort(self._margins, kind="stable")
            weights = self._weights(self.n_samples)[order]
            self._sorted = (self.n_samples, self._margins[order],
                            np.cumsum(weights))
        _, margins, cum = self._sorted
        return margins, cum

    def tail_mass(self, floor):
        """Self-normalized ``P(margin < floor)`` over the whole buffer
        (a cached searchsorted — no re-solve, no allocation)."""
        margins, cum = self._consolidated()
        k = int(np.searchsorted(margins, floor, side="left"))
        return 0.0 if k == 0 else float(cum[k - 1])

    def floor_for(self, p_target, iterations=60):
        """The margin floor whose tail mass equals ``p_target``.

        Bisection on the monotone :meth:`tail_mass` over the sampled
        margin support; every iteration reuses the consolidated sample
        buffer — the solver is never called again.  This is the inverse
        the yield constraint's margin-floor solve needs: a per-cell
        failure budget in, the margin floor that spends it out.  A
        ``p_target`` below the smallest resolvable tail mass clamps to
        the bottom of the sampled support (a conservative, too-low
        floor — check :meth:`coverage` when it matters).
        """
        if not 0.0 < p_target < 1.0:
            raise ValueError("p_target must be in (0, 1), got %r"
                             % (p_target,))
        margins, _ = self._consolidated()
        lo = float(margins[0]) - self.sigma_vt
        hi = float(margins[-1]) + self.sigma_vt
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            if self.tail_mass(mid) < p_target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def coverage(self, floor):
        """Raw count of solved samples strictly below ``floor``.  A
        deep-tail query with zero coverage means the stream never
        visited that region (the shift missed); callers should treat
        the corresponding estimate as a bound, not a value."""
        return int(np.sum(self._margins < floor))


# ---------------------------------------------------------------------------
# One-call front door
# ---------------------------------------------------------------------------

def estimate_tail(solver, floor, *, sampler="shifted", sigma_vt=None,
                  ci_target=0.1, max_samples=4096, seed=0, block=BLOCK,
                  chunk=None):
    """Estimate ``P(margin < floor)`` with an adaptive sample budget.

    Builds a :class:`TailSampleBuffer` for ``sampler`` whose mean-shift
    search aims at ``floor`` and runs its
    :meth:`~TailSampleBuffer.estimate_to_ci` loop.
    """
    buffer = TailSampleBuffer(
        solver, sampler=sampler, sigma_vt=sigma_vt, seed=seed,
        block=block, search_floor=floor,
    )
    with perf.timed("importance.estimate.%s" % sampler):
        estimate = buffer.estimate_to_ci(
            floor, ci_target=ci_target, max_samples=max_samples,
            chunk=chunk,
        )
    perf.count("importance.estimates")
    return estimate
