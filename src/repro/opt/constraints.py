"""Yield constraints on the optimization (paper Section 4).

The accurate formulation is ``min((mu - k sigma)_HSNM, (mu - k
sigma)_RSNM, (mu - k sigma)_WM) >= 0``; the paper simplifies it to
``min(HSNM, RSNM, WM) >= delta`` with ``delta = 0.35 * Vdd``.  Both
modes are provided; the fixed-delta mode is the default used everywhere
(it is what the paper optimizes with).

Because RSNM depends on (V_DDC, V_SSC) — the negative-Gnd assist mildly
changes it — the constraint precomputes RSNM over the candidate V_SSC
values once per policy, in one lane-batched solve, instead of running
butterflies inside the search loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cell.bias import CellBias
from ..cell.montecarlo import MarginSampleMemo, MetricSamples
from ..cell.snm import butterfly, hold_snm, snm_samples
from ..cell.sram6t import SRAM6TCell
from ..cell.write import flip_wordline_voltage

#: The values of the ``sampler`` setting of every ECC-yield surface
#: (:class:`YieldTargetConstraint`, ``run_study``, ``repro yield``,
#: ``POST /v1/yield``): how the margin-floor relaxation is measured.
YIELD_SAMPLERS = ("gaussian", "shifted")


def check_yield_sampler(sampler):
    """Raise ``ValueError`` unless ``sampler`` is a
    :data:`YIELD_SAMPLERS` value."""
    if sampler not in YIELD_SAMPLERS:
        raise ValueError("unknown sampler %r (expected %s)"
                         % (sampler, " or ".join(YIELD_SAMPLERS)))


@dataclass
class YieldConstraint:
    """Fixed-delta yield constraint for one flavor/policy.

    ``trust_fixed_rails`` supports the "paper voltages" reproduction
    mode: V_DDC / V_WL are pinned to the levels the paper reports, whose
    yield the paper's own SPICE analysis established, so the constraint
    only screens the quantity that still varies during the search — the
    read margin across the V_SSC sweep (plus the hold margin).
    """

    library: object
    flavor: str
    delta: float
    trust_fixed_rails: bool = False
    #: Optional callable v_bl -> flip WL voltage (wired from the
    #: characterization's negative-BL LUT); used by the negative-BL
    #: write-assist policy.  Without it, v_bl != 0 falls back to a
    #: fresh (slow) flip-voltage search.
    flip_lookup: object = None
    _cell: object = field(default=None, repr=False)
    _hsnm: float = field(default=None, repr=False)
    _v_flip: float = field(default=None, repr=False)
    _rsnm_cache: dict = field(default_factory=dict, repr=False)
    #: (n_samples, seed) -> MarginSampleMemo of this flavor's cell.
    _sample_memos: dict = field(default_factory=dict, repr=False)

    @property
    def cell(self):
        if self._cell is None:
            self._cell = SRAM6TCell.from_library(self.library, self.flavor)
        return self._cell

    def margin_samples(self, n_samples, seed):
        """The Monte Carlo HSNM/RSNM sample memo of one seeded draw.

        One :class:`~repro.cell.montecarlo.MarginSampleMemo` per
        ``(n_samples, seed)``, built on first request: the yield
        constraints that share this constraint as their ``base`` (every
        study cell of a session, for this flavor) read one draw and
        solve each rail pair once between them.
        """
        key = (n_samples, seed)
        memo = self._sample_memos.get(key)
        if memo is None:
            memo = self._sample_memos.setdefault(key, MarginSampleMemo(
                self.cell, self.library.vdd, n_samples, seed))
        return memo

    def hsnm(self):
        """Hold SNM at the nominal supply (independent of assists)."""
        if self._hsnm is None:
            self._hsnm = hold_snm(self.cell, self.library.vdd)
        return self._hsnm

    def rsnm(self, v_ddc, v_ssc):
        """Read SNM under the given rail assists (memoized)."""
        key = (round(v_ddc, 4), round(v_ssc, 4))
        if key not in self._rsnm_cache:
            bias = CellBias.read(vdd=self.library.vdd, v_ddc=v_ddc,
                                 v_ssc=v_ssc)
            self._rsnm_cache[key] = butterfly(
                self.cell, bias, access_on=True
            ).snm
        return self._rsnm_cache[key]

    def wm(self, v_wl, v_bl=0.0):
        """Write margin at the applied WL (and optional negative-BL)
        level: ``V_WL - V_WL,flip(v_bl)``."""
        if v_bl < 0.0:
            if self.flip_lookup is not None:
                return v_wl - self.flip_lookup(v_bl)
            return v_wl - flip_wordline_voltage(
                self.cell, vdd=self.library.vdd, v_bl_low=v_bl
            )
        if self._v_flip is None:
            self._v_flip = flip_wordline_voltage(
                self.cell, vdd=self.library.vdd
            )
        return v_wl - self._v_flip

    def margins(self, v_ddc, v_ssc, v_wl, v_bl=0.0):
        """(HSNM, RSNM, WM) at one operating point."""
        return self.hsnm(), self.rsnm(v_ddc, v_ssc), self.wm(v_wl, v_bl)

    def satisfied(self, v_ddc, v_ssc, v_wl, v_bl=0.0):
        """The paper's constraint: min(HSNM, RSNM, WM) >= delta."""
        hsnm, rsnm, wm = self.margins(v_ddc, v_ssc, v_wl, v_bl)
        if self.trust_fixed_rails:
            return min(hsnm, rsnm) >= self.delta
        return min(hsnm, rsnm, wm) >= self.delta

    # -- batch API (the vectorized search path) ----------------------------

    def margins_grid(self, v_ddc, v_ssc_values, v_wl, v_bl=0.0):
        """(HSNM, RSNM, WM) arrays across a whole V_SSC candidate axis.

        HSNM and WM do not depend on V_SSC, so they broadcast; RSNM is
        looked up per level in the memo the scalar path uses.  The
        levels it misses are solved together (:meth:`_solve_rsnm_axis`)
        at the floats the scalar loop would have solved them at, so
        both paths read the same bits and each distinct operating point
        is solved at most once per process.
        """
        v_ssc_values = np.asarray(v_ssc_values, dtype=float)
        levels = v_ssc_values.tolist()
        ddc_key = round(v_ddc, 4)
        try:
            rsnm = np.array([self._rsnm_cache[(ddc_key, round(v, 4))]
                             for v in levels])
        except KeyError:
            self._solve_rsnm_axis(v_ddc, levels)
            rsnm = np.array([self._rsnm_cache[(ddc_key, round(v, 4))]
                             for v in levels])
        hsnm = np.full(v_ssc_values.shape, self.hsnm())
        wm = np.full(v_ssc_values.shape, self.wm(v_wl, v_bl))
        return hsnm, rsnm, wm

    def _solve_rsnm_axis(self, v_ddc, levels):
        """Memoize RSNM at every V_SSC level the memo misses, in one
        lane-batched solve (one lane per level, the rail a ``(k, 1)``
        column through :func:`~repro.cell.snm.snm_samples`).

        Each missing key is solved at the first of ``levels`` that
        rounds to it, the float :meth:`rsnm` would have been called
        with, and each lane equals that scalar butterfly bitwise.
        """
        ddc_key = round(v_ddc, 4)
        missing = {}
        for v in levels:
            key = (ddc_key, round(v, 4))
            if key not in self._rsnm_cache:
                missing.setdefault(key, v)
        if not missing:
            return
        bias = CellBias.read(
            vdd=self.library.vdd, v_ddc=v_ddc,
            v_ssc=np.array(list(missing.values())).reshape(-1, 1),
        )
        snm = snm_samples(self.cell, bias, access_on=True)
        for key, value in zip(missing, snm.tolist()):
            self._rsnm_cache.setdefault(key, value)

    def satisfied_grid(self, v_ddc, v_ssc_values, v_wl, v_bl=0.0):
        """Boolean feasibility mask over a V_SSC candidate axis."""
        hsnm, rsnm, wm = self.margins_grid(v_ddc, v_ssc_values, v_wl, v_bl)
        if self.trust_fixed_rails:
            return np.minimum(hsnm, rsnm) >= self.delta
        return np.minimum(np.minimum(hsnm, rsnm), wm) >= self.delta


@dataclass
class YieldTargetConstraint:
    """Array-yield-target constraint with ECC-aware margin relaxation.

    Replaces the fixed floor ``min(margins) >= delta`` with "the array
    yields at probability >= ``y_target`` given code ``code``".  Under
    the Gaussian tail model a cell fails when its margin falls below
    zero, so a per-cell failure budget ``p_max`` translates into a
    required margin of ``z(p_max) * sigma`` over the variation sigma at
    the operating point.  The paper's delta is exactly such a z-score
    headroom for the *uncoded* budget; an error-correcting code raises
    the admissible per-cell budget, lowering the requirement by::

        requirement = delta - delta_z * sigma(v_ddc, v_ssc)
        delta_z     = z(uncoded budget) - z(coded budget)

    (:func:`repro.yields.failure.margin_relaxation_z`).  With
    ``code="none"`` the relaxation is exactly ``0.0`` and the
    constraint degenerates to :class:`YieldConstraint` bit-for-bit —
    same margins, same comparisons, no Monte Carlo at all — so the
    fixed-delta optimum is reproduced exactly for *any* ``y_target``.

    ``sigma`` is the ddof=1 standard deviation of the per-sample
    ``min(HSNM, RSNM)`` margin over one seeded Vt draw (it does not
    depend on V_WL).  The samples come from ``base``'s
    :meth:`YieldConstraint.margin_samples` memo: one draw and one
    batched cell per ``(n_samples, seed)``, HSNM solved once, RSNM once
    per (V_DDC, V_SSC) rail pair.  Pass a session's
    ``session.constraint(flavor)`` as ``base`` (as
    :func:`repro.yields.study.compute_yield_cell` does) and those
    solves are shared by every yield constraint of the session; without
    one the constraint builds a private ``base`` and memo.  The
    per-pair statistics are memoized here as well.  Deterministic
    margins delegate to ``base`` too, so the search and its scalar
    reference see one feasibility mask and stay bit-identical.

    ``sampler`` selects how the relaxation is measured:

    * ``"gaussian"`` (default) — the closed-form ``delta_z * sigma``
      above; bit-identical to the historical behavior.
    * ``"shifted"`` — the relaxation is read off a margin distribution
      sampled by mean-shift importance sampling
      (:mod:`repro.cell.importance`) instead of the Gaussian
      extrapolation::

          relaxation = Q(p_coded) - Q(p_uncoded)

      where ``Q`` inverts the sampled tail mass
      (:meth:`repro.cell.importance.TailSampleBuffer.floor_for`) — for
      Gaussian margins this reduces to ``delta_z * sigma`` exactly.
      One :class:`~repro.cell.importance.TailSampleBuffer` per rail
      pair feeds every floor query; the margin-floor bisection reuses
      its cached, consolidated samples with no re-solve and no
      per-iteration allocation.  An unconverged or unresolvable tail
      (``max_samples`` exhausted, or no samples below the budget
      quantile) falls back to the Gaussian relaxation for that rail
      pair.
    """

    library: object
    flavor: str
    delta: float
    y_target: float
    code: object          # repro.yields.ecc.ECCCode
    capacity_bits: int
    word_bits: int = 64
    trust_fixed_rails: bool = False
    flip_lookup: object = None
    n_samples: int = 120
    seed: int = 0
    #: Share of the coded per-cell failure budget granted to cell
    #: stability; the remainder funds other correctable mechanisms
    #: (the study's relaxed sensing margin).  1.0 = margins get it all.
    margin_budget_fraction: float = 1.0
    #: A :data:`YIELD_SAMPLERS` value: "gaussian" (closed form) or
    #: "shifted" (importance-sampled).
    sampler: str = "gaussian"
    #: Relative 95% CI half-width the sampled relaxation targets.
    ci_target: float = 0.1
    #: Sample cap of the adaptive budget loop (per rail pair).
    max_samples: int = 4096
    base: YieldConstraint = field(default=None, repr=False)
    #: (v_ddc, v_ssc) -> (mu, sigma, tail_count, n_samples) of the
    #: per-sample min(HSNM, RSNM) margin.
    _stat_cache: dict = field(default_factory=dict, repr=False)
    delta_z: float = field(default=None, repr=False)
    #: (v_ddc, v_ssc) -> TailSampleBuffer (sampled relaxation mode).
    _buffer_cache: dict = field(default_factory=dict, repr=False)
    #: (v_ddc, v_ssc) -> (relaxation [V], TailEstimate | None).
    _relax_cache: dict = field(default_factory=dict, repr=False)
    #: Failure direction reused as a search hint across rail pairs.
    _direction_hint: object = field(default=None, repr=False)

    def __post_init__(self):
        from ..yields.ecc import make_code
        from ..yields.failure import margin_relaxation_z

        if isinstance(self.code, str):
            self.code = make_code(self.code, self.word_bits)
        check_yield_sampler(self.sampler)
        if self.base is None:
            self.base = YieldConstraint(
                library=self.library, flavor=self.flavor,
                delta=self.delta, trust_fixed_rails=self.trust_fixed_rails,
                flip_lookup=self.flip_lookup,
            )
        if self.delta_z is None:
            self.delta_z = margin_relaxation_z(
                self.y_target, self.code, self.n_words,
                budget_fraction=self.margin_budget_fraction,
            )

    @property
    def n_words(self):
        return self.capacity_bits // self.word_bits

    # -- variation statistics ----------------------------------------------

    @property
    def margin_samples(self):
        """The shared HSNM/RSNM sample memo behind the statistics."""
        return self.base.margin_samples(self.n_samples, self.seed)

    def min_margin_stats(self, v_ddc, v_ssc):
        """(mu, sigma, tail_count, n) of per-sample min(HSNM, RSNM)."""
        key = (round(v_ddc, 4), round(v_ssc, 4))
        if key not in self._stat_cache:
            values = self.margin_samples.min_margin(v_ddc, v_ssc)
            self._stat_cache[key] = (
                float(np.mean(values)),
                float(np.std(values, ddof=1)),
                int(np.sum(values < 0.0)),
                int(values.size),
            )
        return self._stat_cache[key]

    def sigma(self, v_ddc, v_ssc):
        """Min-margin variation sigma at the rail pair [V]."""
        return self.min_margin_stats(v_ddc, v_ssc)[1]

    def requirement(self, v_ddc, v_ssc):
        """The relaxed margin floor ``delta - relaxation`` [V].

        Exactly ``delta`` (no Monte Carlo run) when the code buys no
        relaxation, and never below zero — a negative requirement would
        accept cells that already fail nominally.
        """
        if self.delta_z == 0.0:
            return self.delta
        return max(self.delta - self.relaxation(v_ddc, v_ssc), 0.0)

    def relaxation(self, v_ddc, v_ssc):
        """Margin-floor relaxation the code buys at one rail pair [V]:
        ``delta_z * sigma`` in Gaussian mode, the sampled quantile gap
        ``Q(p_coded) - Q(p_uncoded)`` in sampler mode (memoized)."""
        if self.sampler == "gaussian":
            return self.delta_z * self.sigma(v_ddc, v_ssc)
        key = (round(v_ddc, 4), round(v_ssc, 4))
        if key not in self._relax_cache:
            self._relax_cache[key] = self._sampled_relaxation(v_ddc,
                                                              v_ssc)
        return self._relax_cache[key][0]

    # -- sampled relaxation (rare-event mode) ------------------------------

    def _budgets(self):
        """(uncoded, coded) per-cell failure budgets at the target."""
        from ..yields.failure import (
            coded_p_fail_budget,
            uncoded_p_fail_budget,
        )

        p_uncoded = uncoded_p_fail_budget(
            self.y_target, self.n_words * self.code.data_bits
        )
        p_coded = self.margin_budget_fraction * coded_p_fail_budget(
            self.y_target, self.code, self.n_words
        )
        return p_uncoded, p_coded

    def tail_buffer(self, v_ddc, v_ssc):
        """The shared weighted-sample buffer at one rail pair.

        Built once per rail pair; every floor query — the budget
        quantiles of :meth:`relaxation`, the reported
        :meth:`tail_estimate` — rides the same cached samples.  The
        mean-shift search aims at the uncoded-budget quantile predicted
        by the Gaussian stats (the deepest floor any query needs), and
        its failure direction seeds the next rail pair's search.
        """
        from ..cell.importance import TailSampleBuffer, cell_margin_solver
        from ..yields.failure import z_score

        key = (round(v_ddc, 4), round(v_ssc, 4))
        buffer = self._buffer_cache.get(key)
        if buffer is None:
            vdd = self.library.vdd
            bias = CellBias.read(vdd=vdd, v_ddc=v_ddc, v_ssc=v_ssc)
            solver = cell_margin_solver(self.base.cell, vdd, bias,
                                        snm_points=41)
            mu, sigma, _, _ = self.min_margin_stats(v_ddc, v_ssc)
            p_uncoded, _ = self._budgets()
            floor = mu - (z_score(p_uncoded) * sigma if sigma > 0.0
                          else 0.0)
            # SNM-style margins truncate at zero (a collapsed butterfly
            # eye reads exactly 0), so a sub-zero Gaussian quantile is
            # unreachable; aim the search just above the truncation
            # instead and let the floor queries resolve the budgets on
            # the sampled distribution.
            if floor <= 0.0 < mu:
                floor = min(0.05 * mu, 0.002)
            buffer = TailSampleBuffer(
                solver, sampler=self.sampler, seed=self.seed,
                search_floor=floor, direction=self._direction_hint,
            )
            buffer.prepare()
            if self._direction_hint is None and buffer.search.crossed:
                self._direction_hint = buffer.search.direction
            self._buffer_cache[key] = buffer
        return buffer

    def _sampled_relaxation(self, v_ddc, v_ssc):
        """(relaxation [V], TailEstimate) at one rail pair, falling
        back to the Gaussian ``delta_z * sigma`` when the sampler did
        not converge or cannot resolve the budget quantiles."""
        p_uncoded, p_coded = self._budgets()
        buffer = self.tail_buffer(v_ddc, v_ssc)
        estimate = buffer.estimate_to_ci(
            buffer.search_floor, ci_target=self.ci_target,
            max_samples=self.max_samples,
        )
        floor_uncoded = buffer.floor_for(p_uncoded)
        floor_coded = buffer.floor_for(p_coded)
        resolved = (buffer.coverage(floor_uncoded) > 0
                    and buffer.coverage(floor_coded) > 0)
        if estimate.converged and resolved:
            relaxation = max(floor_coded - floor_uncoded, 0.0)
        else:
            relaxation = self.delta_z * self.sigma(v_ddc, v_ssc)
        return relaxation, estimate

    def tail_estimate(self, v_ddc, v_ssc, floor=0.0):
        """Sampled :class:`~repro.cell.importance.TailEstimate` of
        ``P(margin < floor)`` at the rail pair (functional floor by
        default), over the shared buffer — extra floors cost no solver
        calls beyond the samples already drawn."""
        if self.sampler == "gaussian":
            raise ValueError(
                "tail_estimate needs sampler='shifted'; this "
                "constraint runs with sampler='gaussian'"
            )
        buffer = self.tail_buffer(v_ddc, v_ssc)
        if buffer.n_samples < 2 * buffer.block:
            buffer.estimate_to_ci(
                buffer.search_floor, ci_target=self.ci_target,
                max_samples=self.max_samples,
            )
        return buffer.estimate(floor)

    # -- reporting ---------------------------------------------------------

    def failure_estimate(self, v_ddc, v_ssc):
        """Per-cell :class:`repro.yields.failure.FailureEstimate` at the
        rail pair (functional floor: margin < 0)."""
        from ..yields.failure import FailureEstimate, MIN_TAIL_EVENTS

        from statistics import NormalDist

        mu, sigma, tail, n = self.min_margin_stats(v_ddc, v_ssc)
        empirical = tail / n
        if sigma <= 0.0:
            gaussian = 1.0 if mu < 0.0 else 0.0
        else:
            gaussian = NormalDist().cdf(-mu / sigma)
        source = "empirical" if tail >= MIN_TAIL_EVENTS else "gaussian"
        return FailureEstimate(
            empirical=empirical, gaussian=gaussian, n_samples=n,
            tail_count=tail, source=source,
        )

    def array_yield(self, v_ddc, v_ssc):
        """(yield with code, yield without) at the rail pair."""
        from ..yields.failure import array_yield, uncoded_array_yield

        p = self.failure_estimate(v_ddc, v_ssc).p_fail
        coded = array_yield(p, self.code, self.n_words)
        uncoded = uncoded_array_yield(
            p, self.n_words * self.code.data_bits
        )
        return coded, uncoded

    # -- the optimizer-facing surface --------------------------------------

    def margins(self, v_ddc, v_ssc, v_wl, v_bl=0.0):
        """(HSNM, RSNM, WM) — the deterministic margins the fixed-delta
        constraint reports (the relaxation moves the floor, not them)."""
        return self.base.margins(v_ddc, v_ssc, v_wl, v_bl)

    def satisfied(self, v_ddc, v_ssc, v_wl, v_bl=0.0):
        hsnm, rsnm, wm = self.base.margins(v_ddc, v_ssc, v_wl, v_bl)
        req = self.requirement(v_ddc, v_ssc)
        if self.trust_fixed_rails:
            return min(hsnm, rsnm) >= req
        return min(hsnm, rsnm, wm) >= req

    def margins_grid(self, v_ddc, v_ssc_values, v_wl, v_bl=0.0):
        return self.base.margins_grid(v_ddc, v_ssc_values, v_wl, v_bl)

    def satisfied_grid(self, v_ddc, v_ssc_values, v_wl, v_bl=0.0):
        hsnm, rsnm, wm = self.base.margins_grid(
            v_ddc, v_ssc_values, v_wl, v_bl
        )
        if self.delta_z == 0.0:
            req = self.delta
        else:
            req = np.array([
                self.requirement(v_ddc, float(v))
                for v in np.asarray(v_ssc_values, dtype=float)
            ])
        if self.trust_fixed_rails:
            return np.minimum(hsnm, rsnm) >= req
        return np.minimum(np.minimum(hsnm, rsnm), wm) >= req


@dataclass
class MonteCarloYieldConstraint:
    """The accurate mu - k*sigma formulation (extension).

    This is the paper's "accurate way to analytically express the
    constraint": ``min over metrics of (mu - k sigma) >= 0`` under
    process variation, with 1 <= k <= 6 by yield target.  Far costlier
    than the fixed-delta mode — every distinct rail pair runs a Monte
    Carlo over cell instances — which is exactly why the paper
    simplifies it to the fixed floor.  Used by the ablation benchmark
    comparing the two formulations.

    Drop-in compatible with :class:`ExhaustiveOptimizer` (it provides
    ``flavor``, ``satisfied``, and ``margins``; the reported "margins"
    are the mu - k*sigma values of HSNM and RSNM plus the nominal WM).
    Its samples come from a private
    :class:`~repro.cell.montecarlo.MarginSampleMemo` of its own
    ``(n_samples, seed)`` draw: HSNM is solved once, RSNM once per rail
    pair, whatever the V_WL (the read bias fixes the wordline at Vdd).
    """

    library: object
    flavor: str
    k: float = 3.0
    n_samples: int = 60
    seed: int = 1234
    #: Optional nominal flip voltage for the WM entry of margins().
    v_wl_flip: float = None
    _samples: MarginSampleMemo = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def margin_samples(self):
        """The HSNM/RSNM sample memo of this constraint's draw."""
        if self._samples is None:
            self._samples = MarginSampleMemo(
                SRAM6TCell.from_library(self.library, self.flavor),
                self.library.vdd, self.n_samples, self.seed,
            )
        return self._samples

    def mu_minus_k_sigma(self, v_ddc, v_ssc):
        """(hsnm, rsnm) mu - k*sigma at one rail pair [V]."""
        key = (round(v_ddc, 4), round(v_ssc, 4))
        if key not in self._cache:
            samples = self.margin_samples
            self._cache[key] = (
                MetricSamples("hsnm", samples.hsnm())
                .mu_minus_k_sigma(self.k),
                MetricSamples("rsnm", samples.rsnm(v_ddc, v_ssc))
                .mu_minus_k_sigma(self.k),
            )
        return self._cache[key]

    def margins(self, v_ddc, v_ssc, v_wl, v_bl=0.0):
        """(HSNM, RSNM, WM): the k-sigma margins plus the nominal WM."""
        hsnm_ks, rsnm_ks = self.mu_minus_k_sigma(v_ddc, v_ssc)
        wm = (v_wl - self.v_wl_flip) if self.v_wl_flip is not None else (
            float("inf")
        )
        return hsnm_ks, rsnm_ks, wm

    def satisfied(self, v_ddc, v_ssc, v_wl, v_bl=0.0):
        hsnm_ks, rsnm_ks = self.mu_minus_k_sigma(v_ddc, v_ssc)
        return min(hsnm_ks, rsnm_ks) >= 0.0

    def margins_grid(self, v_ddc, v_ssc_values, v_wl, v_bl=0.0):
        """Batch view of :meth:`margins` (each new rail pair still
        runs an RSNM Monte Carlo — the cost the paper's fixed-delta mode
        avoids)."""
        rows = [self.margins(v_ddc, float(v), v_wl, v_bl)
                for v in np.asarray(v_ssc_values, dtype=float)]
        hsnm, rsnm, wm = (np.array(col) for col in zip(*rows))
        return hsnm, rsnm, wm

    def satisfied_grid(self, v_ddc, v_ssc_values, v_wl, v_bl=0.0):
        return np.array([
            self.satisfied(v_ddc, float(v), v_wl, v_bl)
            for v in np.asarray(v_ssc_values, dtype=float)
        ])
