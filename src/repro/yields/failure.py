"""Cell failure probability and its composition into array yield.

Per-cell failure probability
----------------------------

The Monte Carlo engine (:mod:`repro.cell.montecarlo`) produces
per-sample margin distributions.  A cell *fails functionally* when its
realized margin falls below a floor (zero margin = the cell flips /
cannot be read), so ``p_fail = P(margin < floor)``.  Two estimators:

* **empirical** — the observed tail fraction.  Unbiased, but useless in
  the deep-yield regime: at ``p ~ 1e-7`` a 200-sample run observes zero
  failures.
* **Gaussian tail** — fit (mu, sigma) to the samples and extrapolate
  ``Phi((floor - mu) / sigma)``.  This is the paper's own framing: the
  delta = 0.35*Vdd margin requirement is a z-score headroom over the
  variation sigma.

:func:`estimate_p_fail` exposes both and selects the empirical count
only when enough tail events were actually observed; the tests
cross-check the two in the observable regime.  The deep tail, where
neither is trustworthy, belongs to the mean-shift importance sampler
(:func:`repro.cell.importance.estimate_tail`, whose
:class:`~repro.cell.importance.TailEstimate` carries confidence-
interval fields), which the ECC yield constraint runs under
``sampler="shifted"``.

Composition
-----------

Independent cell failures compose upward:

* a *codeword* of ``n`` bits correcting ``t`` errors fails only when
  more than ``t`` of its cells fail (binomial survival);
* a *word* fails when any of its interleaved codewords fails;
* the *array* yields only when every stored word survives.

All compositions run in log space (``log1p``/``expm1``) so yields
distinguishable from 1.0 only at the 1e-12 level stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

_NORMAL = NormalDist()


# ---------------------------------------------------------------------------
# Per-cell estimators
# ---------------------------------------------------------------------------

def p_fail_empirical(samples, floor):
    """Observed fraction of samples strictly below ``floor``."""
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ValueError("p_fail_empirical needs at least one sample")
    return float(np.mean(values < floor))


def p_fail_gaussian(samples, floor):
    """Gaussian-tail extrapolation ``Phi((floor - mu) / sigma)``.

    ``mu``/``sigma`` are the sample mean and ddof=1 standard deviation
    (matching :class:`repro.cell.montecarlo.MetricSamples`).  Degenerate
    inputs return finite values rather than relying on ``sigma > 0``: a
    zero-variance vector (including a single sample, whose ddof=1 sigma
    is undefined) collapses to a step at the mean — ``1.0`` when the
    floor sits above every sample, ``0.0`` otherwise.
    """
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ValueError("p_fail_gaussian needs at least one sample")
    mu = float(np.mean(values))
    sigma = (float(np.std(values, ddof=1)) if values.size > 1 else 0.0)
    if not sigma > 0.0 or not math.isfinite(sigma):
        return 1.0 if floor > mu else 0.0
    return _NORMAL.cdf((floor - mu) / sigma)


@dataclass(frozen=True)
class FailureEstimate:
    """Both per-cell estimators plus the selected value."""

    empirical: float
    gaussian: float
    n_samples: int
    tail_count: int
    #: "empirical" when enough tail events were observed, else
    #: "gaussian".
    source: str

    @property
    def p_fail(self):
        return self.empirical if self.source == "empirical" \
            else self.gaussian


#: Minimum observed tail events before the empirical estimator is
#: trusted over the Gaussian extrapolation (binomial relative error
#: ~ 1/sqrt(count); 8 events ~ 35%).
MIN_TAIL_EVENTS = 8


def estimate_p_fail(samples, floor, min_tail=MIN_TAIL_EVENTS):
    """Per-cell failure probability with estimator selection.

    Empirical when at least ``min_tail`` samples fell below ``floor``
    (the tail is actually observed); Gaussian-tail extrapolation
    otherwise — in particular in the ``tail_count == 0`` regime the
    deep-yield search lives in, where the extrapolation is always
    finite (zero-variance vectors step at the sample mean, see
    :func:`p_fail_gaussian`).
    """
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ValueError("estimate_p_fail needs at least one sample")
    tail = int(np.sum(values < floor))
    empirical = float(tail) / values.size
    gaussian = p_fail_gaussian(values, floor)
    source = "empirical" if tail >= min_tail else "gaussian"
    return FailureEstimate(
        empirical=empirical, gaussian=gaussian,
        n_samples=int(values.size), tail_count=tail, source=source,
    )


# ---------------------------------------------------------------------------
# Composition: cell -> codeword -> word -> array
# ---------------------------------------------------------------------------

def codeword_fail_probability(p_cell, n_bits, t):
    """P(more than ``t`` of ``n_bits`` independent cells fail)."""
    if not 0.0 <= p_cell <= 1.0:
        raise ValueError("p_cell must be in [0, 1], got %r" % (p_cell,))
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    if t >= n_bits:
        return 0.0
    if p_cell == 0.0:
        return 0.0
    if p_cell == 1.0:
        return 1.0
    if t <= 0:
        # 1 - (1-p)^n without cancellation.
        return -math.expm1(n_bits * math.log1p(-p_cell))
    # Survival mass sum_{i<=t} C(n,i) p^i (1-p)^(n-i) loses precision
    # when the failure mass is tiny; sum the failure mass directly.
    log_p = math.log(p_cell)
    log_q = math.log1p(-p_cell)
    terms = [math.exp(_log_binomial_term(n_bits, i, log_p, log_q))
             for i in range(t + 1, n_bits + 1)]
    return min(math.fsum(terms), 1.0)


def _log_binomial_term(n_bits, i, log_p, log_q):
    """log C(n, i) p^i (1-p)^(n-i)."""
    return (math.lgamma(n_bits + 1) - math.lgamma(i + 1)
            - math.lgamma(n_bits - i + 1)
            + i * log_p + (n_bits - i) * log_q)


def _log_codeword_survival(p_cell, n_bits, t):
    """log P(at most ``t`` of ``n_bits`` independent cells fail).

    ``log1p(-q)`` of the failure mass ``q`` while ``q <= 1/2``.  Above
    that, ``1 - q`` keeps too few digits (a failure mass within an ulp
    of 1 is not even monotone in ``p_cell``), so the survival terms are
    summed directly, in log space so that none underflows.
    """
    q = codeword_fail_probability(p_cell, n_bits, t)
    if q <= 0.5:
        return math.log1p(-q)
    if p_cell >= 1.0:
        return -math.inf
    log_p = math.log(p_cell)
    log_q = math.log1p(-p_cell)
    logs = [_log_binomial_term(n_bits, i, log_p, log_q)
            for i in range(max(t, 0) + 1)]
    peak = max(logs)
    return peak + math.log(math.fsum(math.exp(v - peak) for v in logs))


def word_fail_probability(p_cell, code):
    """P(a stored word is uncorrectable): any interleave way fails."""
    q_way = codeword_fail_probability(p_cell, code.codeword_bits, code.t)
    if code.interleave == 1:
        return q_way
    if q_way >= 1.0:
        return 1.0
    return -math.expm1(code.interleave * math.log1p(-q_way))


def array_yield(p_cell, code, n_words):
    """P(every stored word survives) for ``n_words`` words."""
    if n_words < 1:
        raise ValueError("n_words must be >= 1")
    log_survival = _log_codeword_survival(p_cell, code.codeword_bits,
                                          code.t)
    return math.exp(n_words * code.interleave * log_survival)


def uncoded_array_yield(p_cell, n_bits):
    """P(all ``n_bits`` cells work) with no correction at all."""
    if p_cell >= 1.0:
        return 0.0
    return math.exp(n_bits * math.log1p(-p_cell))


# ---------------------------------------------------------------------------
# Budgets: target yield -> admissible per-cell failure probability
# ---------------------------------------------------------------------------

def uncoded_p_fail_budget(y_target, n_bits):
    """Largest ``p_cell`` with ``(1-p)^n_bits >= y_target``."""
    if not 0.0 < y_target < 1.0:
        raise ValueError("y_target must be in (0, 1), got %r"
                         % (y_target,))
    return -math.expm1(math.log(y_target) / n_bits)


def coded_p_fail_budget(y_target, code, n_words):
    """Largest ``p_cell`` with ``array_yield(p, code, n_words) >= Y``.

    While the per-codeword failure budget ``q_max`` is at most 1/2: a
    closed form for non-correcting codes, and otherwise a bisection
    that tests the codeword failure mass against ``q_max``.  Above 1/2
    that mass keeps too few digits (within an ulp of 1 it is not even
    monotone in ``p_cell``), so for every code the bisection tests the
    log survival mass, the quantity :func:`array_yield` composes,
    against the per-codeword log-yield target instead.
    """
    if not 0.0 < y_target < 1.0:
        raise ValueError("y_target must be in (0, 1), got %r"
                         % (y_target,))
    n_codewords = n_words * code.interleave
    # Per-codeword failure budget from Y = (1 - q)^M.
    log_survival_min = math.log(y_target) / n_codewords
    q_max = -math.expm1(log_survival_min)
    n_cw = code.codeword_bits
    if code.t <= 0 and q_max <= 0.5:
        return -math.expm1(math.log1p(-q_max) / n_cw)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_max <= 0.5:
            within = codeword_fail_probability(mid, n_cw, code.t) <= q_max
        else:
            within = (_log_codeword_survival(mid, n_cw, code.t)
                      >= log_survival_min)
        if within:
            lo = mid
        else:
            hi = mid
    return lo


def z_score(p_fail):
    """The Gaussian headroom ``z`` with ``Phi(-z) = p_fail``."""
    if not 0.0 < p_fail < 1.0:
        raise ValueError("p_fail must be in (0, 1), got %r" % (p_fail,))
    return -_NORMAL.inv_cdf(p_fail)


def margin_relaxation_z(y_target, code, n_words, budget_fraction=1.0):
    """Z-score relaxation the code buys at the target array yield.

    ``z(uncoded budget) - z(coded budget)`` over the *same* stored data
    bits: with the Gaussian tail model a cell's required margin is
    ``z * sigma`` above the functional floor, so correction lowers the
    required margin by ``delta_z * sigma``.  Exactly zero for a
    non-correcting code.

    ``budget_fraction`` reserves part of the coded per-cell budget for
    another failure mechanism (the union bound: mechanisms sized
    against disjoint budget shares compose to at most the total).  The
    ECC study splits the budget evenly between cell stability and
    sensing (:func:`relaxed_sense_voltage`).
    """
    if not code.corrects:
        return 0.0
    if not 0.0 < budget_fraction <= 1.0:
        raise ValueError("budget_fraction must be in (0, 1]")
    p_uncoded = uncoded_p_fail_budget(y_target,
                                      n_words * code.data_bits)
    p_coded = budget_fraction * coded_p_fail_budget(y_target, code,
                                                    n_words)
    if p_coded <= p_uncoded:
        return 0.0
    return z_score(p_uncoded) - z_score(p_coded)


# ---------------------------------------------------------------------------
# Sensing margin: the second mechanism correction pays for
# ---------------------------------------------------------------------------

def sense_fail_probability(delta_v_sense, sa_offset_sigma):
    """P(a sensed bit resolves wrongly): the developed bitline split
    ``DeltaV_S`` loses to the sense amplifier's Gaussian input-referred
    offset."""
    if delta_v_sense < 0.0:
        raise ValueError("delta_v_sense must be >= 0")
    if sa_offset_sigma <= 0.0:
        return 0.0
    return _NORMAL.cdf(-delta_v_sense / sa_offset_sigma)


def relaxed_sense_voltage(y_target, code, n_words, sa_offset_sigma,
                          nominal, budget_fraction=0.5):
    """Smallest sensing voltage the code supports at the yield target.

    The paper keeps ``DeltaV_S`` fixed because "reducing DeltaV_S ...
    is difficult ... with increased effect of process variations" — a
    smaller sensing window loses to the sense-amp offset and flips read
    bits.  With correction those flips are single-bit errors inside a
    codeword, so the sensing margin can shrink until the per-bit sense
    error probability consumes its ``budget_fraction`` share of the
    coded per-cell failure budget:

        DeltaV_S,relaxed = sigma_offset * z(budget_fraction * p_coded)

    ceiled to the 1 mV bias grid and never above ``nominal`` (the code
    is a license to relax, not a requirement to).  Non-correcting codes
    keep the nominal window exactly.
    """
    if not code.corrects:
        return nominal
    p_sense = budget_fraction * coded_p_fail_budget(y_target, code,
                                                    n_words)
    if p_sense >= 0.5:
        return nominal
    relaxed = sa_offset_sigma * z_score(p_sense)
    relaxed = math.ceil(relaxed * 1e3) / 1e3
    return min(nominal, relaxed)
