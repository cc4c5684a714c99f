"""Monte Carlo yield analysis of the 6T cell under Vt variation.

The paper's Monte Carlo analysis concludes that, for its 7nm FinFETs,
noise margins must exceed 35% of Vdd for a high-yield cell; the array
optimizer then uses ``min(HSNM, RSNM, WM) >= delta`` with
``delta = 0.35 * Vdd`` as its (simplified) yield constraint.  This
module reproduces the underlying distributional analysis: it samples
per-transistor threshold shifts, re-extracts the margins, and reports
means, sigmas, mu - k*sigma, and empirical yield at a given margin
floor.

One batched cell carries every sample's thresholds as per-transistor
``(n, 1)`` columns, so each margin is a single vectorized bisection or
relaxation over all samples (O(iterations) numpy passes instead of
O(n * iterations) scalar solves).  :func:`run_cell_montecarlo` and
:func:`run_cell_montecarlo_multi` are two entry points over that one
stacked solve.  :func:`run_cell_montecarlo_reference` keeps the scalar
per-sample loop as the executable spec: it consumes the *same* shift
matrix and follows the same per-element operation sequence, so its
sample arrays equal production's bit for bit
(``tests/test_montecarlo_parity.py``).

The yield constraints read HSNM/RSNM samples through a
:class:`MarginSampleMemo`, which draws once and solves each margin once
per rail pair; a session shares one per flavor and seeded draw
(:meth:`repro.opt.constraints.YieldConstraint.margin_samples`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import perf
from ..devices.variation import VariationModel, apply_shift_matrix
from .bias import CellBias
from .sram6t import TRANSISTOR_ROLES
from .snm import butterfly, snm_samples
from .write import write_margin, write_margin_batch


@dataclass
class MetricSamples:
    """Monte Carlo samples of one margin metric."""

    name: str
    values: np.ndarray

    @property
    def mean(self):
        return float(np.mean(self.values))

    @property
    def sigma(self):
        return float(np.std(self.values, ddof=1)) if len(self.values) > 1 else 0.0

    def mu_minus_k_sigma(self, k):
        """The paper's analytic yield expression ``mu - k*sigma``."""
        return self.mean - k * self.sigma

    def yield_at(self, floor):
        """Empirical fraction of samples with margin >= ``floor``."""
        return float(np.mean(self.values >= floor))

    def percentile(self, q):
        """Empirical margin percentile(s) [V].

        ``q`` in [0, 100], scalar or sequence (linear interpolation
        between order statistics, numpy's default).
        """
        result = np.percentile(self.values, q)
        return float(result) if np.ndim(result) == 0 else result

    def tail_probability(self, floor):
        """Observed ``P(margin < floor)`` — the empirical estimator
        only; complement of :meth:`yield_at`."""
        return float(np.mean(self.values < floor))

    def tail_estimate(self, floor):
        """:class:`repro.yields.failure.FailureEstimate` of
        ``P(margin < floor)``: the observed tail fraction when enough
        failures were seen, the Gaussian-tail extrapolation in the
        deep-yield regime where the sample tail is empty."""
        from ..yields.failure import estimate_p_fail

        return estimate_p_fail(self.values, floor)


@dataclass
class MonteCarloResult:
    """All sampled metrics from one Monte Carlo run."""

    n_samples: int
    metrics: dict = field(default_factory=dict)

    def metric(self, name):
        return self.metrics[name]

    def worst_case_yield(self, floor):
        """Fraction of samples where *every* metric clears ``floor``
        (margins are evaluated on the same cell instances, so this is a
        joint, not independent, yield)."""
        stacked = np.vstack([m.values for m in self.metrics.values()])
        return float(np.mean(np.all(stacked >= floor, axis=0)))


def sample_shift_matrix(n_samples, variation=None, seed=0):
    """The seeded per-transistor Vt shift matrix of a Monte Carlo run.

    Shape ``(n_samples, len(TRANSISTOR_ROLES))``, columns in
    :data:`TRANSISTOR_ROLES` order.  This is the single source of random
    draws for a Monte Carlo run: production maps the whole matrix onto
    one batched cell, the scalar reference walks its rows.
    """
    variation = variation or VariationModel()
    rng = np.random.default_rng(seed)
    return variation.sample_shifts(len(TRANSISTOR_ROLES), n_samples, rng)


def batched_cell(base_cell, shift_matrix):
    """One cell carrying every Monte Carlo sample at once.

    Each transistor's column of ``shift_matrix`` becomes a batched
    per-sample ``vt`` on that transistor's parameters (see
    :func:`repro.devices.variation.apply_shift_matrix`), so every cell
    measurement downstream evaluates all samples simultaneously.
    """
    batched = apply_shift_matrix(base_cell.all_params(), shift_matrix)
    return base_cell.with_overrides(dict(zip(TRANSISTOR_ROLES, batched)))


class MarginSampleMemo:
    """Per-sample HSNM and RSNM of one seeded draw, each solved once.

    The Vt shift draw (:func:`sample_shift_matrix` with the default
    variation model) and the batched cell built from it are made once,
    at construction.  HSNM is solved on first use at
    ``CellBias.hold(vdd)``, which no read rail moves; RSNM once per
    rounded ``(v_ddc, v_ssc)`` rail pair, at the first caller's rails.
    Both use :attr:`points` VTC points.  Every array equals the same
    metric of ``run_cell_montecarlo(base_cell, n_samples, seed=seed,
    vdd=vdd, read_bias=CellBias.read(vdd=vdd, v_ddc=v_ddc,
    v_ssc=v_ssc), snm_points=41)`` bit for bit: the same solver runs on
    the same inputs, only the repeats go.

    The arrays are deterministic, so concurrent fills are idempotent:
    threads racing on one key solve equal arrays, and the first one
    stored is what every read returns from then on.
    """

    #: VTC points per half-circuit sweep (the yield constraints' 41).
    points = 41

    def __init__(self, base_cell, vdd, n_samples, seed):
        self.vdd = vdd
        self.shift_matrix = sample_shift_matrix(n_samples, seed=seed)
        self.cell = batched_cell(base_cell, self.shift_matrix)
        self._solved = {}

    def hsnm(self):
        """(n,) hold SNM samples [V]."""
        return self._solve("hsnm", CellBias.hold(self.vdd), access_on=False)

    def rsnm(self, v_ddc, v_ssc):
        """(n,) read SNM samples at one rail pair [V]."""
        return self._solve(
            (round(v_ddc, 4), round(v_ssc, 4)),
            CellBias.read(vdd=self.vdd, v_ddc=v_ddc, v_ssc=v_ssc),
            access_on=True,
        )

    def min_margin(self, v_ddc, v_ssc):
        """(n,) per-sample ``min(HSNM, RSNM)`` at one rail pair [V].

        Samples are shift-aligned across metrics, so the elementwise
        min is the per-instance worst margin."""
        return np.minimum(self.hsnm(), self.rsnm(v_ddc, v_ssc))

    def _solve(self, key, bias, access_on):
        values = self._solved.get(key)
        if values is None:
            values = snm_samples(self.cell, bias, access_on=access_on,
                                 points=self.points)
            # Read-only: every reader of the memo shares this array.
            values.setflags(write=False)
            values = self._solved.setdefault(key, values)
        return values


def sample_cells(base_cell, n_samples, variation=None, seed=0):
    """Generate Monte Carlo cell instances (a generator).

    Each instance perturbs all six transistor thresholds independently
    with the Pelgrom sigma of :class:`VariationModel`: instance ``k``
    carries row ``k`` of :func:`sample_shift_matrix`, the matrix
    production consumes whole through :func:`batched_cell`.
    """
    shifts = sample_shift_matrix(n_samples, variation, seed)
    for row in shifts:
        overrides = {
            role: base_cell.params(role).with_vt_shift(float(delta))
            for role, delta in zip(TRANSISTOR_ROLES, row)
        }
        yield base_cell.with_overrides(overrides)


def _margins_batched(cell, n_samples, vdd, read_bias, hold_bias, metrics,
                     wm_resolution, snm_points):
    """Extract every requested margin from an already-batched cell."""
    collected = {name: np.asarray([]) for name in metrics}
    if "hsnm" in collected:
        with perf.timed("montecarlo.hsnm"):
            collected["hsnm"] = snm_samples(cell, hold_bias,
                                            access_on=False,
                                            points=snm_points)
    if "rsnm" in collected:
        with perf.timed("montecarlo.rsnm"):
            collected["rsnm"] = snm_samples(cell, read_bias, access_on=True,
                                            points=snm_points)
    if "wm" in collected:
        with perf.timed("montecarlo.wm"):
            collected["wm"] = write_margin_batch(
                cell, n_samples, v_wl_applied=read_bias.v_wl, vdd=vdd,
                resolution=wm_resolution,
            )
    return collected


def _default_biases(vdd, read_bias, hold_bias):
    vdd = CellBias().vdd if vdd is None else vdd
    return (vdd, read_bias or CellBias.read(vdd),
            hold_bias or CellBias.hold(vdd))


def _run_stacked(base_cell, specs, variation, vdd, read_bias, hold_bias,
                 metrics, wm_resolution, snm_points):
    """One batched solve over the stacked draws of every ``(n_samples,
    seed)`` spec; one :class:`MonteCarloResult` per spec, in order."""
    matrices = [
        sample_shift_matrix(int(n_samples), variation, seed)
        for n_samples, seed in specs
    ]
    if not matrices:
        return []
    vdd, read_bias, hold_bias = _default_biases(vdd, read_bias, hold_bias)
    total = sum(matrix.shape[0] for matrix in matrices)
    cell = batched_cell(base_cell, np.vstack(matrices))
    perf.count("montecarlo.samples", total)
    with perf.timed("montecarlo.run"):
        collected = _margins_batched(
            cell, total, vdd, read_bias, hold_bias, metrics,
            wm_resolution, snm_points,
        )
    results = []
    offset = 0
    for matrix in matrices:
        n_samples = matrix.shape[0]
        result = MonteCarloResult(n_samples=n_samples)
        for name, values in collected.items():
            result.metrics[name] = MetricSamples(
                name, np.asarray(values)[offset:offset + n_samples].copy()
            )
        results.append(result)
        offset += n_samples
    return results


def run_cell_montecarlo(base_cell, n_samples=200, variation=None, seed=0,
                        vdd=None, read_bias=None, hold_bias=None,
                        metrics=("hsnm", "rsnm"), wm_resolution=0.002,
                        snm_points=61):
    """Monte Carlo over cell instances; returns :class:`MonteCarloResult`.

    ``metrics`` selects among ``"hsnm"``, ``"rsnm"`` and ``"wm"`` (write
    margin is by far the most expensive — each sample runs a bisection of
    full write-flip relaxations).  Every sample is solved in one
    vectorized pass; the arrays equal
    :func:`run_cell_montecarlo_reference`'s bit for bit.
    """
    (result,) = _run_stacked(
        base_cell, [(n_samples, seed)], variation, vdd, read_bias,
        hold_bias, metrics, wm_resolution, snm_points,
    )
    return result


def run_cell_montecarlo_multi(base_cell, specs, variation=None, vdd=None,
                              read_bias=None, hold_bias=None,
                              metrics=("hsnm", "rsnm"), wm_resolution=0.002,
                              snm_points=61):
    """Coalesce several Monte Carlo draws into *one* batched solve.

    ``specs`` is a sequence of ``(n_samples, seed)`` pairs — e.g. the
    compatible requests a service batch collected.  Each spec's shift
    matrix comes from its own seeded generator (exactly what
    :func:`run_cell_montecarlo` would draw), the matrices are stacked,
    and every margin is extracted in a single vectorized pass over the
    combined sample axis.  Returns one :class:`MonteCarloResult` per
    spec, in order.

    Bit-identity: the batched solvers are lane-independent — converged
    lanes freeze and per-lane brackets march on their own (see
    :func:`repro.cell.write.flip_wordline_voltage_batch`), so a sample's
    trajectory does not depend on which other samples share the batch.
    Each returned result is therefore bitwise equal to a separate
    :func:`run_cell_montecarlo` call with that spec's ``n_samples`` and
    ``seed``.
    """
    return _run_stacked(
        base_cell, specs, variation, vdd, read_bias, hold_bias, metrics,
        wm_resolution, snm_points,
    )


def run_cell_montecarlo_reference(base_cell, n_samples=200, variation=None,
                                  seed=0, vdd=None, read_bias=None,
                                  hold_bias=None, metrics=("hsnm", "rsnm"),
                                  wm_resolution=0.002, snm_points=61):
    """The executable spec of :func:`run_cell_montecarlo`.

    One perturbed cell object per sample (:func:`sample_cells`), each
    margin solved point by point with the scalar solvers
    (:func:`~repro.cell.snm.butterfly`,
    :func:`~repro.cell.write.write_margin`).  Same signature and result
    as :func:`run_cell_montecarlo`, far slower; the parity tests and
    ``benchmarks/bench_montecarlo.py`` compare the two bitwise.
    """
    vdd, read_bias, hold_bias = _default_biases(vdd, read_bias, hold_bias)
    collected = {name: [] for name in metrics}
    for cell in sample_cells(base_cell, n_samples, variation, seed):
        if "hsnm" in collected:
            collected["hsnm"].append(
                butterfly(cell, hold_bias, access_on=False,
                          points=snm_points).snm
            )
        if "rsnm" in collected:
            collected["rsnm"].append(
                butterfly(cell, read_bias, access_on=True,
                          points=snm_points).snm
            )
        if "wm" in collected:
            collected["wm"].append(
                write_margin(cell, v_wl_applied=read_bias.v_wl, vdd=vdd,
                             resolution=wm_resolution)
            )
    result = MonteCarloResult(n_samples=n_samples)
    for name, values in collected.items():
        result.metrics[name] = MetricSamples(name, np.asarray(values))
    return result


def required_margin_fraction(result, k=3.0, vdd=None):
    """Back out the paper-style yield rule from a Monte Carlo run: the
    fraction of Vdd that the *nominal* margin must exceed so that
    ``mu - k*sigma >= 0``, assuming sigma stays at the sampled value.

    For each metric: required nominal margin = k * sigma, expressed as a
    fraction of Vdd.  The paper's analysis arrives at 0.35.
    """
    vdd = CellBias().vdd if vdd is None else vdd
    return {
        name: k * samples.sigma / vdd
        for name, samples in result.metrics.items()
    }
