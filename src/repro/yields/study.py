"""The ECC-relaxed co-optimization study: fixed-delta vs yield-target.

One study cell compares two full exhaustive searches over the same
capacity / flavor / method:

* **baseline** — the paper's fixed floor ``min(margins) >= delta`` with
  no check-bit columns;
* **relaxed** — the same search under a
  :class:`~repro.opt.constraints.YieldTargetConstraint`: the array must
  yield at probability >= ``y_target`` *given* an error-correcting
  code.  The coded per-cell failure budget is split evenly (union
  bound) between the two margins the code protects:

  - *cell stability* — the margin floor drops by ``delta_z * sigma``,
    admitting lower assist rails (V_DDC_min / V_WL_min are re-measured
    at the relaxed delta);
  - *sensing* — the paper keeps ``DeltaV_S`` fixed because process
    variation makes a smaller window lose to the sense-amp offset;
    with correction those sense flips are correctable bit errors, so
    ``DeltaV_S`` shrinks to its budgeted z-score over the offset sigma
    (:func:`repro.yields.failure.relaxed_sense_voltage`), cutting the
    dominant bitline discharge/precharge terms.

  The evaluation charges the code's full cost — check-bit columns
  widening every row, plus encode/correct delay and energy.

Both arms evaluate with ``count_all_columns=True`` and
``ecc_pipelined=True`` (the realistic-accounting extension): the
paper's single-worst-column accounting would make the shared ECC logic
look disproportionate against an artificially small per-access energy,
and a serial correction chain would dominate the near-threshold access
time that real macros pipeline.

With ``code="none"`` the relaxation is exactly zero, the relaxed rails
degenerate to the baseline levels, and both arms return the identical
fixed-delta optimum — the cross-check
``tests/test_yield_constraint.py`` pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..assist.study import minimum_vdd_boost
from ..errors import CharacterizationError, DesignSpaceError
from ..opt.constraints import (
    YieldTargetConstraint,
    check_yield_sampler,
    check_yield_samples,
)
from ..opt.exhaustive import ExhaustiveOptimizer
from ..opt.methods import YieldLevels, make_policy
from ..opt.space import DesignSpace
from ..units import capacity_label
from .ecc import make_code
from .failure import relaxed_sense_voltage

#: Input-referred sense-amp offset sigma the sensing-margin relaxation
#: is sized against (matches :mod:`repro.cell.timing_yield`).
SA_OFFSET_SIGMA = 0.015

#: Coded per-cell failure budget share granted to cell stability; the
#: other half funds the relaxed sensing margin (union bound).
MARGIN_BUDGET_FRACTION = 0.5


def relaxed_yield_levels(session, flavor, delta_relaxed):
    """Minimum assist levels at a relaxed margin floor.

    Mirrors :meth:`Session.yield_levels`'s measured mode — V_DDC from
    the RSNM grid scan, V_WL from the flip voltage plus the floor,
    ceiled to the 10 mV rail grid — but always measures (the paper's
    pinned levels certify the *unrelaxed* floor only).
    """
    v_ddc = minimum_vdd_boost(session.library, session.cells[flavor],
                              delta_relaxed)
    v_flip = session.chars[flavor].v_wl_flip
    v_wl = math.ceil((v_flip + delta_relaxed) / 0.010) * 0.010
    return YieldLevels(v_ddc_min=v_ddc, v_wl_min=round(v_wl, 3))


@dataclass(frozen=True)
class YieldCellResult:
    """One capacity/flavor/method cell of the yield study."""

    capacity_bytes: int
    flavor: str
    method: str
    code: str             # resolved code name
    code_described: str   # e.g. "(72,64) SECDED"
    y_target: float
    delta: float
    #: Margin-floor relaxation inputs: z-score the code buys and the
    #: min-margin variation sigma at the baseline rails.  ``sigma0`` is
    #: None for a non-correcting code (no Monte Carlo runs at all).
    delta_z: float
    sigma0: float
    delta_relaxed: float
    #: Sensing voltages [V]: the baseline's nominal window and the
    #: relaxed window the code's sense-error budget supports.
    sense_voltage: float
    sense_voltage_relaxed: float
    #: Assist-rail minima each arm searched under.
    baseline_levels: tuple   # (v_ddc_min, v_wl_min)
    relaxed_levels: tuple
    #: The two optima (:class:`~repro.opt.OptimizationResult`).
    baseline: object
    relaxed: object
    #: Per-cell failure probability at the relaxed optimum's rails
    #: (both estimators), and the array yields it composes to.  None
    #: for a non-correcting code.
    p_fail: object
    yield_coded: float
    yield_uncoded: float
    #: True when the relaxed search fell back to the baseline rails
    #: (relaxed-level measurement or search infeasible).
    fallback: bool = False
    #: Relaxation estimator
    #: (:data:`repro.opt.constraints.YIELD_SAMPLERS`): "gaussian"
    #: (closed form) or "shifted" (importance-sampled).
    sampler: str = "gaussian"
    #: Sampled :class:`~repro.cell.importance.TailEstimate` of the
    #: functional tail ``P(margin < 0)`` at the relaxed optimum's rails
    #: (None in gaussian mode or for a non-correcting code).
    tail: object = None

    @property
    def key(self):
        return (self.capacity_bytes, self.flavor, self.method)

    @property
    def label(self):
        return "%s/%s/%s" % (capacity_label(self.capacity_bytes),
                             self.flavor.upper(), self.method)

    @property
    def edp_gain(self):
        """Fractional EDP reduction of the relaxed optimum (negative
        when the code's overhead outweighs the relaxation)."""
        return 1.0 - self.relaxed.metrics.edp / self.baseline.metrics.edp

    @property
    def n_evaluated(self):
        return self.baseline.n_evaluated + self.relaxed.n_evaluated

    def row(self):
        return {
            "cell": self.label,
            "code": self.code_described,
            "delta (mV)": round(self.delta * 1e3, 1),
            "relaxed (mV)": round(self.delta_relaxed * 1e3, 1),
            "dVs (mV)": round(self.sense_voltage_relaxed * 1e3, 1),
            "base EDP": self.baseline.metrics.edp,
            "ecc EDP": self.relaxed.metrics.edp,
            "gain (%)": round(100.0 * self.edp_gain, 2),
            "yield": self.yield_coded,
        }

    def summary(self):
        """JSON-safe scalars (the service / bench payload core)."""
        return {
            "capacity_bytes": self.capacity_bytes,
            "flavor": self.flavor,
            "method": self.method,
            "code": self.code,
            "code_described": self.code_described,
            "y_target": self.y_target,
            "delta": self.delta,
            "delta_z": self.delta_z,
            "sigma0": self.sigma0,
            "delta_relaxed": self.delta_relaxed,
            "sense_voltage": self.sense_voltage,
            "sense_voltage_relaxed": self.sense_voltage_relaxed,
            "baseline_levels": list(self.baseline_levels),
            "relaxed_levels": list(self.relaxed_levels),
            "baseline_edp": self.baseline.metrics.edp,
            "relaxed_edp": self.relaxed.metrics.edp,
            "edp_gain": self.edp_gain,
            "p_fail": None if self.p_fail is None else {
                "empirical": self.p_fail.empirical,
                "gaussian": self.p_fail.gaussian,
                "n_samples": self.p_fail.n_samples,
                "tail_count": self.p_fail.tail_count,
                "source": self.p_fail.source,
            },
            "yield_coded": self.yield_coded,
            "yield_uncoded": self.yield_uncoded,
            "fallback": self.fallback,
            "sampler": self.sampler,
            "tail": None if self.tail is None else self.tail.summary(),
        }


def yield_study_configs(config, code_name, delta_v_sense=None):
    """(baseline, ecc) array configs for one study cell.

    Both use the realistic-accounting extensions; the arms differ only
    in the code and its relaxed sensing voltage, so the EDP delta
    isolates {check columns + ECC logic + relaxed rails + relaxed
    DeltaV_S}.
    """
    base = replace(config, count_all_columns=True, ecc="none",
                   ecc_pipelined=True)
    ecc = replace(base, ecc=code_name)
    if delta_v_sense is not None:
        ecc = replace(ecc, delta_v_sense=delta_v_sense)
    return base, ecc


def compute_yield_cell(session, capacity_bytes, flavor, method="M2",
                       code="secded", y_target=0.9, space=None,
                       n_samples=120, seed=0, sampler="gaussian",
                       ci_target=0.1, max_samples=4096):
    """Run one study cell: fixed-delta baseline vs ECC-relaxed search.

    ``sampler`` selects the margin-floor relaxation estimator:
    ``"gaussian"`` keeps the closed-form ``delta_z * sigma`` path
    bit-for-bit; ``"shifted"`` runs the importance-sampled
    margin-floor solve of :class:`~repro.opt.constraints.
    YieldTargetConstraint` (one shared sample buffer per rail pair,
    adaptive budget up to ``max_samples`` per pair targeting relative
    CI ``ci_target``) and attaches the sampled functional-tail estimate
    at the relaxed optimum to the result.
    """
    from ..array.model import SRAMArrayModel

    # Before the baseline search, which a bad sampler or sample count
    # would waste.
    check_yield_sampler(sampler)
    check_yield_samples(n_samples)
    space = space or DesignSpace()
    capacity_bits = capacity_bytes * 8
    code_obj = make_code(code, session.config.word_bits)
    sense_relaxed = relaxed_sense_voltage(
        y_target, code_obj, capacity_bits // session.config.word_bits,
        SA_OFFSET_SIGMA, nominal=session.config.delta_v_sense,
        budget_fraction=1.0 - MARGIN_BUDGET_FRACTION,
    )
    base_cfg, ecc_cfg = yield_study_configs(session.config,
                                            code_obj.name, sense_relaxed)

    base_constraint = session.constraint(flavor)
    base_levels = session.yield_levels(flavor)
    base_model = SRAMArrayModel(session.chars[flavor], base_cfg)
    baseline = ExhaustiveOptimizer(
        base_model, space, base_constraint
    ).optimize(capacity_bits, make_policy(method, base_levels))

    # The session's constraint as the base: every deterministic margin
    # the baseline measured, and the Monte Carlo samples every earlier
    # yield cell of this flavor solved, are shared, not recomputed.
    constraint = YieldTargetConstraint(
        library=session.library, flavor=flavor, delta=session.delta,
        y_target=y_target, code=code_obj, capacity_bits=capacity_bits,
        word_bits=session.config.word_bits,
        trust_fixed_rails=base_constraint.trust_fixed_rails,
        n_samples=n_samples, seed=seed,
        margin_budget_fraction=MARGIN_BUDGET_FRACTION,
        sampler=sampler, ci_target=ci_target, max_samples=max_samples,
        base=base_constraint,
    )

    fallback = False
    if constraint.delta_z == 0.0:
        # No correction, no relaxation: the arms are identical by
        # construction (and no Monte Carlo ever runs).
        sigma0 = None
        delta_relaxed = session.delta
        levels = base_levels
    else:
        sigma0 = constraint.sigma(base_levels.v_ddc_min, 0.0)
        delta_relaxed = max(
            session.delta - constraint.delta_z * sigma0, 0.0
        )
        try:
            levels = relaxed_yield_levels(session, flavor, delta_relaxed)
        except CharacterizationError:
            levels = base_levels
            fallback = True

    ecc_model = SRAMArrayModel(session.chars[flavor], ecc_cfg)
    optimizer = ExhaustiveOptimizer(ecc_model, space, constraint)
    try:
        relaxed = optimizer.optimize(capacity_bits,
                                     make_policy(method, levels))
    except DesignSpaceError:
        if levels is base_levels:
            raise
        # The relaxed rails left no feasible design (the per-point
        # sigma undercut the one-step relaxation); retry at the
        # certified baseline rails.
        levels = base_levels
        fallback = True
        relaxed = optimizer.optimize(capacity_bits,
                                     make_policy(method, levels))

    tail = None
    if code_obj.corrects:
        design = relaxed.design
        p_fail = constraint.failure_estimate(design.v_ddc,
                                             float(design.v_ssc))
        yield_coded, yield_uncoded = constraint.array_yield(
            design.v_ddc, float(design.v_ssc)
        )
        if sampler != "gaussian":
            tail = constraint.tail_estimate(design.v_ddc,
                                            float(design.v_ssc))
    else:
        p_fail, yield_coded, yield_uncoded = None, 1.0, 1.0

    return YieldCellResult(
        capacity_bytes=capacity_bytes, flavor=flavor, method=method,
        code=code_obj.name, code_described=code_obj.describe(),
        y_target=y_target, delta=session.delta,
        delta_z=constraint.delta_z, sigma0=sigma0,
        delta_relaxed=delta_relaxed,
        sense_voltage=session.config.delta_v_sense,
        sense_voltage_relaxed=sense_relaxed,
        baseline_levels=(base_levels.v_ddc_min, base_levels.v_wl_min),
        relaxed_levels=(levels.v_ddc_min, levels.v_wl_min),
        baseline=baseline, relaxed=relaxed,
        p_fail=p_fail, yield_coded=yield_coded,
        yield_uncoded=yield_uncoded, fallback=fallback,
        sampler=sampler, tail=tail,
    )
