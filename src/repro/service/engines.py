"""Batch-job execution against the optimization engines.

One *job* is a plain-data dict a :class:`~repro.service.batching.BatchQueue`
dispatch produced: a ``kind`` (optimize / pareto / yield / evaluate /
montecarlo), the group's shared fields, and the batched ``items``.
Jobs cross the executor boundary as-is — picklable both ways — and
come back as one JSON-able payload per item, so the event loop never
touches numpy.

Process pools are the study runner's
(:func:`repro.analysis.runner.session_pool`): every worker receives
the server's warmed session, minus its characterization cache, through
the pool initializer, so no worker re-characterizes or recomputes a
butterfly the server already ran.  The thread executor shares the
server's session directly.

Per-item failures (an infeasible design space, a bad capacity) are
*data*, not exceptions — ``{"ok": False, "status": 422, ...}`` — so one
bad request cannot poison the rest of its batch.
"""

from __future__ import annotations

import math

from .. import perf
from ..analysis import runner as study_runner
from ..array.model import DesignPoint
from ..cell.montecarlo import run_cell_montecarlo_multi
from ..cell.sram6t import SRAM6TCell
from ..errors import ReproError
from ..opt import DesignSpace, ExhaustiveOptimizer, make_policy
from ..store import payload_json_safe, result_to_payload

#: The paper's yield floor as a fraction of Vdd (delta = 0.35 * Vdd).
YIELD_FLOOR_FRACTION = 0.35


def _ok(result):
    return {"ok": True, "result": result}


def _failed(status, message):
    return {"ok": False, "status": status, "error": message}


def _finite(value):
    """Floats for JSON: non-finite values become None (strict JSON has
    no Infinity/NaN)."""
    value = float(value)
    return value if math.isfinite(value) else None


def _design_fields(design):
    return {
        "n_r": int(design.n_r),
        "n_c": int(design.n_c),
        "n_pre": int(design.n_pre),
        "n_wr": int(design.n_wr),
        "v_ddc": float(design.v_ddc),
        "v_ssc": float(design.v_ssc),
        "v_wl": float(design.v_wl),
        "v_bl": float(design.v_bl),
    }


def _metric_fields(metrics):
    return {
        "edp": _finite(metrics.edp),
        "d_array": _finite(metrics.d_array),
        "d_rd": _finite(metrics.d_rd),
        "d_wr": _finite(metrics.d_wr),
        "e_total": _finite(metrics.e_total),
        "e_sw": _finite(metrics.e_sw),
        "e_leak": _finite(metrics.e_leak),
        "rail_arrival_slack": _finite(metrics.rail_arrival_slack),
    }


def _margin_fields(margins):
    hsnm, rsnm, wm = margins
    return {"hsnm": _finite(hsnm), "rsnm": _finite(rsnm),
            "wm": _finite(wm)}


# ---------------------------------------------------------------------------
# Per-kind group execution
# ---------------------------------------------------------------------------

def _optimize_group(session, job):
    flavor = job["flavor"]
    optimizer = ExhaustiveOptimizer(
        session.model(flavor), DesignSpace(), session.constraint(flavor)
    )
    levels = session.yield_levels(flavor)
    payloads = []
    for item in job["items"]:
        perf.count("service.engine.optimize_searches")
        try:
            result = optimizer.optimize(
                item["capacity_bytes"] * 8,
                make_policy(item["method"], levels),
            )
        except ReproError as exc:
            payloads.append(_failed(422, str(exc)))
            continue
        # The response body is the experiment store's canonical cell
        # payload (json-safe copy), so a served answer, a study cell,
        # and a durable-job cell all deduplicate under one store key.
        # The exact-float original rides along for the server to
        # persist; it never reaches the wire.
        stored = result_to_payload(result)
        response = payload_json_safe(stored)
        response.pop("landscape", None)
        entry = _ok(response)
        entry["store_payload"] = stored
        payloads.append(entry)
    return payloads


def front_fields(front):
    """The serialized rows of one Pareto front, in delay order."""
    return [
        {
            "d_array": _finite(p.d_array),
            "e_total": _finite(p.e_total),
            "edp": _finite(p.edp),
            "n_r": int(p.n_r),
            "v_ssc": float(p.v_ssc),
            "n_pre": int(p.n_pre),
            "n_wr": int(p.n_wr),
        }
        for p in front
    ]


def best_weighted_fields(front_rows, energy_exponent, delay_exponent):
    """The ``E^a * D^b`` pick from *serialized* front rows.

    Plain-data twin of :func:`repro.opt.best_weighted`: it consumes the
    stored front rows directly, so the server can re-derive the pick for
    a store-served response without rebuilding optimizer objects.  Same
    floats, same first-wins ``min`` tie order.
    """
    best = min(
        front_rows,
        key=lambda row: (row["e_total"] ** energy_exponent)
        * (row["d_array"] ** delay_exponent),
    )
    return {
        "energy_exponent": float(energy_exponent),
        "delay_exponent": float(delay_exponent),
        "point": dict(best),
    }


def _pareto_group(session, job):
    flavor = job["flavor"]
    optimizer = ExhaustiveOptimizer(
        session.model(flavor), DesignSpace(), session.constraint(flavor)
    )
    levels = session.yield_levels(flavor)
    payloads = []
    for item in job["items"]:
        perf.count("service.engine.pareto_sweeps")
        policy = make_policy(item["method"], levels)
        try:
            result = optimizer.pareto(item["capacity_bytes"] * 8, policy)
        except ReproError as exc:
            payloads.append(_failed(422, str(exc)))
            continue
        # The stored payload is exponent-free: requests differing only
        # in the best_weighted exponents deduplicate to one front in
        # the experiment store, and the server re-derives the pick on
        # store hits.
        stored = {
            "capacity_bits": int(result.capacity_bits),
            "capacity_bytes": int(result.capacity_bytes),
            "flavor": flavor,
            "method": item["method"],
            "front": front_fields(result.front),
            "n_evaluated": int(result.n_evaluated),
            "n_tiles": int(result.n_tiles),
        }
        response = payload_json_safe(stored)
        response["best_weighted"] = best_weighted_fields(
            response["front"], item["energy_exponent"],
            item["delay_exponent"],
        )
        entry = _ok(response)
        entry["store_payload"] = stored
        payloads.append(entry)
    return payloads


def _yield_group(session, job):
    flavor = job["flavor"]
    payloads = []
    for item in job["items"]:
        perf.count("service.engine.yield_cells")
        try:
            from ..yields.study import compute_yield_cell

            result = compute_yield_cell(
                session, item["capacity_bytes"], flavor,
                item["method"], code=item["code"],
                y_target=item["y_target"],
                sampler=item.get("sampler", "gaussian"),
                ci_target=item.get("ci_target", 0.1),
                max_samples=item.get("max_samples", 4096),
            )
        except ReproError as exc:
            payloads.append(_failed(422, str(exc)))
            continue
        # The stored payload is the summary plus both full optima (the
        # exact-float study-cell payloads), so a served cell and a
        # bench cell deduplicate under one store key and either arm can
        # be reconstructed bit-for-bit.
        stored = dict(result.summary())
        stored["baseline_result"] = result_to_payload(result.baseline)
        stored["relaxed_result"] = result_to_payload(result.relaxed)
        entry = _ok(payload_json_safe(stored))
        entry["store_payload"] = stored
        payloads.append(entry)
    return payloads


def _evaluate_group(session, job):
    flavor = job["flavor"]
    model = session.model(flavor)
    constraint = session.constraint(flavor)
    payloads = []
    for item in job["items"]:
        design = DesignPoint(
            n_r=item["n_r"], n_c=item["n_c"],
            n_pre=item["n_pre"], n_wr=item["n_wr"],
            v_ddc=item["v_ddc"], v_ssc=item["v_ssc"],
            v_wl=item["v_wl"], v_bl=item["v_bl"],
        )
        capacity_bits = design.n_r * design.n_c
        perf.count("service.engine.evaluations")
        try:
            metrics = model.evaluate(capacity_bits, design)
            margins = constraint.margins(
                design.v_ddc, design.v_ssc, design.v_wl, design.v_bl
            )
            yield_ok = bool(constraint.satisfied(
                design.v_ddc, design.v_ssc, design.v_wl, design.v_bl
            ))
        except ReproError as exc:
            payloads.append(_failed(422, str(exc)))
            continue
        payloads.append(_ok({
            "capacity_bits": capacity_bits,
            "flavor": flavor,
            "design": _design_fields(design),
            "metrics": _metric_fields(metrics),
            "margins": _margin_fields(margins),
            "yield_ok": yield_ok,
        }))
    return payloads


def _montecarlo_payload(result, item, flavor, metrics, floor):
    summary = {}
    for name in metrics:
        samples = result.metric(name)
        summary[name] = {
            "mean": samples.mean,
            "sigma": samples.sigma,
            "mu_minus_3sigma": samples.mu_minus_k_sigma(3.0),
            "yield_at_floor": samples.yield_at(floor),
        }
    payload = {
        "flavor": flavor,
        "n": result.n_samples,
        "seed": item["seed"],
        "floor": floor,
        "metrics": summary,
    }
    if len(metrics) > 1:
        payload["joint_yield_at_floor"] = result.worst_case_yield(floor)
    if item.get("include_samples"):
        payload["samples"] = {
            name: [float(v) for v in result.metric(name).values]
            for name in metrics
        }
    return payload


def _montecarlo_group(session, job):
    flavor = job["flavor"]
    metrics = tuple(job["metrics"])
    cell = SRAM6TCell.from_library(session.library, flavor)
    vdd = session.library.vdd
    floor = YIELD_FLOOR_FRACTION * vdd
    items = job["items"]

    def solve(specs):
        """One batched solve; a failure fills every slot."""
        try:
            return run_cell_montecarlo_multi(cell, specs, vdd=vdd,
                                             metrics=metrics)
        except ReproError as exc:
            return [exc] * len(specs)

    # The whole batch in one vectorized solve; per-request results stay
    # bit-identical to separate calls (lane-independent solvers).
    specs = [(item["n"], item["seed"]) for item in items]
    results = solve(specs)
    if len(specs) > 1:
        if isinstance(results[0], ReproError):
            # One pathological draw must not fail its batch-mates.
            results = [solve([spec])[0] for spec in specs]
        else:
            perf.count("service.engine.mc_coalesced_batches")
    payloads = []
    for item, result in zip(items, results):
        if isinstance(result, ReproError):
            payloads.append(_failed(422, str(result)))
        else:
            payloads.append(_ok(_montecarlo_payload(
                result, item, flavor, metrics, floor
            )))
    perf.count("service.engine.mc_runs", len(items))
    return payloads


_EXECUTORS = {
    "optimize": _optimize_group,
    "pareto": _pareto_group,
    "yield": _yield_group,
    "evaluate": _evaluate_group,
    "montecarlo": _montecarlo_group,
}

#: The kinds with a batched kernel: their requests coalesce behind an
#: in-flight dispatch of their group.  Every other kind loops over its
#: items one by one, so it dispatches alone, at once.
COALESCING_KINDS = frozenset({"montecarlo"})


def execute_job(session, job):
    """Run one batch job against a session; one payload per item."""
    executor = _EXECUTORS.get(job["kind"])
    if executor is None:
        raise ValueError("unknown job kind %r" % (job["kind"],))
    with perf.timed("service.job.%s" % job["kind"]):
        return executor(session, job)


# ---------------------------------------------------------------------------
# Process-pool plumbing (the study runner's worker machinery)
# ---------------------------------------------------------------------------

def run_job_in_worker(job):
    """Process-pool entry: execute against the worker's session and
    return ``(payloads, perf_snapshot)`` — the snapshot is this job's
    telemetry delta, merged into the server's ``/metrics``."""
    return perf.snapshot_call(execute_job,
                              study_runner._WORKER_STATE["session"], job)
