"""Span tracing of the program's layers, installed from outside it.

:func:`install` imports every ``repro`` module and replaces the public
functions at each layer boundary with wrappers that record one span per
call -- name, start, end and the span that caused it -- in memory.
Modules import these functions by name, so a wrapper replaces every
``repro`` module attribute that holds the original, not only the one
in the defining module.  The hottest boundary, the compact device
model, only counts calls.  :meth:`Tracer.dump` writes everything out
when the traced process ends; :func:`layer_metrics` turns a dump into
the per-layer metrics, with each span's *self* time: its duration
minus the time its child spans cover.

Service spans carry the request's ``X-Request-Id``: the HTTP read and
write spans and the enqueue span name it, and each ``execute_job`` span
lists the ids of the batch items it ran (an item keeps its id from
enqueue until dispatch).
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import functools
import importlib
import itertools
import json
import os
import pkgutil
import sys
import time

import numpy as np

from common import OUT_DIR

#: Per-layer metrics and their units (``--trace 1`` prints all of them;
#: a layer the workload does not exercise reads 0).
LAYER_UNITS = {
    "trace.overhead_pct": "%",
    "spice.transient_s": "s",
    "spice.transient_steps": "count",
    "spice.batch_transient_s": "s",
    "spice.batch_transient_steps": "count",
    "spice.dc_s": "s",
    "spice.dc_solves": "count",
    "spice.dc_newton_iters": "count",
    "devices.evals": "count",
    "devices.eval_lanes": "count",
    "cell.write_s": "s",
    "cell.read_grid_s": "s",
    "cell.snm_s": "s",
    "cell.snm_calls": "count",
    "cell.montecarlo_s": "s",
    "cell.mc_samples": "count",
    "periphery.gates_s": "s",
    "periphery.gate_fits": "count",
    "periphery.other_s": "s",
    "lut.load_s": "s",
    "lut.hits": "count",
    "lut.misses": "count",
    "lut.flush_s": "s",
    "lut.bytes_written": "bytes",
    "array.evaluate_s": "s",
    "array.evaluate_calls": "count",
    "array.points": "count",
    "array.bounds_s": "s",
    "opt.search_s": "s",
    "opt.searches": "count",
    "opt.points_evaluated": "count",
    "opt.evaluated_fraction": "1",
    "opt.margins_s": "s",
    "yields.cell_s": "s",
    "yields.levels_s": "s",
    "yields.sigma_s": "s",
    "yields.sigma_solves": "count",
    "yields.sigma_unique_ratio": "1",
    "analysis.session_s": "s",
    "analysis.run_study_s": "s",
    "jobs.queue_s": "s",
    "jobs.queue_ops": "count",
    "store.put_s": "s",
    "store.puts": "count",
    "store.get_s": "s",
    "store.gets": "count",
    "store.hit_ratio": "1",
    "service.http_s": "s",
    "service.queue_wait_ms": "ms",
    "service.execute_s": "s",
    "service.batch_size_mean": "items",
    "service.cache_hit_ratio": "1",
    "service.coalesced": "count",
    "service.rejected": "count",
}

#: What the per-layer metrics cannot see from outside the program.
BLIND_SPOTS = (
    "spice.dc_newton_iters counts scalar solves only: the lane-batched "
    "solve_from_batch / operating_point_batch return no iteration count",
    "spice.*_steps count recorded time points, i.e. accepted steps",
)


def trace_path(workload):
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, "trace-%s.json" % workload)


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------

class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []            # (id, parent, name, start, end, attrs)
        self.counters = dict.fromkeys(
            ("devices.evals", "devices.eval_lanes", "lut.hits",
             "lut.misses", "service.cache_gets", "service.cache_hits",
             "service.coalesced", "service.rejected"), 0)
        self.current = contextvars.ContextVar("perfbench_span",
                                              default=None)
        self.suspended = contextvars.ContextVar("perfbench_off",
                                                default=False)
        self.enqueued = {}         # id(batch item) -> (time, request id)
        self._ids = itertools.count(1)

    def wrap(self, name, fn, attrs=None, before=None):
        """A recording wrapper.  ``before(args, kwargs)`` runs ahead of
        the call; ``attrs(args, kwargs, result, before_value)`` after
        it, and returns the span's attributes (default: the value
        ``before`` returned)."""
        current, spans, ids = self.current, self.spans, self._ids
        suspended, clock = self.suspended, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if suspended.get():
                return fn(*args, **kwargs)
            sid, parent = next(ids), current.get()
            pre = before(args, kwargs) if before is not None else None
            token = current.set(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, start, clock(), pre))
                raise
            finally:
                current.reset(token)
            end = clock()
            extra = attrs(args, kwargs, result, pre) if attrs else pre
            spans.append((sid, parent, name, start, end, extra))
            return result

        return wrapper

    def wrap_async(self, name, fn, attrs):
        """:meth:`wrap` for a coroutine function."""
        current, spans, ids = self.current, self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sid, parent = next(ids), current.get()
            token = current.set(sid)
            start = clock()
            try:
                result = await fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, start, clock(), None))
                raise
            finally:
                current.reset(token)
            end = clock()
            spans.append((sid, parent, name, start, end,
                          attrs(args, kwargs, result, None)))
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": self.counters},
                      handle)


_ACTIVE = []


@contextlib.contextmanager
def untraced():
    """Calls made inside run unrecorded (the benchmark's own checks)."""
    if not _ACTIVE:
        yield
        return
    token = _ACTIVE[0].suspended.set(True)
    try:
        yield
    finally:
        _ACTIVE[0].suspended.reset(token)


# ---------------------------------------------------------------------------
# Span attributes per boundary
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name):
    """A call's argument by position or keyword (None when omitted)."""
    return args[index] if len(args) > index else kwargs.get(name)


def _design_points(args, kwargs, result, pre):
    design = _arg(args, kwargs, 2, "design")
    shape = np.broadcast_shapes(*(
        np.shape(getattr(design, f.name))
        for f in dataclasses.fields(design)))
    return {"points": int(np.prod(shape))}


def _search_points(args, kwargs, result, pre):
    optimizer, bits = args[0], _arg(args, kwargs, 1, "capacity_bits")
    if isinstance(result, list):
        policies = _arg(args, kwargs, 2, "policies")
    else:
        policies, result = [_arg(args, kwargs, 2, "policy")], [result]
    space = optimizer.space
    per_policy = (len(space.row_counts(bits)) * space.n_pre_max
                  * space.n_wr_max)
    return {"evaluated": sum(r.n_evaluated for r in result),
            "space": sum(per_policy * len(p.v_ssc_candidates(space))
                         for p in policies)}


def _steps(result):
    return len(result.times) - 1


def _lanes(args, kwargs, result, pre):
    return {"solves": int(np.shape(result)[1])}


def _file_state(args, kwargs):
    try:
        info = os.stat(args[0].path)
    except (OSError, TypeError):
        return None
    return (info.st_ino, info.st_mtime_ns, info.st_size)


def _flush_attrs(args, kwargs, result, before):
    after = _file_state(args, kwargs)
    wrote = after is not None and after != before
    return {"bytes": after[2] if wrote else 0}


def install():
    """Import every ``repro`` module and wrap its layer boundaries."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    tracer = Tracer()
    _ACTIVE.append(tracer)
    functions = {}     # id(original) -> (original, wrapper)

    def function(module, attr, name, attrs=None, before=None):
        original = getattr(sys.modules[module], attr)
        functions[id(original)] = (
            original, tracer.wrap(name, original, attrs, before))

    def method(cls, attr, name, attrs=None, before=None):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(
                name, original.__func__, attrs, before)))
        else:
            setattr(cls, attr, tracer.wrap(name, original, attrs, before))

    from repro.analysis.experiments import Session
    from repro.array.model import SRAMArrayModel
    from repro.jobs.queue import JobQueue
    from repro.lut.cache import CharacterizationCache
    from repro.opt.constraints import YieldConstraint, YieldTargetConstraint
    from repro.opt.exhaustive import ExhaustiveOptimizer
    from repro.service import http
    from repro.store.store import ExperimentStore

    # repro.spice -- transients; every DC/Newton solve, including the
    # per-step solves inside a transient, is a spice.dc child span.
    function("repro.spice.transient", "transient", "spice.transient",
             lambda a, k, r, p: {"steps": _steps(r)})
    function("repro.spice.batch", "transient_batch",
             "spice.batch_transient",
             lambda a, k, r, p: {"steps": max(map(_steps, r), default=0)})
    function("repro.spice.dc", "operating_point", "spice.dc",
             lambda a, k, r, p: {"solves": 1, "iters": r.iterations})
    function("repro.spice.dc", "solve_from", "spice.dc",
             lambda a, k, r, p: {"solves": 1, "iters": r[1]})
    function("repro.spice.dc", "dc_sweep", "spice.dc")
    function("repro.spice.batch", "operating_point_batch", "spice.dc",
             _lanes)
    function("repro.spice.batch", "solve_from_batch", "spice.dc", _lanes)
    # repro.cell
    for module, attr in (("write", "flip_wordline_voltage"),
                         ("write", "flip_wordline_voltage_batch"),
                         ("write_delay", "cell_write_event"),
                         ("write_delay", "cell_write_event_batch")):
        function("repro.cell." + module, attr, "cell.write")
    function("repro.cell.read_current", "read_current_grid",
             "cell.read_grid")
    function("repro.cell.snm", "butterfly", "cell.snm")
    function("repro.cell.snm", "snm_samples", "cell.snm")
    function("repro.cell.montecarlo", "run_cell_montecarlo",
             "cell.montecarlo",
             lambda a, k, r, p: {"samples": r.n_samples})
    function("repro.cell.montecarlo", "run_cell_montecarlo_multi",
             "cell.montecarlo",
             lambda a, k, r, p: {"samples": sum(x.n_samples for x in r)})
    # repro.periphery
    function("repro.periphery.gates", "characterize_inverter",
             "periphery.gates")
    function("repro.periphery.gates", "characterize_nand",
             "periphery.gates")
    function("repro.periphery.senseamp", "characterize_senseamp",
             "periphery.other")
    function("repro.periphery.writebuffer", "characterize_i_on_tg",
             "periphery.other")
    function("repro.periphery.characterize",
             "characterize_write_delay_scale", "periphery.other")
    # repro.lut
    method(CharacterizationCache, "__init__", "lut.load")
    method(CharacterizationCache, "flush", "lut.flush", _flush_attrs,
           _file_state)
    # repro.analysis, repro.yields
    method(Session, "create", "analysis.session")
    function("repro.analysis.runner", "run_study", "analysis.run_study")
    function("repro.yields.study", "compute_yield_cell", "yields.cell")
    function("repro.yields.study", "relaxed_yield_levels",
             "yields.levels")
    method(YieldTargetConstraint, "min_margin_stats", "yields.sigma",
           before=lambda a, k: {"rails": [
               a[0].flavor, round(_arg(a, k, 1, "v_ddc"), 4),
               round(_arg(a, k, 2, "v_ssc"), 4)]})
    # repro.array, repro.opt
    method(SRAMArrayModel, "evaluate", "array.evaluate", _design_points)
    method(SRAMArrayModel, "evaluate_bounds", "array.bounds")
    for attr in ("optimize", "optimize_many", "pareto"):
        method(ExhaustiveOptimizer, attr, "opt.search", _search_points)
    method(YieldConstraint, "margins_grid", "opt.margins")
    # repro.jobs, repro.store
    for attr in ("submit", "claim", "heartbeat", "complete"):
        method(JobQueue, attr, "jobs.queue")
    method(ExperimentStore, "put", "store.put")
    method(ExperimentStore, "get", "store.get",
           lambda a, k, r, p: {"hit": r is not None})
    method(ExperimentStore, "has", "store.get",
           lambda a, k, r, p: {"hit": bool(r)})
    # repro.service
    functions[id(http.read_request)] = (http.read_request, tracer.wrap_async(
        "service.http_read", http.read_request,
        lambda a, k, r, p: {"rid": r.headers.get("x-request-id")
                            if r is not None else None}))
    functions[id(http.write_response)] = (
        http.write_response, tracer.wrap_async(
            "service.http_write", http.write_response,
            lambda a, k, r, p: {"rid": (_arg(a, k, 3, "extra_headers")
                                        or {}).get("X-Request-Id")}))
    function("repro.service.engines", "execute_job", "service.execute",
             before=_execute_before(tracer))
    _count_boundaries(tracer)

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            entry = functions.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
    return tracer


def _execute_before(tracer):
    """Each batch item's wait from enqueue to ``execute_job``, and the
    request ids the batch carries."""
    def before(args, kwargs):
        now = time.perf_counter()
        waits, rids = [], []
        for item in _arg(args, kwargs, 1, "job")["items"]:
            enqueued, rid = tracer.enqueued.pop(id(item), (None, None))
            if enqueued is not None:
                waits.append(now - enqueued)
                rids.append(rid)
        return {"items": len(waits), "waits": waits, "rids": rids}
    return before


def _count_boundaries(tracer):
    """Counting-only wrappers (no spans) and the enqueue hook."""
    from repro.devices.model import FinFET
    from repro.lut.cache import CharacterizationCache
    from repro.service.batching import BatchQueue, QueueFull
    from repro.service.cache import ResultCache, Singleflight

    counters = tracer.counters
    evaluate = FinFET.current_and_derivatives

    @functools.wraps(evaluate)
    def current_and_derivatives(self, vg, vd, vs):
        out = evaluate(self, vg, vd, vs)
        counters["devices.evals"] += 1
        counters["devices.eval_lanes"] += np.size(out[0])
        return out

    FinFET.current_and_derivatives = current_and_derivatives

    contains = CharacterizationCache.__contains__
    get_or_compute = CharacterizationCache.get_or_compute

    def lookup(self, key):
        hit = contains(self, key)
        counters["lut.hits" if hit else "lut.misses"] += 1
        return hit

    @functools.wraps(get_or_compute)
    def get_or_compute_wrapper(self, key, compute):
        lookup(self, key)
        return get_or_compute(self, key, compute)

    CharacterizationCache.__contains__ = lookup
    CharacterizationCache.get_or_compute = get_or_compute_wrapper

    cache_get = ResultCache.get

    @functools.wraps(cache_get)
    def cache_get_wrapper(self, key):
        hit, value = cache_get(self, key)
        counters["service.cache_gets"] += 1
        counters["service.cache_hits"] += bool(hit)
        return hit, value

    ResultCache.get = cache_get_wrapper

    join = Singleflight.join

    @functools.wraps(join)
    def join_wrapper(self, key, loop=None):
        future, leader = join(self, key, loop)
        counters["service.coalesced"] += not leader
        return future, leader

    Singleflight.join = join_wrapper

    def note_enqueue(args, kwargs):
        item = _arg(args, kwargs, 2, "item")
        tracer.enqueued[id(item)] = (time.perf_counter(),
                                     item.get("_request_id"))
        return {"rid": item.get("_request_id")}

    enqueue = tracer.wrap("service.enqueue", BatchQueue.enqueue,
                          before=note_enqueue)

    @functools.wraps(BatchQueue.enqueue)
    def enqueue_wrapper(self, group_key, item):
        try:
            return enqueue(self, group_key, item)
        except QueueFull:
            counters["service.rejected"] += 1
            tracer.enqueued.pop(id(item), None)
            raise

    BatchQueue.enqueue = enqueue_wrapper


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def load_spans(path):
    with open(path) as handle:
        return json.load(handle)


def layer_metrics(dump, request_sent=None):
    """Per-layer metrics from one traced process's dump.

    ``request_sent`` maps request ids to the load generator's send
    times: an HTTP read span starts when the server begins waiting for
    the connection's next request, so it is clipped to start no earlier
    than that request was sent (client and server share the monotonic
    clock).
    """
    spans = dump["spans"]
    request_sent = request_sent or {}
    duration, covered = {}, {}
    for sid, parent, name, start, end, attrs in spans:
        if name == "service.http_read" and attrs:
            start = max(start, request_sent.get(attrs["rid"], start))
        duration[sid] = end - start
    for sid, parent, name, start, end, attrs in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + duration[sid]
    self_s, calls, totals, by_name = {}, {}, {}, {}
    for sid, parent, name, start, end, attrs in spans:
        self_s[name] = self_s.get(name, 0.0) + max(
            duration[sid] - covered.get(sid, 0.0), 0.0)
        calls[name] = calls.get(name, 0) + 1
        by_name.setdefault(name, []).append((sid, attrs or {}))
        for key, value in (attrs or {}).items():
            if isinstance(value, (int, float)):
                totals[(name, key)] = totals.get((name, key), 0) + value

    def total(name, key):
        return totals.get((name, key), 0)

    def ratio(num, den):
        return num / den if den else 0.0

    counters = dump["counters"]
    snm_parents = {parent for _, parent, name, _, _, _ in spans
                   if name == "cell.snm"}
    solves = [tuple(attrs["rails"]) for sid, attrs
              in by_name.get("yields.sigma", []) if sid in snm_parents]
    waits = [w for _, attrs in by_name.get("service.execute", [])
             for w in attrs.get("waits", [])]
    metrics = {
        "spice.transient_s": self_s.get("spice.transient", 0.0),
        "spice.transient_steps": total("spice.transient", "steps"),
        "spice.batch_transient_s": self_s.get("spice.batch_transient", 0.0),
        "spice.batch_transient_steps": total("spice.batch_transient",
                                             "steps"),
        "spice.dc_s": self_s.get("spice.dc", 0.0),
        "spice.dc_solves": total("spice.dc", "solves"),
        "spice.dc_newton_iters": total("spice.dc", "iters"),
        "devices.evals": counters["devices.evals"],
        "devices.eval_lanes": counters["devices.eval_lanes"],
        "cell.write_s": self_s.get("cell.write", 0.0),
        "cell.read_grid_s": self_s.get("cell.read_grid", 0.0),
        "cell.snm_s": self_s.get("cell.snm", 0.0),
        "cell.snm_calls": calls.get("cell.snm", 0),
        "cell.montecarlo_s": self_s.get("cell.montecarlo", 0.0),
        "cell.mc_samples": total("cell.montecarlo", "samples"),
        "periphery.gates_s": self_s.get("periphery.gates", 0.0),
        "periphery.gate_fits": calls.get("periphery.gates", 0),
        "periphery.other_s": self_s.get("periphery.other", 0.0),
        "lut.load_s": self_s.get("lut.load", 0.0),
        "lut.hits": counters["lut.hits"],
        "lut.misses": counters["lut.misses"],
        "lut.flush_s": self_s.get("lut.flush", 0.0),
        "lut.bytes_written": total("lut.flush", "bytes"),
        "array.evaluate_s": self_s.get("array.evaluate", 0.0),
        "array.evaluate_calls": calls.get("array.evaluate", 0),
        "array.points": total("array.evaluate", "points"),
        "array.bounds_s": self_s.get("array.bounds", 0.0),
        "opt.search_s": self_s.get("opt.search", 0.0),
        "opt.searches": calls.get("opt.search", 0),
        "opt.points_evaluated": total("opt.search", "evaluated"),
        "opt.evaluated_fraction": ratio(total("opt.search", "evaluated"),
                                        total("opt.search", "space")),
        "opt.margins_s": self_s.get("opt.margins", 0.0),
        "yields.cell_s": self_s.get("yields.cell", 0.0),
        "yields.levels_s": self_s.get("yields.levels", 0.0),
        "yields.sigma_s": self_s.get("yields.sigma", 0.0),
        "yields.sigma_solves": len(solves),
        "yields.sigma_unique_ratio": ratio(len(set(solves)), len(solves)),
        "analysis.session_s": self_s.get("analysis.session", 0.0),
        "analysis.run_study_s": self_s.get("analysis.run_study", 0.0),
        "jobs.queue_s": self_s.get("jobs.queue", 0.0),
        "jobs.queue_ops": calls.get("jobs.queue", 0),
        "store.put_s": self_s.get("store.put", 0.0),
        "store.puts": calls.get("store.put", 0),
        "store.get_s": self_s.get("store.get", 0.0),
        "store.gets": calls.get("store.get", 0),
        "store.hit_ratio": ratio(total("store.get", "hit"),
                                 calls.get("store.get", 0)),
        "service.http_s": (self_s.get("service.http_read", 0.0)
                           + self_s.get("service.http_write", 0.0)),
        "service.queue_wait_ms": ratio(sum(waits), len(waits)) * 1e3,
        "service.execute_s": self_s.get("service.execute", 0.0),
        "service.batch_size_mean": ratio(
            total("service.execute", "items"),
            calls.get("service.execute", 0)),
        "service.cache_hit_ratio": ratio(counters["service.cache_hits"],
                                         counters["service.cache_gets"]),
        "service.coalesced": counters["service.coalesced"],
        "service.rejected": counters["service.rejected"],
    }
    return {name: float(value) for name, value in metrics.items()}
