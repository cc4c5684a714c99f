"""Request schemas for the optimization service.

Every POST endpoint's JSON body is normalized into a frozen request
dataclass here, *before* any caching or batching decision:

* ``key()`` — the canonical identity of the request (route plus the
  normalized fields, serialized deterministically).  The result cache
  and the singleflight table key on it, so two bodies that differ only
  in field order or omitted defaults share one computation.
* ``group_key()`` — the batching compatibility class.  Requests in the
  same group may ride in one worker dispatch (and, for Monte Carlo,
  coalesce into one batched solve); requests in different groups never
  mix.

Validation failures raise :class:`BadRequest`, which the server maps to
an HTTP 400 with the message in the body.  Fields a schema does not
name are ignored — among them the ``engine`` that older clients still
send to the search and Monte Carlo routes, whatever its value.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import json
import math

from ..errors import ReproError

FLAVORS = ("lvt", "hvt")
METHODS = ("M1", "M2")
MC_METRICS = ("hsnm", "rsnm", "wm")

#: Largest accepted Monte Carlo draw per request (keeps one request from
#: monopolizing a worker; callers needing more shard across requests).
MAX_MC_SAMPLES = 100_000


class BadRequest(ReproError):
    """The request body failed validation (HTTP 400)."""


def _require(body, field, kind, default=None):
    value = body.get(field, default)
    if value is None:
        raise BadRequest("missing required field %r" % field)
    if kind is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:
            value = math.inf        # rejected as non-finite below
    if kind is int and isinstance(value, bool):
        raise BadRequest("field %r must be an integer" % field)
    if not isinstance(value, kind):
        raise BadRequest(
            "field %r must be %s, got %r"
            % (field, kind.__name__, type(value).__name__)
        )
    # Python's json parses NaN and Infinity; no engine input may be
    # either.
    if kind is float and not math.isfinite(value):
        raise BadRequest("field %r must be finite, got %r"
                         % (field, value))
    return value


def _choice(body, field, choices, default):
    value = body.get(field, default)
    if value not in choices:
        raise BadRequest(
            "field %r must be one of %s, got %r"
            % (field, "/".join(choices), value)
        )
    return value


def _canonical(route, fields):
    return route + "?" + json.dumps(fields, sort_keys=True)


@dataclass(frozen=True)
class OptimizeRequest:
    """``POST /v1/optimize`` — min-EDP design for one capacity."""

    capacity_bytes: int
    flavor: str
    method: str

    @classmethod
    def parse(cls, body):
        capacity = _require(body, "capacity_bytes", int)
        if capacity <= 0 or capacity & (capacity - 1):
            raise BadRequest(
                "capacity_bytes must be a positive power of two, got %d"
                % capacity
            )
        return cls(
            capacity_bytes=capacity,
            flavor=_choice(body, "flavor", FLAVORS, "hvt"),
            method=_choice(body, "method", METHODS, "M2"),
        )

    def key(self):
        return _canonical("/v1/optimize", asdict(self))

    def group_key(self):
        """Same-flavor searches share one warm dispatch; the capacity
        and method ride per-item."""
        return ("optimize", self.flavor)

    def item(self):
        return {"capacity_bytes": self.capacity_bytes,
                "method": self.method}


@dataclass(frozen=True)
class ParetoRequest:
    """``POST /v1/pareto`` — energy-delay Pareto front for one capacity.

    The ``energy_exponent`` / ``delay_exponent`` pair parameterizes the
    ``best_weighted`` pick (``E^a * D^b``) *on top of* the front; they
    are deliberately excluded from the batch item and the store payload,
    so requests differing only in exponents share one sweep and one
    stored front.
    """

    capacity_bytes: int
    flavor: str
    method: str
    energy_exponent: float
    delay_exponent: float

    @classmethod
    def parse(cls, body):
        capacity = _require(body, "capacity_bytes", int)
        if capacity <= 0 or capacity & (capacity - 1):
            raise BadRequest(
                "capacity_bytes must be a positive power of two, got %d"
                % capacity
            )

        def exponent(field):
            value = _require(body, field, float, default=1.0)
            if value <= 0.0:
                raise BadRequest(
                    "field %r must be a finite positive number, got %r"
                    % (field, value)
                )
            return float(value)

        return cls(
            capacity_bytes=capacity,
            flavor=_choice(body, "flavor", FLAVORS, "hvt"),
            method=_choice(body, "method", METHODS, "M2"),
            energy_exponent=exponent("energy_exponent"),
            delay_exponent=exponent("delay_exponent"),
        )

    def key(self):
        return _canonical("/v1/pareto", asdict(self))

    def group_key(self):
        """Same-flavor sweeps share one warm dispatch (mirrors the
        optimize group)."""
        return ("pareto", self.flavor)

    def item(self):
        return {"capacity_bytes": self.capacity_bytes,
                "method": self.method,
                "energy_exponent": self.energy_exponent,
                "delay_exponent": self.delay_exponent}


@dataclass(frozen=True)
class YieldRequest:
    """``POST /v1/yield`` — one ECC-relaxed yield study cell.

    Runs the fixed-delta baseline search *and* the margin-relaxed
    search under ``code`` at array yield target ``y_target``
    (:func:`repro.yields.study.compute_yield_cell`), returning both
    optima, the relaxed floor and sensing window, and the composed
    array yield at the relaxed optimum.
    """

    capacity_bytes: int
    flavor: str
    method: str
    code: str
    y_target: float
    #: Margin-floor relaxation estimator: "gaussian" (closed form) or
    #: a rare-event sampler (repro.cell.importance.SAMPLERS).
    sampler: str = "gaussian"
    ci_target: float = 0.1
    max_samples: int = 4096

    @classmethod
    def parse(cls, body):
        capacity = _require(body, "capacity_bytes", int)
        if capacity <= 0 or capacity & (capacity - 1):
            raise BadRequest(
                "capacity_bytes must be a positive power of two, got %d"
                % capacity
            )
        code = _require(body, "code", str, default="secded")
        from ..errors import DesignSpaceError
        from ..yields.ecc import make_code

        try:
            code = make_code(code, 64).name
        except DesignSpaceError as exc:
            raise BadRequest(str(exc)) from exc
        y_target = _require(body, "y_target", float, default=0.9)
        if not 0.0 < y_target < 1.0:
            raise BadRequest(
                "y_target must be in (0, 1), got %r" % (y_target,)
            )
        from ..cell.importance import BLOCK, SAMPLERS

        sampler = _choice(body, "sampler", ("gaussian",) + SAMPLERS,
                          "gaussian")
        ci_target = _require(body, "ci_target", float, default=0.1)
        if not 0.0 < ci_target < 1.0:
            raise BadRequest(
                "ci_target must be in (0, 1), got %r" % (ci_target,)
            )
        max_samples = _require(body, "max_samples", int, default=4096)
        if not 2 * BLOCK <= max_samples <= MAX_MC_SAMPLES:
            raise BadRequest(
                "max_samples must be in %d..%d, got %d"
                % (2 * BLOCK, MAX_MC_SAMPLES, max_samples)
            )
        return cls(
            capacity_bytes=capacity,
            flavor=_choice(body, "flavor", FLAVORS, "hvt"),
            method=_choice(body, "method", METHODS, "M2"),
            code=code,
            y_target=float(y_target),
            sampler=sampler,
            ci_target=float(ci_target),
            max_samples=int(max_samples),
        )

    def key(self):
        return _canonical("/v1/yield", asdict(self))

    def group_key(self):
        """Same-flavor study cells share one warm dispatch (mirrors the
        optimize/pareto groups)."""
        return ("yield", self.flavor)

    def item(self):
        return {"capacity_bytes": self.capacity_bytes,
                "method": self.method,
                "code": self.code,
                "y_target": self.y_target,
                "sampler": self.sampler,
                "ci_target": self.ci_target,
                "max_samples": self.max_samples}


@dataclass(frozen=True)
class EvaluateRequest:
    """``POST /v1/evaluate`` — metrics of one explicit design point."""

    flavor: str
    n_r: int
    n_c: int
    n_pre: int
    n_wr: int
    v_ddc: float
    v_ssc: float
    v_wl: float
    v_bl: float

    @classmethod
    def parse(cls, body):
        design = body.get("design")
        if not isinstance(design, dict):
            raise BadRequest("missing required object field 'design'")
        request = cls(
            flavor=_choice(body, "flavor", FLAVORS, "hvt"),
            n_r=_require(design, "n_r", int),
            n_c=_require(design, "n_c", int),
            n_pre=_require(design, "n_pre", int),
            n_wr=_require(design, "n_wr", int),
            v_ddc=_require(design, "v_ddc", float),
            v_ssc=_require(design, "v_ssc", float, default=0.0),
            v_wl=_require(design, "v_wl", float),
            v_bl=_require(design, "v_bl", float, default=0.0),
        )
        for field in ("n_r", "n_c", "n_pre", "n_wr"):
            if getattr(request, field) <= 0:
                raise BadRequest("design.%s must be positive" % field)
        return request

    def key(self):
        return _canonical("/v1/evaluate", asdict(self))

    def group_key(self):
        """One flavor's model evaluations share a dispatch."""
        return ("evaluate", self.flavor)

    def item(self):
        fields = asdict(self)
        fields.pop("flavor")
        return fields


@dataclass(frozen=True)
class MonteCarloRequest:
    """``POST /v1/montecarlo`` — cell margin distributions."""

    flavor: str
    n: int
    seed: int
    metrics: tuple
    include_samples: bool

    @classmethod
    def parse(cls, body):
        n = _require(body, "n", int)
        if not 0 < n <= MAX_MC_SAMPLES:
            raise BadRequest(
                "n must be in 1..%d, got %d" % (MAX_MC_SAMPLES, n)
            )
        metrics = body.get("metrics", ["hsnm", "rsnm"])
        if isinstance(metrics, str):
            metrics = [m.strip() for m in metrics.split(",") if m.strip()]
        if (not isinstance(metrics, list) or not metrics
                or any(m not in MC_METRICS for m in metrics)):
            raise BadRequest(
                "metrics must be a non-empty subset of %s"
                % "/".join(MC_METRICS)
            )
        # Canonical metric order makes equivalent requests share a key.
        metrics = tuple(m for m in MC_METRICS if m in metrics)
        include = body.get("include_samples", False)
        if not isinstance(include, bool):
            raise BadRequest("include_samples must be a boolean")
        seed = _require(body, "seed", int, default=0)
        if seed < 0:
            raise BadRequest("seed must be >= 0, got %d" % seed)
        return cls(
            flavor=_choice(body, "flavor", FLAVORS, "hvt"),
            n=n,
            seed=seed,
            metrics=metrics,
            include_samples=include,
        )

    def key(self):
        fields = asdict(self)
        fields["metrics"] = list(self.metrics)
        return _canonical("/v1/montecarlo", fields)

    def group_key(self):
        """Same flavor/metrics draws coalesce into one batched solve
        (the lane-independent solvers keep per-request results
        bit-identical; see
        :func:`repro.cell.montecarlo.run_cell_montecarlo_multi`)."""
        return ("montecarlo", self.flavor, self.metrics)

    def item(self):
        return {"n": self.n, "seed": self.seed,
                "include_samples": self.include_samples}


#: Route -> parser for the POST API endpoints.
PARSERS = {
    "/v1/optimize": OptimizeRequest.parse,
    "/v1/pareto": ParetoRequest.parse,
    "/v1/yield": YieldRequest.parse,
    "/v1/evaluate": EvaluateRequest.parse,
    "/v1/montecarlo": MonteCarloRequest.parse,
}


def parse_request(route, body):
    """Normalize one POST body; raises :class:`BadRequest`."""
    parser = PARSERS.get(route)
    if parser is None:
        raise BadRequest("unknown route %r" % route)
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    return parser(body)
