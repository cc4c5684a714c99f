"""Content-addressed experiment store (stdlib SQLite + JSON).

Identity
--------

A stored result is addressed by :func:`canonical_key`: a SHA-256 over
the canonical JSON serialization of every input that determines the
result.  For one study-matrix cell that is the design space, the
resolved :class:`~repro.opt.methods.VoltagePolicy` (which already bakes
in the flavor's yield levels and rail consolidation), the
yield-constraint configuration, the capacity, and
:data:`ENGINE_VERSION`.  Two callers asking for the same physics get
the same key — the study runner, a durable job, the optimization
service, and the CLI all deduplicate against one table.

Exactness
---------

Payloads are stored as JSON text.  Python's ``json`` serializes floats
via ``repr`` (shortest round trip), so every float read back compares
*bitwise equal* to the float written — the property the resumable job
runner leans on when it promises a resumed sweep is indistinguishable
from an uninterrupted one.

Concurrency
-----------

Every public operation opens a short-lived connection in WAL mode, so
any number of worker processes and service threads can read and write
one store file; ``put`` is idempotent (``INSERT OR REPLACE`` of an
identical payload).
"""

from __future__ import annotations

import getpass
import hashlib
import json
import math
import os
import socket
import sqlite3
import subprocess
import time
from contextlib import contextmanager
from dataclasses import asdict

from .. import __version__, perf
from ..array.model import ArrayMetrics, DesignPoint
from ..opt.results import LandscapePoint, OptimizationResult

#: Bump when the stored payload layout or the engine semantics change;
#: part of every key, so stale results can never shadow fresh ones.
STORE_SCHEMA = 1

#: The engine identity baked into every key.
ENGINE_VERSION = "repro-%s" % __version__

#: Scalar ArrayMetrics fields serialized into a cell payload.
METRIC_FIELDS = ("d_rd", "d_wr", "d_array", "e_sw_rd", "e_sw_wr",
                 "e_sw", "e_leak", "e_total", "edp",
                 "rail_arrival_slack", "aspect_ratio")


# ---------------------------------------------------------------------------
# Canonical keys
# ---------------------------------------------------------------------------

def _canonical_json(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def canonical_key(kind, fields):
    """``kind-<sha256>`` over the canonical JSON of ``fields``.

    ``fields`` must be plain data (dicts/lists/str/int/float/bool/None);
    key order and float spelling cannot change the digest because the
    serialization is canonical (sorted keys, shortest-repr floats).
    """
    digest = hashlib.sha256(
        _canonical_json({"kind": kind, "schema": STORE_SCHEMA,
                         "fields": fields}).encode("utf-8")
    ).hexdigest()
    return "%s-%s" % (kind, digest[:40])


def _space_fields(space):
    return {
        "v_ssc_values": [float(v) for v in space.v_ssc_values],
        "n_r_min": int(space.n_r_min),
        "n_r_max": int(space.n_r_max),
        "n_c_max": int(space.n_c_max),
        "n_pre_max": int(space.n_pre_max),
        "n_wr_max": int(space.n_wr_max),
    }


def _policy_fields(policy):
    return {
        "method": policy.method,
        "v_ddc": float(policy.v_ddc),
        "v_ssc_free": bool(policy.v_ssc_free),
        "v_wl": float(policy.v_wl),
        "extra_rails": int(policy.extra_rails),
        "v_bl": float(policy.v_bl),
    }


def cell_key(capacity_bits, flavor, policy, space, constraint_info):
    """Key of one (capacity, flavor, policy) optimization result.

    ``constraint_info`` is a plain dict describing the yield constraint
    (delta, voltage mode, rail minima) — everything that changes which
    designs are feasible.
    """
    return canonical_key("cell", {
        "engine_version": ENGINE_VERSION,
        "capacity_bits": int(capacity_bits),
        "flavor": flavor,
        "policy": _policy_fields(policy),
        "space": _space_fields(space),
        "constraint": constraint_info,
    })


def _constraint_info(session, flavor):
    levels = session.yield_levels(flavor)
    return {
        "voltage_mode": session.voltage_mode,
        "delta": float(session.delta),
        "v_ddc_min": float(levels.v_ddc_min),
        "v_wl_min": float(levels.v_wl_min),
    }


def study_cell_key(session, space, capacity_bytes, flavor, method):
    """The :func:`cell_key` of one study-matrix cell under a session.

    Resolves the method name into the session's concrete
    :class:`~repro.opt.methods.VoltagePolicy` first, so the key captures
    the actual rails searched rather than the method label.
    """
    from ..opt.methods import make_policy

    policy = make_policy(method, session.yield_levels(flavor))
    return cell_key(
        capacity_bytes * 8, flavor, policy, space,
        _constraint_info(session, flavor),
    )


def pareto_cell_key(session, space, capacity_bytes, flavor, method):
    """Key of one Pareto-front sweep (the ``/v1/pareto`` identity).

    Same identity fields as :func:`study_cell_key` under its own kind:
    a front and an EDP argmin over the same cell are different results.
    The ``best_weighted`` exponents are deliberately excluded — they
    parameterize a query *over* the stored front, not the sweep itself.
    """
    from ..opt.methods import make_policy

    policy = make_policy(method, session.yield_levels(flavor))
    return canonical_key("pareto", {
        "engine_version": ENGINE_VERSION,
        "capacity_bits": int(capacity_bytes) * 8,
        "flavor": flavor,
        "policy": _policy_fields(policy),
        "space": _space_fields(space),
        "constraint": _constraint_info(session, flavor),
    })


def yield_cell_key(session, space, capacity_bytes, flavor, method,
                   code, y_target, n_samples=120, seed=0,
                   sampler="gaussian", ci_target=0.1, max_samples=4096):
    """Key of one ECC-relaxed yield study cell (``/v1/yield``).

    Beyond the study-cell identity this captures the code, the array
    yield target, the Monte Carlo draw (``n_samples``/``seed``) the
    margin sigma is estimated from, and the relaxation estimator
    (``sampler``/``ci_target``/``max_samples``) — all of which move
    the relaxed floor and therefore the optimum.
    """
    from ..opt.methods import make_policy
    from ..yields.ecc import make_code

    policy = make_policy(method, session.yield_levels(flavor))
    return canonical_key("yield", {
        "engine_version": ENGINE_VERSION,
        "capacity_bits": int(capacity_bytes) * 8,
        "flavor": flavor,
        "policy": _policy_fields(policy),
        "space": _space_fields(space),
        "constraint": _constraint_info(session, flavor),
        "code": make_code(code, session.config.word_bits).name,
        "y_target": float(y_target),
        "n_samples": int(n_samples),
        "seed": int(seed),
        "sampler": sampler,
        "ci_target": float(ci_target),
        "max_samples": int(max_samples),
    })


def sweep_key(spec):
    """Key of a whole study sweep from its normalized job spec.

    The characterization-cache *location* is deliberately excluded: it
    names where LUTs live, not what they contain.
    """
    fields = {k: v for k, v in spec.items() if k != "cache_path"}
    fields["engine_version"] = ENGINE_VERSION
    return canonical_key("sweep", fields)


# ---------------------------------------------------------------------------
# OptimizationResult <-> payload
# ---------------------------------------------------------------------------

def result_to_payload(result):
    """Serialize an :class:`OptimizationResult` to plain JSON data.

    Floats pass through ``float()`` only, so
    :func:`payload_to_result` (and a JSON round trip through the store)
    reproduces every value bit-for-bit.
    """
    design = result.design
    metrics = result.metrics
    payload = {
        "capacity_bits": int(result.capacity_bits),
        "capacity_bytes": int(result.capacity_bytes),
        "flavor": result.flavor,
        "method": result.method,
        "design": {
            "n_r": int(design.n_r),
            "n_c": int(design.n_c),
            "n_pre": int(design.n_pre),
            "n_wr": int(design.n_wr),
            "v_ddc": float(design.v_ddc),
            "v_ssc": float(design.v_ssc),
            "v_wl": float(design.v_wl),
            "v_bl": float(design.v_bl),
        },
        "metrics": {name: float(getattr(metrics, name))
                    for name in METRIC_FIELDS},
        "read_parts": {k: float(v) for k, v in metrics.read_parts.items()},
        "write_parts": {k: float(v)
                        for k, v in metrics.write_parts.items()},
        "footprint": [float(v) for v in metrics.footprint]
        if metrics.footprint is not None else None,
        "margins": {
            "hsnm": float(result.margins[0]),
            "rsnm": float(result.margins[1]),
            "wm": float(result.margins[2]),
        },
        "n_evaluated": int(result.n_evaluated),
        "landscape": [
            {k: (float(v) if isinstance(v, float) else int(v))
             for k, v in asdict(point).items()}
            for point in result.landscape
        ],
    }
    return payload


def payload_to_result(payload):
    """Rebuild an :class:`OptimizationResult` from a stored payload.

    The metrics object is a real :class:`ArrayMetrics` (with the
    component breakdown left ``None``), so every report path — Table 4
    rows, Figure 7 series, headline statistics — works on restored
    results exactly as on freshly computed ones.
    """
    design = DesignPoint(**payload["design"])
    fields = dict(payload["metrics"])
    aspect_ratio = fields.pop("aspect_ratio", None)
    footprint = payload.get("footprint")
    metrics = ArrayMetrics(
        design=design,
        read_parts=dict(payload.get("read_parts", {})),
        write_parts=dict(payload.get("write_parts", {})),
        footprint=tuple(footprint) if footprint is not None else None,
        aspect_ratio=aspect_ratio,
        **fields,
    )
    margins = payload["margins"]
    return OptimizationResult(
        capacity_bits=payload["capacity_bits"],
        flavor=payload["flavor"],
        method=payload["method"],
        design=design,
        metrics=metrics,
        margins=(margins["hsnm"], margins["rsnm"], margins["wm"]),
        n_evaluated=payload["n_evaluated"],
        landscape=[LandscapePoint(**point)
                   for point in payload.get("landscape", [])],
    )


def payload_json_safe(value):
    """Deep copy with non-finite floats replaced by ``None``.

    The store keeps raw floats (bit-exact); HTTP responses go through
    this first because strict JSON has no ``Infinity``/``NaN``.  Finite
    floats pass unchanged, so for real results the safe copy is
    value-identical to the stored one.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: payload_json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [payload_json_safe(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

_GIT_REV = None


def _git_rev():
    """Best-effort repository revision (cached; None outside a repo)."""
    global _GIT_REV
    if _GIT_REV is None:
        rev = ""
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True, text=True, timeout=5,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
        _GIT_REV = rev or "unknown"
    return _GIT_REV


def make_provenance(inputs, elapsed_seconds=None, worker=None):
    """The provenance record stored beside every payload."""
    try:
        user = getpass.getuser()
    except (KeyError, OSError):
        user = "unknown"
    return {
        "engine_version": ENGINE_VERSION,
        "schema": STORE_SCHEMA,
        "inputs": inputs,
        "git_rev": _git_rev(),
        "host": socket.gethostname(),
        "user": user,
        "pid": os.getpid(),
        "worker": worker,
        "elapsed_seconds": elapsed_seconds,
        "created_at": time.time(),
    }


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS results (
    key          TEXT PRIMARY KEY,
    kind         TEXT NOT NULL,
    payload      TEXT NOT NULL,
    provenance   TEXT NOT NULL,
    created_at   REAL NOT NULL,
    last_used_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_kind ON results (kind);
"""


class ExperimentStore:
    """Content-addressed result store backed by one SQLite file.

    Safe for concurrent use from multiple threads and processes; every
    call opens its own short-lived WAL-mode connection.
    """

    def __init__(self, path):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with self._conn() as conn:
            conn.executescript(_SCHEMA_SQL)

    def _connect(self):
        conn = sqlite3.connect(self.path, timeout=30.0)
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    @contextmanager
    def _conn(self):
        """One short-lived connection: commit on success, always close."""
        conn = self._connect()
        try:
            with conn:
                yield conn
        finally:
            conn.close()

    # -- write -------------------------------------------------------------

    def put(self, key, payload, provenance=None, kind=None):
        """Store (or idempotently re-store) one payload under ``key``.

        ``kind`` defaults to the key's prefix (``cell-...`` -> ``cell``).
        """
        if kind is None:
            kind = key.split("-", 1)[0]
        now = time.time()
        with self._conn() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO results "
                "(key, kind, payload, provenance, created_at, last_used_at)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (key, kind, json.dumps(payload),
                 json.dumps(provenance or {}), now, now),
            )
        perf.count("store.puts")
        return key

    # -- read --------------------------------------------------------------

    def get(self, key, touch=True):
        """The stored payload, or ``None`` when absent."""
        with self._conn() as conn:
            row = conn.execute(
                "SELECT payload FROM results WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                perf.count("store.misses")
                return None
            if touch:
                conn.execute(
                    "UPDATE results SET last_used_at = ? WHERE key = ?",
                    (time.time(), key),
                )
        perf.count("store.hits")
        return json.loads(row["payload"])

    def provenance(self, key):
        with self._conn() as conn:
            row = conn.execute(
                "SELECT provenance FROM results WHERE key = ?", (key,)
            ).fetchone()
        return json.loads(row["provenance"]) if row is not None else None

    def has(self, key):
        with self._conn() as conn:
            row = conn.execute(
                "SELECT 1 FROM results WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def __contains__(self, key):
        return self.has(key)

    def ls(self, kind=None, limit=None):
        """Metadata rows (no payloads), newest first."""
        query = ("SELECT key, kind, created_at, last_used_at, "
                 "length(payload) AS payload_bytes FROM results")
        args = []
        if kind is not None:
            query += " WHERE kind = ?"
            args.append(kind)
        query += " ORDER BY created_at DESC, key"
        if limit is not None:
            query += " LIMIT ?"
            args.append(int(limit))
        with self._conn() as conn:
            rows = conn.execute(query, args).fetchall()
        return [dict(row) for row in rows]

    def count(self, kind=None):
        with self._conn() as conn:
            if kind is None:
                row = conn.execute(
                    "SELECT COUNT(*) AS n FROM results").fetchone()
            else:
                row = conn.execute(
                    "SELECT COUNT(*) AS n FROM results WHERE kind = ?",
                    (kind,)).fetchone()
        return row["n"]

    def stats(self):
        with self._conn() as conn:
            rows = conn.execute(
                "SELECT kind, COUNT(*) AS n, "
                "SUM(length(payload)) AS payload_bytes "
                "FROM results GROUP BY kind ORDER BY kind"
            ).fetchall()
        by_kind = {row["kind"]: {"count": row["n"],
                                 "payload_bytes": row["payload_bytes"]}
                   for row in rows}
        return {
            "path": self.path,
            "total": sum(entry["count"] for entry in by_kind.values()),
            "by_kind": by_kind,
        }

    # -- maintenance -------------------------------------------------------

    def delete(self, key):
        with self._conn() as conn:
            cursor = conn.execute(
                "DELETE FROM results WHERE key = ?", (key,))
        return cursor.rowcount > 0

    def gc(self, older_than_seconds=None, kind=None, dry_run=False):
        """Delete (or list, with ``dry_run``) stale entries.

        ``older_than_seconds`` filters on ``last_used_at``, so results
        that are still being read survive any age cutoff.
        """
        query = "FROM results WHERE 1=1"
        args = []
        if older_than_seconds is not None:
            query += " AND last_used_at < ?"
            args.append(time.time() - float(older_than_seconds))
        if kind is not None:
            query += " AND kind = ?"
            args.append(kind)
        with self._conn() as conn:
            victims = [row["key"] for row in conn.execute(
                "SELECT key " + query, args)]
            if not dry_run and victims:
                conn.execute("DELETE " + query, args)
        if not dry_run and victims:
            with self._conn() as conn:
                conn.execute("VACUUM")
        return victims
