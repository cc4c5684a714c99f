"""repro.store: content-addressed experiment/result store with provenance.

Every finished optimization (one study-matrix cell, one service
``/v1/optimize`` answer, one CLI sweep) can be committed to an
:class:`ExperimentStore` — a single-file SQLite database keyed by a
canonical hash of everything that determines the result: the design
space, the resolved voltage policy, the yield-constraint configuration,
and the engine version.  Identical work is therefore *deduplicated*
across the study runner, the durable job queue (:mod:`repro.jobs`), the
optimization service, and the CLI: whoever computes a cell first
persists it, and everyone else loads it.

Alongside each payload the store records provenance — the inputs, the
git revision, host/pid/worker, wall time — so any stored number can be
traced back to the code and configuration that produced it.

* :func:`canonical_key` — deterministic hash of a plain-data identity
* :func:`study_cell_key` / :func:`sweep_key` — the co-optimization keys
* :func:`result_to_payload` / :func:`payload_to_result` — exact
  (bit-identical) round trip of an
  :class:`~repro.opt.results.OptimizationResult`
* :class:`ExperimentStore` — the SQLite-backed store itself
"""

from .store import (
    ENGINE_VERSION,
    STORE_SCHEMA,
    ExperimentStore,
    canonical_key,
    cell_key,
    make_provenance,
    pareto_cell_key,
    payload_json_safe,
    payload_to_result,
    result_to_payload,
    study_cell_key,
    sweep_key,
    yield_cell_key,
)

__all__ = [
    "ENGINE_VERSION",
    "STORE_SCHEMA",
    "ExperimentStore",
    "canonical_key",
    "cell_key",
    "make_provenance",
    "pareto_cell_key",
    "payload_json_safe",
    "payload_to_result",
    "result_to_payload",
    "study_cell_key",
    "sweep_key",
    "yield_cell_key",
]
