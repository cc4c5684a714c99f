"""Content-addressed experiment store: keys, round trips, lifecycle."""

import math
import time

import pytest

from repro.analysis.runner import StudyTask, execute_study_task
from repro.opt import DesignSpace
from repro.store import (
    ENGINE_VERSION,
    ExperimentStore,
    canonical_key,
    make_provenance,
    payload_json_safe,
    payload_to_result,
    result_to_payload,
    study_cell_key,
    sweep_key,
)


# ---------------------------------------------------------------------------
# Canonical keys
# ---------------------------------------------------------------------------

def test_canonical_key_is_deterministic_and_order_insensitive():
    a = canonical_key("cell", {"x": 1, "y": [1, 2], "z": {"a": 0.5}})
    b = canonical_key("cell", {"z": {"a": 0.5}, "y": [1, 2], "x": 1})
    assert a == b
    assert a.startswith("cell-")
    assert len(a) == len("cell-") + 40


def test_canonical_key_separates_kinds_and_fields():
    fields = {"x": 1}
    assert canonical_key("cell", fields) != canonical_key("sweep", fields)
    assert canonical_key("cell", fields) != canonical_key("cell", {"x": 2})


def test_canonical_key_rejects_non_finite_floats():
    with pytest.raises(ValueError):
        canonical_key("cell", {"x": float("nan")})


def test_study_cell_key_distinguishes_every_axis(paper_session):
    space = DesignSpace()

    def key(capacity=128, flavor="lvt", method="M1", space=space):
        return study_cell_key(paper_session, space, capacity, flavor,
                              method)

    base = key()
    assert key() == base                      # stable
    assert key(capacity=256) != base
    assert key(flavor="hvt") != base
    assert key(method="M2") != base
    assert key(space=DesignSpace(n_pre_max=10)) != base


def test_sweep_key_ignores_cache_location():
    spec = {"capacities": [128], "flavors": ["lvt"], "methods": ["M1"],
            "voltage_mode": "paper"}
    a = sweep_key(dict(spec, cache_path="/tmp/a.json"))
    b = sweep_key(dict(spec, cache_path=None))
    assert a == b
    assert a.startswith("sweep-")


# ---------------------------------------------------------------------------
# Payload round trip
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def one_result(paper_session):
    result, _ = execute_study_task(
        paper_session, DesignSpace(), StudyTask(128, "lvt", "M1"))
    return result


def test_result_payload_round_trip_is_bit_identical(one_result):
    import json

    payload = result_to_payload(one_result)
    # Through JSON text, exactly as the SQLite store does it.
    rebuilt = payload_to_result(json.loads(json.dumps(payload)))
    assert rebuilt.capacity_bits == one_result.capacity_bits
    assert rebuilt.flavor == one_result.flavor
    assert rebuilt.method == one_result.method
    assert rebuilt.design == one_result.design
    assert rebuilt.metrics.edp == one_result.metrics.edp
    assert rebuilt.metrics.e_total == one_result.metrics.e_total
    assert rebuilt.metrics.d_array == one_result.metrics.d_array
    assert rebuilt.margins == tuple(one_result.margins)
    assert rebuilt.n_evaluated == one_result.n_evaluated
    # And the payload of the rebuilt result is the same dict again.
    assert result_to_payload(rebuilt) == payload


def test_payload_json_safe_nulls_non_finite():
    safe = payload_json_safe({
        "a": float("nan"),
        "b": [1.0, float("inf"), {"c": -float("inf")}],
        "d": "text",
    })
    assert safe["a"] is None
    assert safe["b"][0] == 1.0
    assert safe["b"][1] is None
    assert safe["b"][2]["c"] is None
    assert safe["d"] == "text"


def test_payload_json_safe_copies_deeply():
    original = {"nested": {"x": 1.0}}
    safe = payload_json_safe(original)
    safe["nested"]["x"] = 2.0
    assert original["nested"]["x"] == 1.0


# ---------------------------------------------------------------------------
# The store itself
# ---------------------------------------------------------------------------

@pytest.fixture()
def store(tmp_path):
    return ExperimentStore(str(tmp_path / "store.db"))


def test_put_get_has_provenance(store):
    provenance = make_provenance(inputs={"why": "test"}, worker="w1")
    store.put("cell-abc", {"edp": 1.5e-25}, provenance)
    assert store.has("cell-abc")
    assert "cell-abc" in store
    assert store.get("cell-abc") == {"edp": 1.5e-25}
    stored = store.provenance("cell-abc")
    assert stored["inputs"] == {"why": "test"}
    assert stored["worker"] == "w1"
    assert stored["engine_version"] == ENGINE_VERSION
    assert stored["pid"] > 0


def test_get_missing_returns_none(store):
    assert store.get("cell-missing") is None
    assert not store.has("cell-missing")
    assert store.provenance("cell-missing") is None


def test_put_is_idempotent(store):
    store.put("cell-x", {"v": 1})
    store.put("cell-x", {"v": 1})
    assert store.count() == 1


def test_floats_survive_storage_bitwise(store):
    values = [3.364454957258898e-25, 0.1 + 0.2, 1e-300, -0.0]
    store.put("cell-floats", {"values": values})
    read = store.get("cell-floats")["values"]
    assert all(math.copysign(1, a) == math.copysign(1, b) and a == b
               for a, b in zip(read, values))


def test_kind_defaults_to_key_prefix(store):
    store.put("cell-1", {})
    store.put("sweep-1", {})
    assert store.count("cell") == 1
    assert store.count("sweep") == 1
    assert store.count() == 2
    kinds = {row["kind"] for row in store.ls()}
    assert kinds == {"cell", "sweep"}


def test_ls_filters_and_limits(store):
    for index in range(5):
        store.put("cell-%d" % index, {"i": index})
    store.put("sweep-0", {})
    assert len(store.ls(kind="cell")) == 5
    assert len(store.ls(kind="cell", limit=2)) == 2
    assert [row["key"] for row in store.ls(kind="sweep")] == ["sweep-0"]


def test_stats(store):
    store.put("cell-1", {"x": 1})
    store.put("sweep-1", {"y": [1, 2]})
    stats = store.stats()
    assert stats["total"] == 2
    assert stats["by_kind"]["cell"]["count"] == 1
    assert stats["by_kind"]["sweep"]["payload_bytes"] > 0


def test_delete(store):
    store.put("cell-1", {})
    assert store.delete("cell-1")
    assert not store.delete("cell-1")
    assert store.count() == 0


def test_gc_by_age_spares_recently_read(store):
    store.put("cell-old", {})
    store.put("cell-warm", {})
    time.sleep(0.05)
    store.get("cell-warm")          # touch refreshes last_used_at
    victims = store.gc(older_than_seconds=0.04)
    assert victims == ["cell-old"]
    assert store.has("cell-warm")
    assert not store.has("cell-old")


def test_gc_dry_run_deletes_nothing(store):
    store.put("cell-1", {})
    victims = store.gc(dry_run=True)
    assert victims == ["cell-1"]
    assert store.has("cell-1")


def test_gc_by_kind(store):
    store.put("cell-1", {})
    store.put("sweep-1", {})
    assert store.gc(kind="sweep") == ["sweep-1"]
    assert store.has("cell-1")


def test_store_shared_across_instances(tmp_path):
    path = str(tmp_path / "store.db")
    ExperimentStore(path).put("cell-1", {"v": 7})
    assert ExperimentStore(path).get("cell-1") == {"v": 7}
