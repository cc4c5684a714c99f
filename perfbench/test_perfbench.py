"""Smoke tests of the benchmark itself (not of the program)::

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs at minimal size through the real command; the tests
assert that every metric prints with its unit and that every output
check runs and passes.  About two minutes on a 2-vCPU VM, most of it
the cold characterization.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import uuid

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import service  # noqa: E402
import tracing  # noqa: E402

CHECKS = {
    "cold_characterize": {
        "cold.gates_inv_nand2_equal_tracked",
        "cold.write_delay_anchor_equal_tracked",
        "cold.array_entry_equal_tracked",
    },
    "warm_study": {
        "warm.headline_equals_tracked",
        "warm.table4_prefix_of_tracked",
        "warm.operations_ran",
        "warm.pareto_min_edp_equals_edp_optimum",
        "warm.jobs_payloads_equal_run_study",
        "warm.yield_16kb_edp_gain_equals_bench_yield",
    },
    "service_mix": {
        "service.drained",
        "service.cache_hits_exactly_at_repeats",
        "service.optimize_sample_equals_run_study",
    },
}


def run_bench(workload, trace=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "2",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    checks = {line.split()[1]: line.split()[2] for line in lines
              if line.startswith("   check ")}
    return result, checks


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_metric_prints_and_every_check_runs(workload):
    result, checks = parse(run_bench(workload))
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == bench.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert CHECKS[workload] | {"checkout_unchanged"} <= set(checks)
    assert set(checks.values()) == {"ok"}


def test_traced_run_prints_every_layer_metric():
    result, checks = parse(run_bench("service_mix", trace=1))
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == tracing.LAYER_UNITS
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # The service layers were reached and attributed.
    for name in ("service.http_s", "service.execute_s", "opt.search_s",
                 "array.evaluate_s", "service.queue_wait_ms"):
        assert metrics[name] > 0, name
    assert metrics["service.cache_hit_ratio"] > 0
    assert os.path.isfile(tracing.trace_path("service_mix"))


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".perfbench_tmp", "bare-%s" % uuid.uuid4().hex)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench("warm_study", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_benchmark_json_matches_the_command():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == tracing.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("seed", range(4))
def test_service_script_hits_exactly_at_far_repeats(seed):
    script = service.make_script(seed, service.SCRIPT_REQUESTS)
    assert script == service.make_script(seed, service.SCRIPT_REQUESTS)
    repeats = [(i, r) for i, r in enumerate(script)
               if r.repeat_of is not None]
    assert len(repeats) == len(script) // 3
    for index, request in repeats:
        original = script[request.repeat_of]
        assert index - request.repeat_of >= service.REPEAT_GAP
        assert original.repeat_of is None
        assert (original.path, original.body) == (request.path,
                                                  request.body)
    distinct = {json.dumps([r.path, r.body], sort_keys=True)
                for r in script}
    assert len(distinct) == len(script) - len(repeats)
    assert len(distinct) + 4 < service.CACHE_ENTRIES
    assert not any("engine" in r.body for r in script)
