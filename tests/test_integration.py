"""End-to-end integration: device -> cell -> periphery -> array -> opt,
plus the CLI entry point."""

import os

import numpy as np
import pytest

from repro.analysis import experiments, optimize_all
from repro.array import ArrayConfig, DesignPoint, SRAMArrayModel
from repro.cli import main as cli_main
from repro.opt import DesignSpace, ExhaustiveOptimizer, make_policy
from tests.conftest import CACHE_PATH


def test_full_stack_hvt_vs_lvt_at_16kb(paper_session):
    """The paper's flagship data point, from devices to the optimum."""
    sweep = optimize_all(paper_session, capacities=(16384,))
    hvt = sweep.get(16384, "hvt", "M2").metrics
    lvt = sweep.get(16384, "lvt", "M2").metrics
    gain = 1.0 - hvt.edp / lvt.edp
    penalty = hvt.d_array / lvt.d_array - 1.0
    assert 0.65 < gain < 0.85          # paper: 0.78
    assert -0.05 < penalty < 0.15      # paper: 0.08


def test_vectorized_search_equals_scalar_bruteforce(paper_session):
    """Cross-validate the broadcast optimizer against a plain Python
    triple loop on a reduced subspace."""
    model = paper_session.model("hvt")
    constraint = paper_session.constraint("hvt")
    space = DesignSpace(
        v_ssc_values=(0.0, -0.12, -0.24),
        n_pre_max=6, n_wr_max=3,
    )
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    optimizer = ExhaustiveOptimizer(model, space, constraint)
    fast = optimizer.optimize(1024 * 8, policy)

    best_edp = np.inf
    best = None
    for n_r in space.row_counts(1024 * 8):
        for v_ssc in space.v_ssc_values:
            if not constraint.satisfied(policy.v_ddc, v_ssc, policy.v_wl):
                continue
            for n_pre in range(1, 7):
                for n_wr in range(1, 4):
                    d = DesignPoint(
                        n_r=n_r, n_c=1024 * 8 // n_r, n_pre=n_pre,
                        n_wr=n_wr, v_ddc=policy.v_ddc,
                        v_ssc=float(v_ssc), v_wl=policy.v_wl,
                    )
                    m = model.evaluate(1024 * 8, d)
                    if m.edp < best_edp:
                        best_edp, best = m.edp, d
    assert fast.metrics.edp == pytest.approx(best_edp)
    assert (fast.design.n_r, fast.design.n_pre, fast.design.n_wr) == (
        best.n_r, best.n_pre, best.n_wr
    )


def test_config_changes_propagate(paper_session):
    """A read-heavy workload shifts the energy blend toward reads."""
    read_heavy = SRAMArrayModel(
        paper_session.chars["hvt"], ArrayConfig(beta=1.0)
    )
    write_heavy = SRAMArrayModel(
        paper_session.chars["hvt"], ArrayConfig(beta=0.0)
    )
    design = DesignPoint(n_r=128, n_c=64, n_pre=8, n_wr=2,
                         v_ddc=0.55, v_ssc=-0.2, v_wl=0.55)
    r = read_heavy.evaluate(8192, design)
    w = write_heavy.evaluate(8192, design)
    assert r.e_sw == pytest.approx(r.e_sw_rd)
    assert w.e_sw == pytest.approx(w.e_sw_wr)


def test_cli_calibration_runs(capsys):
    rc = cli_main(["calibration", "--cache", CACHE_PATH])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Ion ratio" in out


def test_cli_table4_runs(capsys, tmp_path):
    json_path = str(tmp_path / "t4.json")
    rc = cli_main(["table4", "--cache", CACHE_PATH, "--json", json_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Table 4" in out
    assert os.path.exists(json_path)


@pytest.mark.parametrize("argv", [
    ["table4"],
    ["pareto", "--capacities", "128,1024", "--flavors", "hvt",
     "--methods", "M2"],
], ids=["table4", "pareto"])
def test_cli_prints_the_same_in_a_pool(capsys, argv):
    outputs = []
    for workers in ("1", "2"):
        assert cli_main(argv + ["--cache", CACHE_PATH,
                                "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("command", ["table4", "pareto", "yield"])
def test_cli_executor_flag_is_gone(command):
    with pytest.raises(SystemExit) as excinfo:
        cli_main([command, "--executor", "process"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("sampler", ["naive", "antithetic", "stratified"])
def test_cli_yield_accepts_only_gaussian_or_shifted(sampler):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["yield", "--sampler", sampler])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["pareto", "yield"])
def test_cli_empty_cache_path_disables_the_cache(
        command, paper_session, tmp_path, monkeypatch, capsys):
    """``--cache ''`` characterizes without a cache file, as on the
    main parser, instead of reading and writing ./.repro_cache.json."""
    caches = []

    def characterize(library, flavor, cache=None):
        caches.append(cache)
        return paper_session.chars[flavor]

    monkeypatch.setattr(experiments, "characterize", characterize)
    monkeypatch.chdir(tmp_path)
    assert cli_main([command, "--cache", "", "--capacities", "128",
                     "--flavors", "hvt", "--methods", "M1"]) == 0
    assert caches == [None, None]
    assert os.listdir(tmp_path) == []


def test_cli_headline_measured_mode(capsys):
    rc = cli_main(["headline", "--cache", CACHE_PATH,
                   "--voltage-mode", "measured"])
    assert rc == 0
    assert "EDP" in capsys.readouterr().out
