"""Bit-identity of every production cell sweep against its scalar
reference.

Each lane-batched path the program runs is compared *bitwise* with the
scalar solvers it replaced — same seeds, same draws, same per-element
operation sequence: Monte Carlo margins against
:func:`run_cell_montecarlo_reference`, the read-current grid against
:func:`read_current`, the write-delay and negative-BL sweeps against
:func:`cell_write_event`, the flip bisection against
:func:`flip_wordline_voltage`, read-timing yield against
:func:`read_state` per sample, and coalesced multi-draw runs against
separate runs.
"""

import numpy as np
import pytest

from repro.cell.bias import CellBias
from repro.cell.montecarlo import (
    batched_cell,
    run_cell_montecarlo,
    run_cell_montecarlo_multi,
    run_cell_montecarlo_reference,
    sample_cells,
    sample_shift_matrix,
)
from repro.cell.read_current import read_current, read_current_grid, read_state
from repro.cell.sram6t import TRANSISTOR_ROLES
from repro.cell.timing_yield import read_timing_analysis
from repro.cell.write import flip_wordline_voltage, flip_wordline_voltage_batch
from repro.cell.write_delay import (
    cell_write_event,
    cell_write_event_batch,
    write_delay_vs_wordline,
)

#: Small-but-meaningful Monte Carlo settings (coarse bisections keep the
#: scalar reference affordable; bit-identity is resolution-independent).
MC_KWARGS = dict(
    n_samples=3,
    metrics=("hsnm", "rsnm", "wm"),
    wm_resolution=0.01,
    snm_points=21,
)


@pytest.mark.parametrize("flavor", ["lvt", "hvt"])
@pytest.mark.parametrize("seed", [0, 11])
def test_engines_bit_identical(library, lvt_cell, hvt_cell, flavor, seed):
    """Production Monte Carlo against the per-sample scalar loop."""
    cell = lvt_cell if flavor == "lvt" else hvt_cell
    production = run_cell_montecarlo(cell, seed=seed, **MC_KWARGS)
    reference = run_cell_montecarlo_reference(cell, seed=seed, **MC_KWARGS)
    assert production.n_samples == reference.n_samples
    for name in MC_KWARGS["metrics"]:
        assert np.array_equal(
            production.metric(name).values, reference.metric(name).values
        ), "%s/%d: %s samples differ from the reference" % (flavor, seed,
                                                             name)


def test_engines_share_one_seeded_draw(hvt_cell):
    """Production and reference consume the same shift matrix: the
    reference's k-th cell carries exactly row k of the matrix the
    batched cell embeds."""
    shifts = sample_shift_matrix(4, seed=5)
    assert np.array_equal(shifts, sample_shift_matrix(4, seed=5))
    batched = batched_cell(hvt_cell, shifts)
    cells = list(sample_cells(hvt_cell, 4, seed=5))
    for column, role in enumerate(TRANSISTOR_ROLES):
        expected = np.maximum(
            hvt_cell.params(role).vt + shifts[:, column], 1e-3
        )
        assert np.array_equal(batched.params(role).vt[:, 0], expected)
        for k, cell in enumerate(cells):
            assert cell.params(role).vt == expected[k]


def test_read_current_grid_engines_match(hvt_cell):
    v_ddc = np.asarray([0.45, 0.5, 0.55, 0.6])
    v_ssc = np.asarray([-0.1, -0.05, 0.0])
    grid = read_current_grid(hvt_cell, v_ddc, v_ssc)
    reference = [[read_current(hvt_cell, v_ddc=float(d), v_ssc=float(s))
                  for s in v_ssc] for d in v_ddc]
    assert grid.shape == (4, 3)
    assert np.array_equal(grid, np.asarray(reference))


def test_write_delay_sweep_engines_match(hvt_cell, library):
    v_wl = [0.45, 0.55, 0.65]
    delays = write_delay_vs_wordline(hvt_cell, v_wl, vdd=library.vdd)
    reference = [cell_write_event(hvt_cell, v_wl=level,
                                  vdd=library.vdd).delay
                 for level in v_wl]
    assert np.array_equal(np.asarray(delays), np.asarray(reference))


def test_negative_bl_write_events_match_scalar(hvt_cell, library):
    """The characterization's negative-BL delay/energy sweep: one
    lane-batched transient over bitline levels at nominal WL."""
    vdd = library.vdd
    v_bl = np.asarray([-0.15, -0.05, 0.0])
    events = cell_write_event_batch(hvt_cell, np.full(len(v_bl), vdd),
                                    vdd=vdd, v_bl_low=v_bl)
    reference = [cell_write_event(hvt_cell, v_wl=vdd, vdd=vdd,
                                  v_bl_low=float(level))
                 for level in v_bl]
    assert events == reference


def test_flip_voltage_batch_matches_scalar_over_bl_levels(hvt_cell, library):
    """The negative-BL characterization sweep: per-lane bitline levels
    through one batched bisection equal point-by-point scalar calls."""
    v_bl = np.asarray([-0.15, -0.05, 0.0])
    batched = flip_wordline_voltage_batch(
        hvt_cell, len(v_bl), vdd=library.vdd,
        v_bl_low=v_bl.reshape(-1, 1), resolution=0.01,
    )
    scalar = [
        flip_wordline_voltage(hvt_cell, vdd=library.vdd,
                              v_bl_low=float(level), resolution=0.01)
        for level in v_bl
    ]
    assert np.array_equal(batched, np.asarray(scalar))


def test_read_timing_matches_per_sample_read_states(library, hvt_cell):
    """One batched read-state solve over every sample against a scalar
    read_state per sample cell."""
    kwargs = dict(n_rows=64, v_ddc=0.55, v_ssc=-0.1, seed=3)
    timing = read_timing_analysis(library, hvt_cell, n_samples=12,
                                  **kwargs)
    bias = CellBias.read(vdd=library.vdd, v_ddc=0.55, v_ssc=-0.1)
    states = [read_state(cell, bias=bias)
              for cell in sample_cells(hvt_cell, 12, seed=3)]
    failed = [s.flipped or s.i_read <= 0 for s in states]
    assert timing.n_flipped == sum(failed)
    assert np.array_equal(
        timing.i_read_samples,
        np.asarray([s.i_read for s, bad in zip(states, failed) if not bad]),
    )


def test_multi_coalesced_runs_bit_identical_to_separate(hvt_cell, library):
    """The service's cross-request coalescing: several (n, seed) draws
    merged into one batched solve must equal separate runs bitwise."""
    specs = [(3, 0), (2, 7), (4, 11)]
    kwargs = dict(vdd=library.vdd, metrics=("hsnm", "rsnm", "wm"),
                  wm_resolution=0.01, snm_points=21)
    merged = run_cell_montecarlo_multi(hvt_cell, specs, **kwargs)
    assert len(merged) == len(specs)
    for (n, seed), result in zip(specs, merged):
        separate = run_cell_montecarlo(hvt_cell, n_samples=n, seed=seed,
                                       **kwargs)
        assert result.n_samples == n
        for name in kwargs["metrics"]:
            assert np.array_equal(result.metric(name).values,
                                  separate.metric(name).values)


def test_multi_single_spec_matches_plain_run(hvt_cell, library):
    kwargs = dict(vdd=library.vdd, metrics=("hsnm",), snm_points=21)
    (only,) = run_cell_montecarlo_multi(hvt_cell, [(3, 5)], **kwargs)
    plain = run_cell_montecarlo(hvt_cell, n_samples=3, seed=5, **kwargs)
    assert np.array_equal(only.metric("hsnm").values,
                          plain.metric("hsnm").values)
    assert run_cell_montecarlo_multi(hvt_cell, [], **kwargs) == []
