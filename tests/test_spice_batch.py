"""Lane-batched Newton/transient engine vs the scalar solvers.

Every batched analysis must equal per-lane scalar runs *bitwise*; these
tests drive both paths over the same circuits, including array-valued
source levels and per-lane early-stop bookkeeping.
"""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.spice import Circuit, batch, operating_point, step, transient
from repro.spice.batch import (
    lane_circuit,
    operating_point_batch,
    transient_batch,
)

LEVELS = np.asarray([0.3, 0.6, 0.9])


def divider_circuit(v_levels):
    circuit = Circuit("divider")
    circuit.add_vsource("vs", "a", "0", v_levels)
    circuit.add_resistor("r1", "a", "m", 1e4)
    circuit.add_resistor("r2", "m", "0", 1e4)
    return circuit


def rc_circuit(v_levels, t_step=1e-12):
    circuit = Circuit("rc")
    circuit.add_vsource("vs", "a", "0", step(t_step, 0.0, v_levels, 1e-15))
    circuit.add_resistor("r", "a", "b", 1e4)
    circuit.add_capacitor("c", "b", "0", 1e-15)
    return circuit


def test_lane_circuit_substitutes_and_restores():
    circuit = divider_circuit(LEVELS)
    source = circuit.vsources[0]
    with lane_circuit(circuit, 1):
        assert source.value == 0.6
    assert np.array_equal(source.value, LEVELS)

    stimulus = rc_circuit(LEVELS)
    source = stimulus.vsources[0]
    original = source.value
    with lane_circuit(stimulus, 2):
        assert source.value(5e-12) == 0.9
    assert source.value is original


def test_operating_point_batch_matches_scalar_lanes():
    circuit = divider_circuit(LEVELS)
    x = operating_point_batch(circuit, len(LEVELS))
    for k in range(len(LEVELS)):
        with lane_circuit(circuit, k):
            solution = operating_point(circuit)
        assert np.array_equal(x[:, k], solution.x)


def test_transient_batch_matches_scalar_lanes():
    lanes = len(LEVELS)
    results = transient_batch(rc_circuit(LEVELS), lanes, 20e-12, 0.1e-12)
    for k in range(lanes):
        scalar = transient(rc_circuit(float(LEVELS[k])), 20e-12, 0.1e-12)
        batched = results[k]
        assert np.array_equal(batched.times, scalar.times)
        for node in ("a", "b"):
            assert np.array_equal(
                batched.node(node).values, scalar.node(node).values
            )
        assert np.array_equal(
            batched._source_voltages["vs"], scalar._source_voltages["vs"]
        )
        assert batched.delivered_energy("vs") == scalar.delivered_energy("vs")


def test_transient_batch_per_lane_early_stop():
    """Each lane stops at its own threshold crossing with the scalar
    margin bookkeeping: same point counts, same final values."""
    lanes = len(LEVELS)
    results = transient_batch(
        rc_circuit(LEVELS), lanes, 100e-12, 0.1e-12,
        stop_condition=lambda _t, v: v["b"] > 0.25,
        stop_margin=3,
    )
    for k in range(lanes):
        scalar = transient(
            rc_circuit(float(LEVELS[k])), 100e-12, 0.1e-12,
            stop_condition=lambda _t, v: v["b"] > 0.25,
            stop_margin=3,
        )
        assert len(results[k].times) == len(scalar.times)
        assert np.array_equal(
            results[k].node("b").values, scalar.node("b").values
        )
    # The fastest-charging lane must actually have stopped early.
    assert results[2].times[-1] < 50e-12
    # A lane that never crosses runs to t_stop.
    never = transient_batch(
        rc_circuit(LEVELS), lanes, 20e-12, 0.1e-12,
        stop_condition=lambda _t, v: v["b"] > 2.0,
        stop_margin=3,
    )
    assert never[0].times[-1] == pytest.approx(20e-12)


def test_transient_batch_argument_validation():
    with pytest.raises(ValueError):
        transient_batch(rc_circuit(LEVELS), 3, -1.0, 1e-12)
    with pytest.raises(ValueError):
        transient_batch(rc_circuit(LEVELS), 3, 1e-12, 0.0)


#: Step levels and constant offsets of three lanes that stop at
#: staggered times: lane 0 first, then lane 2, lane 1 last, so the lanes
#: left in the batch are not a prefix of the original ones.
STAGGERED = np.asarray([0.9, 0.3, 0.6])
OFFSETS = np.asarray([0.05, 0.0, 0.02])


def staggered_circuit(levels, offsets):
    """An RC node driven by a stepped source and, through a larger
    resistor, by a constant one; both array-valued in a batch."""
    circuit = Circuit("rc2")
    circuit.add_vsource("vs", "a", "0", step(1e-12, 0.0, levels, 1e-15))
    circuit.add_vsource("vo", "o", "0", offsets)
    circuit.add_resistor("r", "a", "b", 1e4)
    circuit.add_resistor("ro", "o", "b", 1e5)
    circuit.add_capacitor("c", "b", "0", 1e-15)
    return circuit


def _staggered_run(circuit):
    return transient_batch(
        circuit, len(STAGGERED), 100e-12, 0.1e-12,
        stop_condition=lambda _t, v: v["b"] > 0.25, stop_margin=3,
    )


def _assert_equals_scalar_lanes(results):
    for k, batched in enumerate(results):
        scalar = transient(
            staggered_circuit(float(STAGGERED[k]), float(OFFSETS[k])),
            100e-12, 0.1e-12,
            stop_condition=lambda _t, v: v["b"] > 0.25, stop_margin=3,
        )
        assert batched.times.tobytes() == scalar.times.tobytes()
        for node in ("a", "o", "b"):
            assert (batched.node(node).values.tobytes()
                    == scalar.node(node).values.tobytes())
        for name in ("vs", "vo"):
            assert (batched._source_voltages[name].tobytes()
                    == scalar._source_voltages[name].tobytes())
            assert (batched.delivered_energy(name)
                    == scalar.delivered_energy(name))


def _assert_sources_restored(circuit, originals):
    assert all(src.value is value
               for src, value in zip(circuit.vsources, originals))


def _spy_widths(monkeypatch, fail_at_width=None):
    """Record the lane count of every batched step solve; with
    ``fail_at_width``, the first solve that narrow raises instead."""
    widths = []
    solve = batch.solve_from_batch

    def spy(circuit, x_start, **kwargs):
        width = x_start.shape[1]
        first = width not in widths
        widths.append(width)
        if width == fail_at_width and first:
            raise ConvergenceError("injected")
        return solve(circuit, x_start, **kwargs)

    monkeypatch.setattr(batch, "solve_from_batch", spy)
    return widths


def test_stopped_lanes_leave_the_batch(monkeypatch):
    widths = _spy_widths(monkeypatch)
    circuit = staggered_circuit(STAGGERED, OFFSETS)
    originals = [src.value for src in circuit.vsources]
    results = _staggered_run(circuit)
    steps = [len(result.times) - 1 for result in results]
    assert steps[0] < steps[2] < steps[1]
    # Each step solves only the lanes that have not run their margin.
    assert widths == sorted(widths, reverse=True)
    assert widths == [3] * steps[0] + [2] * (steps[2] - steps[0]) \
        + [1] * (steps[1] - steps[2])
    _assert_equals_scalar_lanes(results)
    _assert_sources_restored(circuit, originals)


def test_convergence_failure_after_a_lane_left_falls_back_whole(
        monkeypatch):
    widths = _spy_widths(monkeypatch, fail_at_width=2)
    circuit = staggered_circuit(STAGGERED, OFFSETS)
    originals = [src.value for src in circuit.vsources]
    results = _staggered_run(circuit)
    # The batch raised once lane 0 had left; every lane then re-ran the
    # scalar transient on the caller's own source values.
    assert widths[-1] == 2 and 3 in widths
    _assert_equals_scalar_lanes(results)
    _assert_sources_restored(circuit, originals)


def test_lane_rescue_inside_a_narrowed_batch(monkeypatch):
    """A lane that fails plain Newton after another lane left re-runs
    the scalar solve on its own source values, found through the
    narrowed ones."""
    rescued = []
    newton = batch._newton_batch

    def fail_last_lane_once(circuit, x0, **kwargs):
        x, iterations, failed = newton(circuit, x0, **kwargs)
        if x0.shape[1] == 2 and not rescued:
            rescued.append(circuit.vsources[0].value(2e-12))
            failed = failed.copy()
            failed[1] = True
        return x, iterations, failed

    monkeypatch.setattr(batch, "_newton_batch", fail_last_lane_once)
    circuit = staggered_circuit(STAGGERED, OFFSETS)
    originals = [src.value for src in circuit.vsources]
    results = _staggered_run(circuit)
    # Narrowed column 1 is the third lane (lane 0 left first).
    assert np.array_equal(rescued[0], STAGGERED[1:])
    _assert_equals_scalar_lanes(results)
    _assert_sources_restored(circuit, originals)
