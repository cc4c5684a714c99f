"""Transient analysis: RC analytics, energy bookkeeping, early stop."""

import importlib
import math

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.spice import Circuit, step, transient
from repro.spice.batch import transient_batch
from repro.spice.transient import MAX_STEP_HALVINGS

# The package re-exports the function ``transient`` under the module's
# name, so the module itself is fetched by its dotted path.
transient_module = importlib.import_module("repro.spice.transient")


def rc_circuit(r=1e4, c=1e-15, v=1.0, t_step=1e-12):
    circuit = Circuit("rc")
    circuit.add_vsource("vs", "a", "0", step(t_step, 0.0, v, 1e-15))
    circuit.add_resistor("r", "a", "b", r)
    circuit.add_capacitor("c", "b", "0", c)
    return circuit


def test_rc_charging_matches_analytic():
    r, c, v = 1e4, 1e-15, 1.0
    tau = r * c  # 10 ps
    result = transient(rc_circuit(r, c, v), 60e-12, 0.05e-12)
    for n_tau in (1.0, 2.0, 3.0):
        t = 1e-12 + n_tau * tau
        expected = v * (1.0 - math.exp(-n_tau))
        assert result.node("b").value_at(t) == pytest.approx(
            expected, abs=0.01
        )


def test_rc_source_energy_split():
    """The source delivers C*V^2 total: half stored, half dissipated."""
    r, c, v = 1e4, 1e-15, 1.0
    result = transient(rc_circuit(r, c, v), 150e-12, 0.05e-12)
    delivered = result.delivered_energy("vs")
    assert delivered == pytest.approx(c * v * v, rel=0.02)


def test_initial_operating_point_respected():
    # Before the step fires, the capacitor node holds its DC value (0).
    result = transient(rc_circuit(t_step=5e-12), 8e-12, 0.05e-12)
    assert abs(result.node("b").value_at(2e-12)) < 1e-9


def test_transient_argument_validation():
    with pytest.raises(ValueError):
        transient(rc_circuit(), -1.0, 1e-12)
    with pytest.raises(ValueError):
        transient(rc_circuit(), 1e-12, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("argument", ["t_stop", "dt"])
@pytest.mark.parametrize("engine", ["scalar", "batch"])
def test_time_window_must_be_positive_and_finite(engine, argument, bad):
    """A NaN or infinite window once returned a one-point waveform, ran
    forever, or failed later with a misleading ConvergenceError."""
    window = {"t_stop": 1e-12, "dt": 1e-13}
    window[argument] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        if engine == "scalar":
            transient(rc_circuit(), window["t_stop"], window["dt"])
        else:
            transient_batch(rc_circuit(), 2, window["t_stop"], window["dt"])


def test_failed_step_reports_last_attempt(monkeypatch):
    """When every halving fails, the error names the last attempted
    time point and carries that attempt's Newton context."""
    attempts = []

    def never_converges(circuit, x_start, time=None, **_kwargs):
        attempts.append(time)
        raise ConvergenceError(
            "no convergence", iterations=len(attempts), residual=1e-3,
            time=time, voltages={"b": 0.25},
        )

    monkeypatch.setattr(transient_module, "solve_from", never_converges)
    with pytest.raises(ConvergenceError) as info:
        transient(rc_circuit(), 1e-12, 1e-13)
    err = info.value
    assert len(attempts) == MAX_STEP_HALVINGS + 1
    assert attempts[-1] == pytest.approx(1e-13 / 2 ** MAX_STEP_HALVINGS)
    assert err.time == attempts[-1]
    assert err.iterations == MAX_STEP_HALVINGS + 1
    assert err.residual == 1e-3
    assert err.voltages == {"b": 0.25}
    assert isinstance(err.__cause__, ConvergenceError)
    assert err.__cause__.time == attempts[-1]


def test_stop_condition_ends_run_early():
    result = transient(
        rc_circuit(), 100e-12, 0.05e-12,
        stop_condition=lambda t, v: v["b"] > 0.5,
        stop_margin=2,
    )
    assert result.times[-1] < 50e-12
    assert result.node("b").final > 0.45


def test_two_capacitor_charge_sharing():
    """A charged cap sharing onto an equal uncharged cap halves the
    voltage (charge conservation through a resistor)."""
    circuit = Circuit("share")
    circuit.add_vsource("vdrv", "a", "0", step(1e-12, 1.0, 0.0, 1e-15))
    circuit.add_resistor("riso", "a", "b", 1e6)  # weak tie to the driver
    circuit.add_resistor("rshare", "b", "c", 1e3)
    circuit.add_capacitor("c1", "b", "0", 1e-15)
    circuit.add_capacitor("c2", "c", "0", 1e-15)
    # At t=0 the DC solution puts b = c = 1.0 (driver high)...
    result = transient(circuit, 4e-12, 0.02e-12)
    # ... then the driver drops and both caps discharge toward 0 via the
    # 1 MOhm tie with tau = 2 fF * 1 MOhm = 2 ns >> runtime, while the
    # 1 kOhm share resistor keeps them equal.
    b = result.node("b").final
    c = result.node("c").final
    assert b == pytest.approx(c, abs=0.02)
    assert b > 0.95  # barely discharged within 4 ps


def test_branch_current_waveform_available():
    result = transient(rc_circuit(), 20e-12, 0.1e-12)
    current = result.branch_current("vs")
    assert len(current.values) == len(result.times)
    # Peak charging current ~ V/R right after the step.
    assert float(np.max(np.abs(current.values))) == pytest.approx(
        1.0 / 1e4, rel=0.2
    )
