"""DC analysis: exactness on linear circuits, KCL on random networks,
bistable state selection, sweep continuity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import DeviceLibrary, FinFET
from repro.errors import ConvergenceError
from repro.spice import Circuit, dc_sweep, operating_point
from repro.spice.dc import _initial_vector, _newton

LIB = DeviceLibrary.default_7nm()
VDD = LIB.vdd


def divider(r1=1000.0, r2=1000.0, v=1.0):
    c = Circuit("divider")
    c.add_vsource("vs", "a", "0", v)
    c.add_resistor("r1", "a", "m", r1)
    c.add_resistor("r2", "m", "0", r2)
    return c


def test_resistor_divider_exact():
    sol = operating_point(divider(3000.0, 1000.0, 2.0))
    assert sol["m"] == pytest.approx(0.5)
    assert sol.source_current("vs") == pytest.approx(2.0 / 4000.0)


def test_source_current_sign_convention():
    # 1 V across 2 kOhm: the source delivers 0.5 mA out of its + node.
    sol = operating_point(divider())
    # MNA branch current flows into the + terminal, hence negative here.
    assert sol.branch_currents["vs"] == pytest.approx(-0.5e-3)
    assert sol.source_current("vs") == pytest.approx(0.5e-3)
    # Delivered power is positive for a supplying source.
    assert sol.source_power("vs", 1.0) == pytest.approx(0.5e-3)


def test_two_sources_superposition():
    c = Circuit()
    c.add_vsource("v1", "a", "0", 1.0)
    c.add_vsource("v2", "b", "0", -1.0)
    c.add_resistor("r1", "a", "m", 1000.0)
    c.add_resistor("r2", "b", "m", 1000.0)
    sol = operating_point(c)
    assert sol["m"] == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=10.0, max_value=1e6),
                min_size=3, max_size=8),
       st.floats(min_value=0.1, max_value=10.0))
def test_kcl_on_random_resistor_ladders(resistances, v_in):
    """Property: solved ladders satisfy KCL at every internal node."""
    c = Circuit("ladder")
    c.add_vsource("vs", "n0", "0", v_in)
    for k, r in enumerate(resistances):
        c.add_resistor("r%d" % k, "n%d" % k, "n%d" % (k + 1), r)
    c.add_resistor("rload", "n%d" % len(resistances), "0", 500.0)
    sol = operating_point(c)
    voltages = [v_in] + [sol["n%d" % (k + 1)]
                         for k in range(len(resistances))]
    # Current through each series resistor must be identical.
    currents = [
        (voltages[k] - voltages[k + 1]) / resistances[k]
        for k in range(len(resistances))
    ]
    tail = voltages[-1] / 500.0
    for current in currents:
        assert current == pytest.approx(tail, rel=1e-6, abs=1e-12)


def latch_circuit():
    """Cross-coupled inverters: a bistable circuit."""
    c = Circuit("latch")
    c.add_vsource("vps", "vdd", "0", VDD)
    c.add_fet("p1", FinFET(LIB.pfet_lvt), "b", "a", "vdd")
    c.add_fet("n1", FinFET(LIB.nfet_lvt), "b", "a", "0")
    c.add_fet("p2", FinFET(LIB.pfet_lvt), "a", "b", "vdd")
    c.add_fet("n2", FinFET(LIB.nfet_lvt), "a", "b", "0")
    return c


def test_bistable_initial_guess_selects_state():
    high_a = operating_point(latch_circuit(),
                             initial_guess={"a": VDD, "b": 0.0})
    assert high_a["a"] > 0.9 * VDD
    assert high_a["b"] < 0.1 * VDD
    high_b = operating_point(latch_circuit(),
                             initial_guess={"a": 0.0, "b": VDD})
    assert high_b["b"] > 0.9 * VDD
    assert high_b["a"] < 0.1 * VDD


def test_inverter_vtc_endpoints_and_monotonicity():
    c = Circuit("inv")
    c.add_vsource("vps", "vdd", "0", VDD)
    c.add_vsource("vin", "in", "0", 0.0)
    c.add_fet("mp", FinFET(LIB.pfet_lvt), "in", "out", "vdd")
    c.add_fet("mn", FinFET(LIB.nfet_lvt), "in", "out", "0")
    sols = dc_sweep(c, "vin", np.linspace(0.0, VDD, 31),
                    initial_guess={"out": VDD})
    outs = [s["out"] for s in sols]
    assert outs[0] > 0.98 * VDD
    assert outs[-1] < 0.02 * VDD
    assert all(a >= b - 1e-9 for a, b in zip(outs, outs[1:]))


def test_dc_sweep_restores_source_value():
    c = divider()
    source = c.element("vs")
    dc_sweep(c, "vs", [0.5, 1.0, 1.5])
    assert source.value == 1.0


def test_dc_sweep_requires_voltage_source():
    c = divider()
    with pytest.raises(TypeError):
        dc_sweep(c, "r1", [1.0])


def test_solution_getitem():
    sol = operating_point(divider())
    assert sol["m"] == sol.voltages["m"]
    assert sol.iterations >= 1


def test_convergence_error_carries_operating_point():
    """A failed Newton loop reports its iterations, residual, time point
    and the node voltages of its last iterate."""
    c = Circuit("inverter")
    c.add_vsource("vdd", "vdd", "0", VDD)
    c.add_vsource("vin", "in", "0", 0.0)
    c.add_fet("mp", FinFET(LIB.pfet_lvt), "in", "out", "vdd")
    c.add_fet("mn", FinFET(LIB.nfet_lvt), "in", "out", "0")
    c.compile()
    with pytest.raises(ConvergenceError) as info:
        _newton(c, _initial_vector(c, {"out": 0.0}), max_iterations=1)
    err = info.value
    assert err.iterations == 1
    assert err.residual > 0
    assert err.time is None
    assert set(err.voltages) == set(c.node_names)
    # One limited Newton step from out = 0 toward the high output.
    assert 0.0 < err.voltages["out"] <= 0.12
    assert all(isinstance(v, float) for v in err.voltages.values())
