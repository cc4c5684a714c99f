"""Cross-cutting property tests for the circuit simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spice import Circuit, operating_point, step, transient


@settings(max_examples=25, deadline=None)
@given(
    resistances=st.lists(st.floats(min_value=100.0, max_value=1e5),
                         min_size=2, max_size=5),
    v_in=st.floats(min_value=0.2, max_value=5.0),
)
def test_parallel_resistors_conductances_add(resistances, v_in):
    """Property: N parallel resistors draw V * sum(1/R)."""
    circuit = Circuit("parallel")
    circuit.add_vsource("vs", "a", "0", v_in)
    for k, r in enumerate(resistances):
        circuit.add_resistor("r%d" % k, "a", "0", r)
    sol = operating_point(circuit)
    expected = v_in * sum(1.0 / r for r in resistances)
    assert sol.source_current("vs") == pytest.approx(expected, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    caps=st.lists(st.floats(min_value=0.2e-15, max_value=5e-15),
                  min_size=1, max_size=4),
    v_step=st.floats(min_value=0.2, max_value=2.0),
)
def test_total_charge_delivered_to_parallel_caps(caps, v_step):
    """Property: after settling, the source delivered sum(C)*V^2 into
    parallel RC branches (half stored, half dissipated — total C*V^2)."""
    circuit = Circuit("rc_bank")
    circuit.add_vsource("vs", "a", "0", step(1e-12, 0.0, v_step, 1e-15))
    for k, c in enumerate(caps):
        circuit.add_resistor("r%d" % k, "a", "m%d" % k, 5e3)
        circuit.add_capacitor("c%d" % k, "m%d" % k, "0", c)
    tau_max = 5e3 * max(caps)
    result = transient(circuit, 1e-12 + 12.0 * tau_max, tau_max / 40.0)
    expected = sum(caps) * v_step ** 2
    assert result.delivered_energy("vs") == pytest.approx(
        expected, rel=0.05
    )


@st.composite
def rc_trees(draw):
    """A step-driven RC tree: 1-5 nodes, each hung from the source node
    or an earlier node through 100 ohm - 100 kohm, each with a grounded
    0.1-10 fF capacitor; a 0 -> V step at t = 0, and a step dt."""
    n = draw(st.integers(1, 5))
    parents = [draw(st.integers(0, k)) for k in range(n)]
    resistances = draw(st.lists(st.floats(100.0, 1e5), min_size=n,
                                max_size=n))
    caps = draw(st.lists(st.floats(0.1e-15, 10e-15), min_size=n,
                         max_size=n))
    v_step = draw(st.floats(0.1, 2.0))
    dt = draw(st.floats(0.01e-12, 1e-12))
    circuit = Circuit("rc_tree")
    circuit.add_vsource("vs", "n0", "0", step(0.0, 0.0, v_step))
    for k in range(n):
        node = "n%d" % (k + 1)
        circuit.add_resistor("r%d" % k, "n%d" % parents[k], node,
                             resistances[k])
        circuit.add_capacitor("c%d" % k, node, "0", caps[k])
    return circuit, v_step, dt


@settings(max_examples=40, deadline=None)
@given(rc_trees())
def test_backward_euler_step_response_is_bounded_and_monotone(tree):
    """Property: backward Euler's discrete maximum principle.  On an RC
    tree with grounded capacitors, each step's node voltages are a
    convex combination of the previous step's and the source level, so
    a 0 -> V step response stays within [0, V] and never decreases at
    any node, however stiff the step (the trapezoidal rule rings here)."""
    circuit, v_step, dt = tree
    result = transient(circuit, 40.0 * dt, dt)
    for node in circuit.node_names:
        values = result.node(node).values
        assert values.min() >= -1e-9
        assert values.max() <= v_step + 1e-9
        assert np.diff(values).min() >= -1e-9


def test_transistor_circuit_kcl_residual(library):
    """The converged inverter operating point satisfies KCL to solver
    tolerance when re-evaluated from raw device currents."""
    from repro.devices import FinFET

    circuit = Circuit("inv")
    circuit.add_vsource("vps", "vdd", "0", library.vdd)
    circuit.add_vsource("vin", "in", "0", 0.2)
    mp = FinFET(library.pfet_lvt)
    mn = FinFET(library.nfet_lvt)
    circuit.add_fet("mp", mp, "in", "out", "vdd")
    circuit.add_fet("mn", mn, "in", "out", "0")
    sol = operating_point(circuit)
    out = sol["out"]
    i_p = mp.current(0.2, out, library.vdd)
    i_n = mn.current(0.2, out, 0.0)
    assert i_p + i_n == pytest.approx(0.0, abs=1e-11)
