"""The compiled stamp plan against the element-by-element stamps.

``Circuit.compile()`` builds a :class:`repro.spice.plan.StampPlan` that
assembles the residual and Jacobian of the whole circuit in a few numpy
calls: ``prepare(state)`` does the per-solve part once, and the function
it returns does the per-iteration part at each Newton iterate.  Every
solver runs it, and the characterization caches depend on its bits, so
at every iterate it must equal the reference loop over ``Element.stamp``
exactly -- compared here through ``tobytes()``, with no tolerance --
for every element kind, analysis and lane layout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import DeviceLibrary, FinFET
from repro.errors import NetlistError
from repro.spice import Circuit, operating_point, step
from repro.spice.batch import _select_lanes
from repro.spice.elements import SolverState

LIB = DeviceLibrary.default_7nm()
VDD = LIB.vdd
LANES = 4
LEVELS = np.linspace(0.2, VDD, LANES)


def stamp_reference(circuit, state):
    """The element-by-element assembly the plan must reproduce."""
    shape = np.shape(state.x)
    residual, jacobian = np.zeros(shape), np.zeros((shape[0],) + shape)
    for element in circuit.elements:
        element.stamp(state, residual, jacobian)
    return residual, jacobian


def mixed_circuit(v_in, v_supply=VDD):
    """Every element kind; grounded gates, drains and sources; NFETs and
    PFETs of both flavors with 1-3 fins; a source between two
    non-ground nodes."""
    c = Circuit("mixed")
    c.add_vsource("vdd", "vdd", "0", v_supply)
    c.add_vsource("vin", "in", "0", v_in)
    c.add_resistor("rg", "in", "g", 2e3)
    c.add_fet("mp", FinFET(LIB.pfet_lvt, 2), "g", "out", "vdd")
    c.add_fet("mn", FinFET(LIB.nfet_hvt, 3), "g", "out", "0")
    c.add_fet("mx", FinFET(LIB.nfet_lvt, 1), "vdd", "mid", "out")
    c.add_fet("mk", FinFET(LIB.pfet_hvt, 3), "0", "0", "mid")
    c.add_capacitor("cl", "out", "0", 1e-15)
    c.add_capacitor("cm", "mid", "out", 0.4e-15)
    c.add_vsource("vsh", "mid", "tap", 0.05)
    c.add_resistor("rt", "tap", "0", 1e5)
    return c.compile()


def scalar_circuit():
    return mixed_circuit(step(1e-12, 0.0, VDD, 2e-12))


def batched_circuit():
    # Array-valued constant supply and array-valued stimulus callable,
    # one level per lane.
    return mixed_circuit(step(1e-12, 0.0, LEVELS, 2e-12),
                         v_supply=LEVELS[::-1].copy())


STATES = {
    "dc": {},
    "dc_gmin": {"gmin": 1e-6},
    "be": {"time": 2e-12, "dt": 1e-13, "x_prev": "random"},
    "be_no_history": {"time": 2e-12, "dt": 1e-13, "x_prev": None},
    "be_gmin": {"time": 1.5e-12, "dt": 5e-14, "x_prev": "random",
                "gmin": 1e-9},
}


def make_state(circuit, kind, rng, lanes=None):
    shape = (circuit.n_unknowns,) + (() if lanes is None else (lanes,))
    kwargs = dict(STATES[kind])
    if kwargs.get("x_prev") == "random":
        kwargs["x_prev"] = rng.uniform(-0.2, 0.9, shape)
    return SolverState(rng.uniform(-0.2, 0.9, shape), **kwargs)


def at_iterate(state, x):
    """``state`` with the unknowns ``x`` (the same solve's next iterate)."""
    return SolverState(x, time=state.time, dt=state.dt,
                       x_prev=state.x_prev, gmin=state.gmin)


def assert_bitwise_equal(circuit, state, rng=None, iterates=0):
    """One per-solve part at ``state``; its per-iteration part at
    ``state.x`` and at ``iterates`` further random iterates must equal
    the stamp loop there."""
    assemble = circuit.plan.prepare(state)
    xs = [state.x] + [rng.uniform(-0.2, 0.9, np.shape(state.x))
                      for _ in range(iterates)]
    for x in xs:
        ref_residual, ref_jacobian = stamp_reference(circuit,
                                                     at_iterate(state, x))
        residual, jacobian = assemble(x)
        assert residual.shape == ref_residual.shape
        assert jacobian.shape == ref_jacobian.shape
        assert residual.tobytes() == ref_residual.tobytes()
        assert jacobian.tobytes() == ref_jacobian.tobytes()


@pytest.mark.parametrize("kind", sorted(STATES))
def test_scalar_assembly_matches_stamps(kind):
    circuit = scalar_circuit()
    rng = np.random.default_rng(11)
    for _ in range(20):
        assert_bitwise_equal(circuit, make_state(circuit, kind, rng), rng,
                             iterates=2)


@pytest.mark.parametrize("kind", sorted(STATES))
def test_lane_assembly_matches_stamps(kind):
    circuit = batched_circuit()
    rng = np.random.default_rng(12)
    for _ in range(10):
        assert_bitwise_equal(circuit,
                             make_state(circuit, kind, rng, lanes=LANES),
                             rng, iterates=2)


#: Live-lane subsets of a 4-lane batch, as a march narrows it.
live_lanes = st.lists(st.integers(0, LANES - 1), min_size=1,
                      max_size=LANES, unique=True).map(sorted)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(STATES)),
       widths=st.lists(live_lanes, min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_assembly_after_lanes_are_narrowed(kind, widths, seed):
    """A transient batch narrows its array-valued sources to the lanes
    still marching (``_select_lanes``): the per-solve part at each
    width, with the scatter bins cached per lane count, must still
    equal the stamp loop, and again once the full width is back."""
    circuit = batched_circuit()
    rng = np.random.default_rng(seed)
    originals = [(src, src.value) for src in circuit.vsources]
    try:
        for live in widths + [list(range(LANES))]:
            for src, value in originals:
                src.value = _select_lanes(value, np.array(live))
            assert_bitwise_equal(
                circuit, make_state(circuit, kind, rng, lanes=len(live)),
                rng, iterates=2)
    finally:
        for src, value in originals:
            src.value = value


def test_source_values_are_read_at_every_assembly():
    """Sweeps and source stepping reassign source values after compile."""
    circuit = scalar_circuit()
    state = make_state(circuit, "dc", np.random.default_rng(13))
    circuit.element("vdd").value = 0.55
    assert_bitwise_equal(circuit, state)


def test_resistor_only_circuit():
    c = Circuit("ladder")
    c.add_vsource("vs", "a", "0", 1.0)
    c.add_resistor("r1", "a", "b", 1e3)
    c.add_resistor("r2", "b", "0", 3e3)
    c.compile()
    assert_bitwise_equal(c, SolverState(np.array([1.0, 0.2, -1e-3])))
    assert operating_point(c)["b"] == pytest.approx(0.75)


def test_batched_parameters_rejected_at_compile():
    """Per-sample (Monte Carlo) device parameters cannot be stamped: a
    circuit carries one parameter set."""
    c = Circuit("mc")
    c.add_vsource("vg", "g", "0", VDD)
    c.add_vsource("vd", "d", "0", VDD)
    c.add_fet("m", FinFET(LIB.nfet_lvt.with_vt_shifts([0.0, 0.02])),
              "g", "d", "0")
    with pytest.raises(NetlistError, match="batched"):
        c.compile()
    with pytest.raises(NetlistError, match="batched"):
        operating_point(c)


# -- the current-only device path ---------------------------------------------

def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("flavor", ["nfet_lvt", "nfet_hvt", "pfet_lvt",
                                    "pfet_hvt"])
@pytest.mark.parametrize("nfin", [1, 3])
def test_current_equals_current_and_derivatives(flavor, nfin):
    device = FinFET(getattr(LIB, flavor), nfin)
    rng = np.random.default_rng(14)
    # Forward, reverse and equal drain/source, scalar and array inputs.
    vg = rng.uniform(-0.2, 0.9, 64)
    vd = rng.uniform(-0.2, 0.9, 64)
    vs = np.where(np.arange(64) % 8 == 0, vd, rng.uniform(-0.2, 0.9, 64))
    assert (vd > vs).any() and (vd < vs).any() and (vd == vs).any()
    full = device.current_and_derivatives(vg, vd, vs)[0]
    assert _bits(device.current(vg, vd, vs)) == _bits(full)
    for k in range(0, 64, 7):
        args = (float(vg[k]), float(vd[k]), float(vs[k]))
        scalar = device.current(*args)
        assert isinstance(scalar, float)
        assert _bits(scalar) == _bits(device.current_and_derivatives(*args)[0])
        assert _bits(scalar) == _bits(full[k])


@pytest.mark.parametrize("flavor", ["nfet_lvt", "pfet_hvt"])
def test_current_equals_current_and_derivatives_batched_vt(flavor):
    params = getattr(LIB, flavor).with_vt_shifts([-0.03, 0.0, 0.01, 0.04])
    device = FinFET(params, 2)
    sweep = np.linspace(-0.1, VDD, 9)
    for args in ((VDD, sweep, 0.0), (sweep, 0.0, VDD), (0.3, 0.2, 0.2)):
        assert _bits(device.current(*args)) == _bits(
            device.current_and_derivatives(*args)[0])
