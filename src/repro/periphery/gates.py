"""Unit logic gates (inverter, NAND-m) and their characterization.

The decoder and driver models are assembled from characterized unit
gates, mirroring the paper's "derived analytically and verified by SPICE
simulations" methodology: each gate's propagation delay is fitted to the
linear model ``d(C_load) = d0 + r * C_load`` from two transient
simulations, and its switching energy to ``e(C_load) = e0 + C_load *
Vdd**2`` (internal energy plus load energy).  Each simulation is one
:func:`gate_point` and :func:`fit_gate` fits the two, so a cold
characterization can run the two load points as separate stages.

All periphery gates use LVT devices, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..devices.model import FinFET
from ..spice.netlist import Circuit
from ..spice.stimuli import pulse
from ..spice.transient import transient

#: Stimulus timing for the gate testbenches: a full input pulse so the
#: measured supply energy covers one complete output fall+rise cycle
#: (one load charge), making e(C) = e0 + C*V^2 directly fittable.  The
#: pulse width adapts to the expected RC of the gate (series NFET stacks
#: at near-threshold supplies are many times slower than an inverter).
_T_START = 0.5e-12
_T_RISE = 0.1e-12
_DT = 5e-14

#: Rough single-fin LVT inverter drive resistance [ohm] used only to
#: size testbench windows (the characterized value replaces it).
_R_GUESS = 11e3


def inverter_circuit(library, nfin, v_supply, load_cap, input_value):
    """An LVT inverter of ``nfin`` fins driving ``load_cap``."""
    circuit = Circuit("inverter")
    circuit.add_vsource("vps", "vdd", "0", v_supply)
    circuit.add_vsource("vin", "in", "0", input_value)
    circuit.add_fet("mp", FinFET(library.pfet_lvt, nfin), "in", "out", "vdd")
    circuit.add_fet("mn", FinFET(library.nfet_lvt, nfin), "in", "out", "0")
    # Output parasitics: the two drain junctions.
    circuit.add_capacitor(
        "cpar", "out", "0",
        (library.pfet_lvt.c_drain + library.nfet_lvt.c_drain) * nfin,
    )
    if load_cap > 0:
        circuit.add_capacitor("cl", "out", "0", load_cap)
    return circuit


def nand_circuit(library, fan_in, nfin, v_supply, load_cap, input_value):
    """An LVT ``fan_in``-input NAND with the critical (bottom) input
    switching and all other inputs held high."""
    circuit = Circuit("nand%d" % fan_in)
    circuit.add_vsource("vps", "vdd", "0", v_supply)
    circuit.add_vsource("vin", "in", "0", input_value)
    # Parallel PFETs: the switching input plus (fan_in - 1) held-off ones.
    circuit.add_fet("mp0", FinFET(library.pfet_lvt, nfin), "in", "out", "vdd")
    for k in range(1, fan_in):
        circuit.add_fet(
            "mp%d" % k, FinFET(library.pfet_lvt, nfin), "vdd", "out", "vdd"
        )
    # Series NFET stack; the switching input at the bottom (worst case).
    node = "out"
    for k in range(fan_in - 1):
        mid = "s%d" % k
        circuit.add_fet(
            "mn%d" % k, FinFET(library.nfet_lvt, nfin), "vdd", node, mid
        )
        node = mid
    circuit.add_fet(
        "mn%d" % (fan_in - 1), FinFET(library.nfet_lvt, nfin),
        "in", node, "0",
    )
    # Output parasitics: all PFET drains plus the top NFET drain.
    circuit.add_capacitor(
        "cpar", "out", "0",
        (fan_in * library.pfet_lvt.c_drain + library.nfet_lvt.c_drain) * nfin,
    )
    if load_cap > 0:
        circuit.add_capacitor("cl", "out", "0", load_cap)
    return circuit


@dataclass(frozen=True)
class GateCharacterization:
    """Linear delay/energy model of one gate: d = d0 + r*C, e = e0 + C*V^2."""

    name: str
    #: Intrinsic (zero-load) delay [s].
    d0: float
    #: Effective drive resistance [s/F = ohm].
    drive_resistance: float
    #: Internal switching energy [J].
    e0: float
    #: Supply voltage the model was characterized at [V].
    v_supply: float
    #: Input gate capacitance presented to the previous stage [F].
    c_input: float

    def delay(self, load_cap):
        """Propagation delay [s] into ``load_cap``."""
        return self.d0 + self.drive_resistance * load_cap

    def energy(self, load_cap):
        """Switching energy [J] of one output transition into the load."""
        return self.e0 + load_cap * self.v_supply ** 2


def gate_window(slowness, load_cap):
    """When a testbench's input pulse falls [s]: the gate's expected RC
    (``slowness`` is the NFET stack height) with margin.  The run ends
    soon after, so a :func:`gate_point`'s cost grows with it."""
    return _T_START + 8.0 * slowness * _R_GUESS * load_cap + 5e-12


def _measure(circuit_builder, v_supply, load_cap, slowness=1):
    """One transient: returns (propagation delay, supply energy).

    The input pulses high and back low; the delay is measured on the
    first (output-falling) edge and the supply energy over the whole
    cycle, which includes exactly one full recharge of the load.
    ``slowness`` (the NFET stack height) scales the testbench window.
    """
    t_fallback = gate_window(slowness, load_cap)
    t_stop = 2.5 * t_fallback
    stimulus = pulse(0.0, v_supply, _T_START,
                     t_fallback - _T_START, _T_RISE)
    circuit = circuit_builder(load_cap, stimulus)
    half = 0.5 * v_supply
    result = transient(
        circuit, t_stop, _DT,
        stop_condition=lambda t, v: (
            t > t_fallback and v["out"] > 0.98 * v_supply
        ),
        stop_margin=3,
    )
    t_in = result.node("in").cross(half, "rise")
    t_out = result.node("out").cross(half, "fall")
    energy = result.delivered_energy("vps", t_start=_T_START)
    return t_out - t_in, energy


def characterize_inverter(library, nfin=1, v_supply=None, loads=None):
    """Fit the linear gate model for an ``nfin``-fin inverter."""
    return _characterize(library, 1, nfin, v_supply, loads)


def characterize_nand(library, fan_in, nfin=1, v_supply=None, loads=None):
    """Fit the linear gate model for a ``fan_in``-input NAND."""
    return _characterize(library, fan_in, nfin, v_supply, loads)


def _characterize(library, fan_in, nfin, v_supply, loads):
    loads = gate_loads(library, nfin) if loads is None else loads
    points = [gate_point(library, fan_in, load, nfin, v_supply)
              for load in loads]
    return fit_gate(library, fan_in, points, nfin, v_supply, loads)


def gate_loads(library, nfin=1):
    """The two default fit loads: 1.5x and 5x the gate's input
    capacitance [F]."""
    c_in = _input_capacitance(library, nfin)
    return (1.5 * c_in, 5.0 * c_in)


def _input_capacitance(library, nfin):
    return (library.nfet_lvt.c_gate + library.pfet_lvt.c_gate) * nfin


def gate_point(library, fan_in, load_cap, nfin=1, v_supply=None):
    """One load point of a gate fit: ``(delay, supply energy)`` of the
    ``fan_in``-input NAND (``fan_in`` 1: the inverter) driving
    ``load_cap``."""
    v_supply = library.vdd if v_supply is None else v_supply
    if fan_in == 1:
        def builder(load, stim):
            return inverter_circuit(library, nfin, v_supply, load, stim)
    else:
        def builder(load, stim):
            return nand_circuit(library, fan_in, nfin, v_supply, load, stim)
    return _measure(builder, v_supply, load_cap, slowness=fan_in)


def fit_gate(library, fan_in, points, nfin=1, v_supply=None, loads=None):
    """The linear gate model from the :func:`gate_point` results
    ``points`` at ``loads`` (default :func:`gate_loads`)."""
    v_supply = library.vdd if v_supply is None else v_supply
    (load_a, load_b) = gate_loads(library, nfin) if loads is None else loads
    (d_a, e_a), (d_b, e_b) = points
    resistance = (d_b - d_a) / (load_b - load_a)
    d0 = d_a - resistance * load_a
    # Internal energy: subtract the load's own CV^2 from the measured
    # supply energy at the smaller load.
    e0 = max(e_a - load_a * v_supply ** 2, 0.0)
    return GateCharacterization(
        name=("inv_x%d" % nfin if fan_in == 1
              else "nand%d_x%d" % (fan_in, nfin)),
        d0=max(d0, 0.0),
        drive_resistance=resistance,
        e0=e0,
        v_supply=v_supply,
        c_input=_input_capacitance(library, nfin),
    )
