"""Circuit elements for the built-in simulator.

Every element defines its contribution to the Newton-Raphson system of
:mod:`repro.spice.dc` through the residual-stamping interface

``stamp(state, residual, jacobian)``

where ``state`` is a :class:`SolverState` carrying the current unknown
vector and (during transient analysis) the previous time point's.  The
residual convention is nodal KCL: for each non-ground node, the sum of
currents flowing *out of the node into elements* must be zero.  Voltage
sources add one branch-current unknown and one constraint row each
(modified nodal analysis).

The solvers do not call ``stamp``: they run the compiled
:class:`repro.spice.plan.StampPlan`, which evaluates every element of a
kind at once and must reproduce these stamps bit for bit.  ``stamp``
is the executable specification that ``tests/test_spice_plan.py``
checks the plan against.
"""

from __future__ import annotations

import numpy as np

from ..devices.model import FinFET
from ..errors import NetlistError

GROUND_INDEX = -1


class SolverState:
    """One Newton solve's unknown vector and what the solve holds fixed.

    The solvers build one per solve (the unknowns it starts from); the
    ``Element.stamp`` reference reads one per iterate.

    Attributes
    ----------
    x:
        The unknown vector: node voltages followed by source branch
        currents.
    time, dt:
        Transient time point and step (``None`` during DC analysis).
    x_prev:
        Unknown vector at the previous accepted time point (transient
        only); used by capacitor companion models.
    gmin:
        Extra conductance to ground applied by every element's
        high-impedance nodes (convergence aid; 0 when not stepping).
    """

    def __init__(self, x, time=None, dt=None, x_prev=None, gmin=0.0):
        self.x = x
        self.time = time
        self.dt = dt
        self.x_prev = x_prev
        self.gmin = gmin

    def voltage(self, index):
        """Voltage of a node index (ground reads as 0)."""
        if index == GROUND_INDEX:
            return 0.0
        return self.x[index]

    def voltage_prev(self, index):
        """Previous-timepoint voltage of a node index."""
        if index == GROUND_INDEX or self.x_prev is None:
            return 0.0
        return self.x_prev[index]

    @property
    def transient(self):
        return self.dt is not None


def _add(matrix_or_vector, row, value):
    if row != GROUND_INDEX:
        matrix_or_vector[row] += value


def _add_jac(jacobian, row, col, value):
    if row != GROUND_INDEX and col != GROUND_INDEX:
        jacobian[row, col] += value


class Element:
    """Base class; subclasses define nodes and stamping."""

    name = "element"

    def node_indices(self):
        """Indices of the nodes this element touches."""
        raise NotImplementedError

    def stamp(self, state, residual, jacobian):
        raise NotImplementedError


class Resistor(Element):
    """Linear resistor between nodes ``a`` and ``b``."""

    def __init__(self, name, a, b, resistance):
        if resistance <= 0:
            raise NetlistError("resistor %s must have positive resistance" % name)
        self.name = name
        self.a = a
        self.b = b
        self.resistance = float(resistance)

    def node_indices(self):
        return (self.a, self.b)

    def stamp(self, state, residual, jacobian):
        g = 1.0 / self.resistance
        va = state.voltage(self.a)
        vb = state.voltage(self.b)
        current = g * (va - vb)
        _add(residual, self.a, current)
        _add(residual, self.b, -current)
        _add_jac(jacobian, self.a, self.a, g)
        _add_jac(jacobian, self.a, self.b, -g)
        _add_jac(jacobian, self.b, self.a, -g)
        _add_jac(jacobian, self.b, self.b, g)


class Capacitor(Element):
    """Linear capacitor; open in DC.  In transient it stamps the
    backward-Euler companion model ``i = (C/h)(v - v_prev)``."""

    def __init__(self, name, a, b, capacitance):
        if capacitance <= 0:
            raise NetlistError("capacitor %s must have positive capacitance" % name)
        self.name = name
        self.a = a
        self.b = b
        self.capacitance = float(capacitance)

    def node_indices(self):
        return (self.a, self.b)

    def stamp(self, state, residual, jacobian):
        if not state.transient:
            return
        geq = self.capacitance / state.dt
        dv = (state.voltage(self.a) - state.voltage(self.b)) - (
            state.voltage_prev(self.a) - state.voltage_prev(self.b))
        current = geq * dv
        _add(residual, self.a, current)
        _add(residual, self.b, -current)
        _add_jac(jacobian, self.a, self.a, geq)
        _add_jac(jacobian, self.a, self.b, -geq)
        _add_jac(jacobian, self.b, self.a, -geq)
        _add_jac(jacobian, self.b, self.b, geq)


class VoltageSource(Element):
    """Independent voltage source with an MNA branch-current unknown.

    ``value`` is either a constant voltage [V] or a callable ``f(t)`` for
    transient stimuli.  The branch current is defined flowing from the
    positive node *into* the source; the power the source delivers to the
    circuit is therefore ``-V * i_branch``.
    """

    def __init__(self, name, plus, minus, value, branch_index=None):
        self.name = name
        self.plus = plus
        self.minus = minus
        self.value = value
        self.branch_index = branch_index

    def node_indices(self):
        return (self.plus, self.minus)

    def voltage_at(self, time):
        """Source voltage at ``time`` (time ignored for constants).

        Scalar values come back as floats; array-valued sources (one
        level per lane of a batched analysis) come back as arrays.
        """
        if callable(self.value):
            value = self.value(0.0 if time is None else time)
        else:
            value = self.value
        if np.ndim(value) == 0:
            return float(value)
        return np.asarray(value, dtype=float)

    def stamp(self, state, residual, jacobian):
        if self.branch_index is None:
            raise NetlistError(
                "voltage source %s was not assigned a branch index "
                "(compile the circuit first)" % self.name
            )
        j = state.x[self.branch_index]
        _add(residual, self.plus, j)
        _add(residual, self.minus, -j)
        _add_jac(jacobian, self.plus, self.branch_index, 1.0)
        _add_jac(jacobian, self.minus, self.branch_index, -1.0)
        vp = state.voltage(self.plus)
        vm = state.voltage(self.minus)
        residual[self.branch_index] += vp - vm - self.voltage_at(state.time)
        _add_jac(jacobian, self.branch_index, self.plus, 1.0)
        _add_jac(jacobian, self.branch_index, self.minus, -1.0)


class Transistor(Element):
    """A FinFET instance wired (gate, drain, source).

    The gate is treated as a pure capacitive terminal (zero DC current);
    gate/drain capacitances from the device parameters are *not* stamped
    automatically — add explicit :class:`Capacitor` elements where load
    modeling matters, mirroring how the paper separates I-V behaviour
    from look-up-table capacitance values.

    A per-device ``gmin`` (from the solver's stepping loop) is stamped
    drain-to-source to aid convergence in deep cutoff.
    """

    def __init__(self, name, device, gate, drain, source):
        if not isinstance(device, FinFET):
            raise NetlistError(
                "transistor %s requires a FinFET device instance" % name
            )
        self.name = name
        self.device = device
        self.gate = gate
        self.drain = drain
        self.source = source

    def node_indices(self):
        return (self.gate, self.drain, self.source)

    def stamp(self, state, residual, jacobian):
        vg = state.voltage(self.gate)
        vd = state.voltage(self.drain)
        vs = state.voltage(self.source)
        i_d, d_vg, d_vd, d_vs = self.device.current_and_derivatives(vg, vd, vs)
        if state.gmin:
            i_d += state.gmin * (vd - vs)
            d_vd += state.gmin
            d_vs -= state.gmin
        _add(residual, self.drain, i_d)
        _add(residual, self.source, -i_d)
        for col, dval in ((self.gate, d_vg), (self.drain, d_vd), (self.source, d_vs)):
            _add_jac(jacobian, self.drain, col, dval)
            _add_jac(jacobian, self.source, col, -dval)
