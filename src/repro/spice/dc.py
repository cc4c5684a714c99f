"""DC operating-point and sweep analysis (Newton-Raphson).

The solver assembles the full nonlinear KCL residual and its analytic
Jacobian through the circuit's compiled stamp plan
(:mod:`repro.spice.plan`), then iterates Newton with a per-step
voltage limiter.  Two convergence aids mirror the classic SPICE
strategies:

* **gmin stepping** — a shunt conductance from every transistor's
  drain-source pair is swept from 1e-3 S down to (effectively) zero,
  warm-starting each stage from the previous solution;
* **source stepping** — every independent source (all are voltage
  sources) is ramped from 0 to 100%.

Operating points of bistable circuits (an SRAM cell!) depend on the
initial guess; callers control which stable state they land in by
seeding node voltages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError
from .elements import GROUND_INDEX, SolverState, VoltageSource

#: Maximum Newton update per iteration [V]; limits overshoot through the
#: exponential subthreshold region.
VOLTAGE_STEP_LIMIT = 0.12

#: Convergence tolerances.
VOLTAGE_TOL = 1e-9
RESIDUAL_TOL = 1e-12

MAX_ITERATIONS = 200


@dataclass
class Solution:
    """A converged DC solution.

    ``voltages`` maps node name to volts; ``branch_currents`` maps
    voltage-source name to the MNA branch current (flowing from the
    positive node into the source).
    """

    voltages: dict
    branch_currents: dict
    iterations: int
    x: np.ndarray

    def __getitem__(self, node_name):
        return self.voltages[node_name]

    def source_current(self, source_name):
        """Current delivered by a voltage source [A] (out of its + node)."""
        return -self.branch_currents[source_name]

    def source_power(self, source_name, voltage):
        """Power delivered by the named source at the given voltage [W]."""
        return voltage * self.source_current(source_name)


def _newton(circuit, x0, time=None, dt=None, x_prev=None, gmin=0.0,
            max_iterations=MAX_ITERATIONS):
    """Raw Newton loop; returns (x, iterations) or raises ConvergenceError."""
    x = np.array(x0, dtype=float)
    n_nodes = circuit.n_nodes
    last_residual = np.inf
    assemble = circuit.plan.prepare(SolverState(
        x, time=time, dt=dt, x_prev=x_prev, gmin=gmin))
    for iteration in range(1, max_iterations + 1):
        residual, jacobian = assemble(x)
        last_residual = float(np.max(np.abs(residual)))
        try:
            dx = np.linalg.solve(jacobian, -residual)
        except np.linalg.LinAlgError:
            # Singular Jacobian: regularize gently and continue.
            jacobian = jacobian + 1e-12 * np.eye(len(jacobian))
            dx = np.linalg.solve(jacobian, -residual)
        # Limit only the node-voltage entries; branch currents are linear.
        v_step = dx[:n_nodes]
        worst = np.max(np.abs(v_step)) if n_nodes else 0.0
        if worst > VOLTAGE_STEP_LIMIT:
            dx = dx * (VOLTAGE_STEP_LIMIT / worst)
        x = x + dx
        if worst < VOLTAGE_TOL and last_residual < RESIDUAL_TOL:
            return x, iteration
    raise ConvergenceError(
        "Newton failed to converge in %d iterations (worst residual %.3g A)"
        % (max_iterations, last_residual),
        iterations=max_iterations,
        residual=last_residual,
        time=time,
        voltages=_node_voltages(circuit, x),
    )


def _initial_vector(circuit, initial_guess):
    x0 = np.zeros(circuit.n_unknowns)
    if initial_guess:
        for name, voltage in initial_guess.items():
            idx = circuit.index_of(name)
            if idx != GROUND_INDEX:
                x0[idx] = voltage
    return x0


def _node_voltages(circuit, x):
    """Node name -> volts of an unknown vector."""
    return {name: float(x[idx]) for idx, name in enumerate(circuit.node_names)}


def _solution_from_vector(circuit, x, iterations):
    branch_currents = {
        src.name: float(x[src.branch_index]) for src in circuit.vsources
    }
    return Solution(_node_voltages(circuit, x), branch_currents, iterations,
                    x)


def operating_point(circuit, initial_guess=None):
    """Solve the DC operating point.

    ``initial_guess`` maps node names to starting voltages and selects the
    stable state for bistable circuits.  Falls back to gmin stepping and
    then source stepping when plain Newton fails.
    """
    if not circuit.compiled:
        circuit.compile()
    x0 = _initial_vector(circuit, initial_guess)

    try:
        x, iterations = _newton(circuit, x0)
        return _solution_from_vector(circuit, x, iterations)
    except ConvergenceError:
        pass

    # gmin stepping.
    x = x0
    total_iterations = 0
    try:
        for exponent in range(3, 13):
            gmin = 10.0 ** (-exponent)
            x, iters = _newton(circuit, x, gmin=gmin)
            total_iterations += iters
        x, iters = _newton(circuit, x, gmin=0.0)
        return _solution_from_vector(circuit, x, total_iterations + iters)
    except ConvergenceError:
        pass

    # Source stepping: scale every constant source up from zero.
    originals = [(src, src.value) for src in circuit.vsources]
    x = _initial_vector(circuit, None)
    try:
        total_iterations = 0
        for fraction in np.linspace(0.1, 1.0, 10):
            for src, value in originals:
                if callable(value):
                    src.value = (
                        lambda t, f=fraction, v=value: f * v(t)
                    )
                else:
                    src.value = fraction * value
            x, iters = _newton(circuit, x, gmin=1e-12)
            total_iterations += iters
        for src, value in originals:
            src.value = value
        x, iters = _newton(circuit, x)
        return _solution_from_vector(circuit, x, total_iterations + iters)
    finally:
        for src, value in originals:
            src.value = value


def solve_from(circuit, x_start, time=None, dt=None, x_prev=None):
    """Newton solve warm-started from an explicit unknown vector.

    Used by sweeps and the transient integrator.  Retries once with a
    brief gmin ramp on failure.
    """
    if not circuit.compiled:
        circuit.compile()
    try:
        return _newton(circuit, x_start, time=time, dt=dt, x_prev=x_prev)
    except ConvergenceError:
        x = np.array(x_start, dtype=float)
        iterations = 0
        for exponent in (6, 9, 12):
            x, iters = _newton(
                circuit, x, time=time, dt=dt, x_prev=x_prev,
                gmin=10.0 ** (-exponent),
            )
            iterations += iters
        x, iters = _newton(circuit, x, time=time, dt=dt, x_prev=x_prev)
        return x, iterations + iters


def dc_sweep(circuit, source_name, values, initial_guess=None):
    """Sweep a voltage source through ``values``, warm-starting each point.

    Returns a list of :class:`Solution`.  Warm starting provides natural
    continuation along stable branches of bistable circuits, which is how
    the butterfly curves in :mod:`repro.cell.snm` trace their lobes.
    """
    if not circuit.compiled:
        circuit.compile()
    source = circuit.element(source_name)
    if not isinstance(source, VoltageSource):
        raise TypeError("%r is not a voltage source" % source_name)
    original = source.value
    solutions = []
    try:
        source.value = float(values[0])
        first = operating_point(circuit, initial_guess)
        solutions.append(first)
        x = first.x
        for value in values[1:]:
            source.value = float(value)
            x, iterations = solve_from(circuit, x)
            solutions.append(_solution_from_vector(circuit, x, iterations))
    finally:
        source.value = original
    return solutions
