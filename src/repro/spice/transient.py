"""Transient analysis (backward Euler, with automatic step refinement).

The integrator starts from a DC operating point (sources evaluated at
t = 0), then marches fixed steps of ``dt``, halving the step locally when
Newton fails at a time point.  Backward Euler is unconditionally stable
and — for the delay/energy characterization this library needs — its
numerical damping is harmless, because measurements compare crossing
times of strongly driven nodes.  On a network of resistors and grounded
capacitors it also never overshoots: each step is a convex combination
of the previous state and the sources (the discrete maximum principle).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConvergenceError
from .dc import operating_point, solve_from
from .waveform import TransientResult

#: How many times a failing step may be halved before giving up.
MAX_STEP_HALVINGS = 8


def transient(circuit, t_stop, dt, initial_guess=None, stop_condition=None,
              stop_margin=0):
    """Integrate the circuit from 0 to ``t_stop`` with base step ``dt``.

    ``initial_guess`` seeds the t=0 operating point (it selects the
    initial state of bistable circuits such as an SRAM cell).

    ``stop_condition``, if given, is called after each accepted step as
    ``f(t, voltages)`` with a dict of node voltages; once it returns
    True the run continues for ``stop_margin`` further steps and then
    ends early.  This keeps characterization sweeps cheap: a cell-flip
    measurement can end right after the crossover instead of integrating
    the full window.

    Returns a :class:`repro.spice.waveform.TransientResult`.
    """
    check_time_window(t_stop, dt)
    if not circuit.compiled:
        circuit.compile()

    op = operating_point(circuit, initial_guess)
    x = np.array(op.x, dtype=float)

    times = [0.0]
    states = [x.copy()]
    t = 0.0
    step = dt
    remaining_after_stop = None
    while t < t_stop - 1e-21:
        step = min(step, t_stop - t)
        x, accepted_step = _advance(circuit, x, t, step)
        t += accepted_step
        times.append(t)
        states.append(x.copy())
        if stop_condition is not None and remaining_after_stop is None:
            voltages = {
                name: float(x[idx])
                for idx, name in enumerate(circuit.node_names)
            }
            if stop_condition(t, voltages):
                remaining_after_stop = stop_margin
        if remaining_after_stop is not None:
            if remaining_after_stop <= 0:
                break
            remaining_after_stop -= 1
        # Grow the step back toward the base dt after a halving.
        step = min(dt, step * 2.0)

    return _package(circuit, times, states)


def check_time_window(t_stop, dt):
    """Reject a transient window that is not positive and finite."""
    if not (0.0 < t_stop < math.inf and 0.0 < dt < math.inf):
        raise ValueError(
            "t_stop and dt must be positive and finite; got t_stop=%r, "
            "dt=%r" % (t_stop, dt)
        )


def _advance(circuit, x, t, step):
    """One accepted time step, halving on Newton failure.

    When even the smallest step fails, the raised error carries the
    last attempt's time point, iteration count, residual and node
    voltages, and chains it as ``__cause__``.
    """
    for _attempt in range(MAX_STEP_HALVINGS + 1):
        time = t + step
        try:
            x_next, _iters = solve_from(circuit, x, time=time, dt=step,
                                        x_prev=x)
            return x_next, step
        except ConvergenceError as err:
            last = err
            step *= 0.5
    raise ConvergenceError(
        "transient step at t=%.4g s failed after %d halvings (last "
        "attempt at t=%.4g s: %s)" % (t, MAX_STEP_HALVINGS, time, last),
        iterations=last.iterations,
        residual=last.residual,
        time=time,
        voltages=last.voltages,
    ) from last


def _package(circuit, times, states):
    times = np.asarray(times)
    stacked = np.vstack(states)
    node_values = {
        name: stacked[:, idx] for idx, name in enumerate(circuit.node_names)
    }
    branch_values = {
        src.name: stacked[:, src.branch_index] for src in circuit.vsources
    }
    return TransientResult(times, node_values, branch_values,
                           dict(source_levels(circuit, times)))


def source_levels(circuit, times, lanes=None):
    """Each voltage source's level at every time point, evaluated once
    per point: ``(name, levels)`` pairs, one source at a time, with
    ``(points,)`` levels, or ``(points, lanes)`` for a lane batch (a
    scalar level fills its row)."""
    shape = (len(times),) if lanes is None else (len(times), lanes)
    for src in circuit.vsources:
        block = np.empty(shape)
        for k, t in enumerate(times):
            block[k] = src.voltage_at(t)
        yield src.name, block
