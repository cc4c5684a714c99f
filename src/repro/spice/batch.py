"""Lane-batched Newton and transient analysis.

Batches *independent operating points of the same topology* — e.g. the
write-delay characterization's per-wordline transients — through one set
of numpy solves.  The unknown vector becomes an ``(n_unknowns, lanes)``
matrix, and the circuit's compiled stamp plan
(:meth:`repro.spice.plan.StampPlan.prepare`, the same routine the
scalar solvers run as its one-lane case) assembles the batched residual
``(n, lanes)`` and Jacobian ``(n, n, lanes)``.  Lane differences ride
in through **array-valued source values**: a voltage source whose value
(or stimulus callable) yields a ``(lanes,)`` row drives each lane at its
own level.

Bit-identity with the scalar solvers is a hard requirement (the batched
LUT characterization must equal the scalar reference solves bit for
bit), maintained by:

* per-lane Newton: voltage-step limiting, convergence tests, and the
  final update all apply lane-by-lane, and a converged lane is frozen so
  later iterations cannot perturb it (multiplying an unlimited lane's
  update by 1.0 is exact);
* batched ``np.linalg.solve`` over stacked Jacobians matches per-matrix
  solves bitwise (LAPACK processes each matrix independently);
* any lane that needs a convergence aid (gmin ladder, source stepping,
  transient step halving) drops out of the batch and re-runs the exact
  scalar path via :func:`lane_circuit`, which substitutes that lane's
  source values as scalars.

A transient lane that has run its stop margin leaves the batch: its
column drops out of the unknown matrix and the array-valued source
values are narrowed to the lanes still marching, so the later steps
solve only those (a lane's Newton never reads another lane's column).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import ConvergenceError
from .dc import (
    MAX_ITERATIONS,
    RESIDUAL_TOL,
    VOLTAGE_STEP_LIMIT,
    VOLTAGE_TOL,
    _initial_vector,
    operating_point,
    solve_from,
)
from .elements import SolverState
from .transient import check_time_window, source_levels, transient
from .waveform import TransientResult

__all__ = [
    "lane_circuit",
    "operating_point_batch",
    "solve_from_batch",
    "transient_batch",
]


def _lane_value(value, lane):
    """One lane's scalar (``lane`` an index) or several lanes' row
    (``lane`` an index array) from a possibly array-valued source value."""
    if np.ndim(value) == 0:
        return value
    return value[lane]


def _lane_callable(stimulus, lane):
    """Wrap an array-valued stimulus so it yields only ``lane``'s levels.

    The wrapped callable evaluates the original elementwise expression
    and selects the lane(s), so it is bitwise equal to a stimulus built
    from those lanes' parameters alone.
    """

    def value(t):
        return _lane_value(stimulus(t), lane)

    return value


def _select_lanes(value, lane):
    """A source value (constant or stimulus) cut to one lane (``lane`` an
    index) or to several (``lane`` an index array)."""
    if callable(value):
        return _lane_callable(value, lane)
    return _lane_value(np.asarray(value), lane) if np.ndim(value) else value


@contextmanager
def lane_circuit(circuit, lane):
    """Temporarily substitute one lane's scalar source values.

    Inside the context the circuit is exactly the scalar circuit of lane
    ``lane``; used to run the reference scalar solvers on lanes that
    fall out of a batch.
    """
    originals = [(src, src.value) for src in circuit.vsources]
    try:
        for src, value in originals:
            src.value = _select_lanes(value, lane)
        yield circuit
    finally:
        for src, value in originals:
            src.value = value


def _solve_lanes(jacobian, residual):
    """Per-lane Newton updates ``dx`` with the scalar path's fallback.

    The stacked solve equals per-matrix solves bitwise; when any lane's
    Jacobian is singular the whole stacked solve raises, so each lane is
    then solved exactly like the scalar loop (including its gentle
    regularization of singular matrices).
    """
    try:
        stacked = np.linalg.solve(
            jacobian.transpose(2, 0, 1), (-residual).T[:, :, None]
        )
        return stacked[..., 0].T
    except np.linalg.LinAlgError:
        dx = np.empty_like(residual)
        n = residual.shape[0]
        for k in range(residual.shape[1]):
            jac_k = jacobian[:, :, k]
            rhs_k = -residual[:, k]
            try:
                dx[:, k] = np.linalg.solve(jac_k, rhs_k)
            except np.linalg.LinAlgError:
                dx[:, k] = np.linalg.solve(
                    jac_k + 1e-12 * np.eye(n), rhs_k
                )
        return dx


def _newton_batch(circuit, x0, time=None, dt=None, x_prev=None,
                  max_iterations=MAX_ITERATIONS):
    """Per-lane Newton; returns ``(x, iterations, failed)`` arrays.

    ``failed`` marks lanes that did not converge within
    ``max_iterations``; their columns hold the last iterate.  Converged
    lanes freeze at their converged value (the scalar loop returns
    immediately after its final update; iterations past a lane's
    convergence must not touch it).
    """
    x = np.array(x0, dtype=float)
    n_nodes = circuit.n_nodes
    lanes = x.shape[1]
    active = np.ones(lanes, dtype=bool)
    iterations = np.zeros(lanes, dtype=int)
    assemble = circuit.plan.prepare(
        SolverState(x, time=time, dt=dt, x_prev=x_prev))
    for iteration in range(1, max_iterations + 1):
        residual, jacobian = assemble(x)
        res_max = np.max(np.abs(residual), axis=0)
        dx = _solve_lanes(jacobian, residual)
        v_step = dx[:n_nodes]
        worst = np.max(np.abs(v_step), axis=0) if n_nodes else np.zeros(lanes)
        scale = np.where(worst > VOLTAGE_STEP_LIMIT,
                         VOLTAGE_STEP_LIMIT / np.where(worst > 0, worst, 1.0),
                         1.0)
        x = np.where(active[None, :], x + dx * scale[None, :], x)
        newly = active & (worst < VOLTAGE_TOL) & (res_max < RESIDUAL_TOL)
        iterations[newly] = iteration
        active &= ~newly
        if not active.any():
            break
    return x, iterations, active


def solve_from_batch(circuit, x_start, time=None, dt=None, x_prev=None):
    """Batched :func:`repro.spice.dc.solve_from`.

    Lanes that fail plain Newton re-run the scalar :func:`solve_from`
    (plain attempt plus its gmin ladder) under :func:`lane_circuit`, so
    every lane's result matches the scalar path bitwise.  Raises
    :class:`ConvergenceError` when a lane cannot be rescued — callers
    fall back to fully scalar integration (which may halve steps).
    """
    if not circuit.compiled:
        circuit.compile()
    x, _iters, failed = _newton_batch(circuit, x_start, time=time, dt=dt,
                                      x_prev=x_prev)
    for k in np.nonzero(failed)[0]:
        with lane_circuit(circuit, int(k)):
            x_k, _ = solve_from(
                circuit, np.array(x_start[:, k]), time=time, dt=dt,
                x_prev=None if x_prev is None else np.array(x_prev[:, k]),
            )
        x[:, k] = x_k
    return x


def operating_point_batch(circuit, lanes, initial_guess=None):
    """Batched DC operating point; returns the ``(n, lanes)`` matrix.

    Lanes whose plain Newton fails re-run the scalar
    :func:`operating_point` (with its gmin/source-stepping fallbacks)
    under :func:`lane_circuit`.
    """
    if not circuit.compiled:
        circuit.compile()
    x0 = _initial_vector(circuit, initial_guess)
    x0_batch = np.repeat(x0[:, None], lanes, axis=1)
    x, _iters, failed = _newton_batch(circuit, x0_batch)
    for k in np.nonzero(failed)[0]:
        with lane_circuit(circuit, int(k)):
            solution = operating_point(circuit, initial_guess)
        x[:, k] = solution.x
    return x


def transient_batch(circuit, lanes, t_stop, dt, initial_guess=None,
                    stop_condition=None, stop_margin=0):
    """Batched backward-Euler transient over per-lane source values.

    Marches the shared uniform time grid for all lanes at once.
    ``stop_condition`` is evaluated with **array-valued** node voltages
    (one entry per lane still marching) and must return a per-lane
    boolean array (an elementwise expression such as
    ``v["q"] < v["qb"] - 0.1`` works for both the scalar and batched
    solvers); each lane then runs ``stop_margin`` further steps and
    leaves the batch, exactly like the scalar early-stop bookkeeping.
    The march ends when every lane has stopped or ``t_stop`` is reached,
    and each lane's waveforms end at its own stop point, so per-lane
    results equal scalar runs bitwise.  Source values are the caller's
    objects again when this returns or raises.

    If any lane would need transient step halving (its Newton fails even
    through the gmin ladder), the whole batch falls back to per-lane
    scalar :func:`repro.spice.transient.transient` runs — exactness over
    speed.

    Returns a list of ``lanes`` :class:`TransientResult` objects.
    """
    check_time_window(t_stop, dt)
    if not circuit.compiled:
        circuit.compile()
    try:
        return _march_batch(circuit, lanes, t_stop, dt, initial_guess,
                            stop_condition, stop_margin)
    except ConvergenceError:
        results = []
        for k in range(lanes):
            with lane_circuit(circuit, k):
                results.append(
                    transient(circuit, t_stop, dt,
                              initial_guess=initial_guess,
                              stop_condition=stop_condition,
                              stop_margin=stop_margin)
                )
        return results


def _march_batch(circuit, lanes, t_stop, dt, initial_guess, stop_condition,
                 stop_margin):
    x = operating_point_batch(circuit, lanes, initial_guess)
    times = [0.0]
    # ``live`` holds the lane of each column of ``x``.  The states of a
    # run of steps with the same live lanes form one segment.
    live = np.arange(lanes)
    states = [x.copy()]
    segments = []
    triggered = np.zeros(lanes, dtype=bool)
    remaining = np.zeros(lanes, dtype=int)
    originals = [(src, src.value) for src in circuit.vsources]
    t = 0.0
    try:
        while t < t_stop - 1e-21 and live.size:
            step = min(dt, t_stop - t)
            x = solve_from_batch(circuit, x, time=t + step, dt=step,
                                 x_prev=x)
            t += step
            times.append(t)
            states.append(x.copy())
            if stop_condition is None:
                continue
            voltages = {
                name: x[idx]
                for idx, name in enumerate(circuit.node_names)
            }
            flags = np.broadcast_to(
                np.asarray(stop_condition(t, voltages), dtype=bool),
                live.shape,
            )
            newly = ~triggered & flags
            remaining = np.where(newly, stop_margin, remaining)
            triggered |= newly
            done = triggered & (remaining <= 0)
            remaining = np.where(triggered & ~done, remaining - 1, remaining)
            if done.any():
                # The stopped lanes leave the batch after this step.
                segments.append((live, np.stack(states)))
                states = []
                keep = ~done
                live, x = live[keep], x[:, keep]
                triggered, remaining = triggered[keep], remaining[keep]
                for src, value in originals:
                    src.value = _select_lanes(value, live)
    finally:
        for src, value in originals:
            src.value = value
    if states:
        segments.append((live, np.stack(states)))
    return _package_batch(circuit, np.asarray(times), segments, lanes)


def _package_batch(circuit, times, segments, lanes):
    """One :class:`TransientResult` per lane from the recorded segments
    (``(live lanes, (points, n_unknowns, live) states)`` in time order):
    a lane's states are its columns of the segments it was live in, its
    times the grid's first as many points, and its source levels its
    column of the full-width levels."""
    columns = [[] for _ in range(lanes)]
    for live, block in segments:
        for position, k in enumerate(live):
            columns[k].append(block[:, :, position])
    states = [np.concatenate(lane_columns) for lane_columns in columns]
    source_voltages = [{} for _ in range(lanes)]
    for name, block in source_levels(circuit, times, lanes):
        for k, lane_states in enumerate(states):
            source_voltages[k][name] = block[:len(lane_states), k].copy()
    return [
        TransientResult(
            times[:len(lane_states)],
            {name: lane_states[:, idx]
             for idx, name in enumerate(circuit.node_names)},
            {src.name: lane_states[:, src.branch_index]
             for src in circuit.vsources},
            lane_voltages)
        for lane_states, lane_voltages in zip(states, source_voltages)
    ]
