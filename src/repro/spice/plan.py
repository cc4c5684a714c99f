"""Compiled stamp plan: the simulator's vectorized residual assembly.

:meth:`repro.spice.netlist.Circuit.compile` turns the element list into a
:class:`StampPlan` -- per-element parameter columns plus gather/scatter
index arrays -- and :meth:`StampPlan.assemble` then builds the whole
nodal residual and its Jacobian with a fixed handful of numpy calls per
Newton iteration.  All transistors, NFETs and PFETs together, are
evaluated in one call of the device kernel
:func:`repro.devices.model.terminal_current_and_derivatives`, where
stamping element by element (:meth:`repro.spice.elements.Element.stamp`,
kept as the reference the tests compare against) pays one kernel call
per transistor.

One routine serves the scalar and the lane-batched solvers: an ``(n,)``
unknown vector is assembled as the one-lane case of an ``(n, lanes)``
matrix, and the result comes back in the caller's shape -- a residual
``(n,)`` / ``(n, lanes)`` and a Jacobian ``(n, n)`` / ``(n, n, lanes)``.

The plan reproduces the element stamps bit for bit.  Three rules keep it
that way:

1. **Shape-independent elementwise ufuncs.**  Each term is computed by
   the same sequence of elementwise float64 operations a stamp applies
   to one value, now applied to a column of elements; numpy's ufunc
   loops give an element the same bits whatever array it sits in.
   Parameters differing per element ride in as ``(k, 1)`` columns.
2. **Exact polarity mirroring.**  PFETs run through the NFET equations
   on negated terminal voltages; negation and multiplication by +-1.0
   are exact (see ``terminal_current_and_derivatives``).
3. **In-order scatter.**  Residual and Jacobian contributions are listed
   in element order, and ``np.bincount`` adds them into each slot one by
   one in that order -- the same sequence of ``+=`` the stamps perform,
   starting from the same 0.0.  A matrix product would reassociate the
   sums.

Source values are read at every assembly (sweeps, source stepping and
:func:`repro.spice.batch.lane_circuit` reassign them); everything else
an element holds is frozen at compile time, as is the netlist itself.
"""

from __future__ import annotations

import numpy as np

from ..devices.model import parameter_columns, terminal_current_and_derivatives
from ..errors import NetlistError
from .elements import (
    GROUND_INDEX,
    Capacitor,
    CurrentSource,
    Resistor,
    Transistor,
    VoltageSource,
)

def _column(values):
    """An ``(k, 1)`` float column (broadcasts against ``(k, lanes)``)."""
    return np.asarray(values, dtype=float).reshape(-1, 1)


def _per_lane(column, lanes):
    """A lane-independent ``(k, 1)`` column repeated to ``(k, lanes)``."""
    return column if lanes == 1 else np.repeat(column, lanes, axis=1)


class _Scatter:
    """Contributions of a term matrix into a flat output, in order.

    ``slots[j]`` is the flat output position of contribution ``j`` and
    ``terms[j]`` the row of the per-assembly term matrix that supplies
    its value.  Contributions to ground are dropped at compile time,
    exactly as the stamps skip them.
    """

    def __init__(self, contributions, size):
        pairs = np.array(contributions, dtype=np.intp).reshape(-1, 2)
        self.slots = pairs[:, 0]
        self.terms = pairs[:, 1]
        self.size = size

    def apply(self, term_matrix, lanes):
        """Accumulate ``term_matrix`` (rows = terms) into ``(size, lanes)``."""
        bins = self.slots
        if lanes > 1:
            # One bin per (slot, lane); each still adds its contributions
            # in element order.
            bins = (bins[:, None] * lanes + np.arange(lanes)).ravel()
        flat = np.bincount(bins, weights=term_matrix[self.terms].ravel(),
                           minlength=self.size * lanes)
        return flat.reshape(self.size, lanes)


def _layout(blocks):
    """Row offsets of named blocks stacked in order, and the total."""
    offsets, total = {}, 0
    for name, count in blocks:
        offsets[name] = total
        total += count
    return offsets, total


class StampPlan:
    """Vectorized assembly of one compiled circuit (see module docs)."""

    def __init__(self, circuit):
        n = self.n = circuit.n_unknowns
        kinds = (Resistor, VoltageSource, CurrentSource, Transistor,
                 Capacitor)
        groups = {kind: [] for kind in kinds}
        kind_of = []
        for element in circuit.elements:
            kind = next((k for k in kinds if isinstance(element, k)), None)
            if kind is None:
                raise NetlistError(
                    "element %s has no stamp plan (type %s)"
                    % (element.name, type(element).__name__)
                )
            kind_of.append((kind, len(groups[kind])))
            groups[kind].append(element)
        res, vsrc, isrc, fets, caps = (groups[k] for k in kinds)
        self._vsources, self._isources, self._capacitors = vsrc, isrc, caps
        for fet in fets:
            if fet.device.params.is_batched:
                raise NetlistError(
                    "transistor %s holds batched (per-sample) parameters; "
                    "a circuit solves one parameter set (batch lanes "
                    "through array-valued source values instead)"
                    % fet.name
                )

        # Every terminal voltage the terms read, gathered in one index
        # vector; ground (-1) picks the zero row appended to x.
        terminals = [
            [e.a for e in res], [e.b for e in res],
            [e.plus for e in vsrc], [e.minus for e in vsrc],
            [e.branch_index for e in vsrc],
            [e.gate for e in fets], [e.drain for e in fets],
            [e.source for e in fets],
            [e.a for e in caps], [e.b for e in caps],
        ]
        self._gather = np.array(sum(terminals, []), dtype=np.intp)
        bounds = np.cumsum([0] + [len(t) for t in terminals])
        self._views = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        self._c_gather = np.array(terminals[-2] + terminals[-1],
                                  dtype=np.intp)

        self._r_g = _column([1.0 / e.resistance for e in res])
        self._c_cap = _column([e.capacitance for e in caps])
        self._f_params = parameter_columns([e.device.params for e in fets])
        self._f_polarity = _column([e.device.polarity_sign for e in fets])
        self._f_nfin = _column([float(e.device.nfin) for e in fets])
        #: Lane-independent Jacobian terms: the resistor conductances,
        #: then the 1.0 of every voltage-source incidence.
        self._fixed = np.vstack([self._r_g, [[1.0]]])

        # Term matrices: the positive terms P, then -P, then (residual
        # only) the source constraint rows:
        #   residual  P = [i_r | j | i_s | i_d | i_c]       + [v_eq]
        #   Jacobian  P = [g, 1 | d_vg | d_vd | d_vs | geq]
        # The capacitor blocks come last; DC assembly leaves them out.
        nr, nv, ni, nf, nc = map(len, (res, vsrc, isrc, fets, caps))
        plans = {}
        for transient in (False, True):
            ncap = nc if transient else 0
            r_off, r_total = _layout([("r", nr), ("v", nv), ("i", ni),
                                      ("f", nf), ("c", ncap)])
            j_off, j_total = _layout([("g", nr + 1), ("dg", nf),
                                      ("dd", nf), ("ds", nf),
                                      ("geq", ncap)])
            residual, jacobian = [], []

            def res_term(row, block, k, sign=1):
                if row != GROUND_INDEX:
                    neg = r_total if sign < 0 else 0
                    residual.append((row, neg + r_off[block] + k))

            def jac_term(row, col, block, k, sign=1):
                if row != GROUND_INDEX and col != GROUND_INDEX:
                    neg = j_total if sign < 0 else 0
                    jacobian.append((row * n + col,
                                     neg + j_off[block] + k))

            def conductance(a, b, block, k):
                jac_term(a, a, block, k)
                jac_term(a, b, block, k, -1)
                jac_term(b, a, block, k, -1)
                jac_term(b, b, block, k)

            for element, (kind, k) in zip(circuit.elements, kind_of):
                if kind is Resistor:
                    res_term(element.a, "r", k)
                    res_term(element.b, "r", k, -1)
                    conductance(element.a, element.b, "g", k)
                elif kind is Capacitor:
                    if transient:
                        res_term(element.a, "c", k)
                        res_term(element.b, "c", k, -1)
                        conductance(element.a, element.b, "geq", k)
                elif kind is VoltageSource:
                    br = element.branch_index
                    res_term(element.plus, "v", k)
                    res_term(element.minus, "v", k, -1)
                    jac_term(element.plus, br, "g", nr)
                    jac_term(element.minus, br, "g", nr, -1)
                    residual.append((br, 2 * r_total + k))  # v_eq row
                    jac_term(br, element.plus, "g", nr)
                    jac_term(br, element.minus, "g", nr, -1)
                elif kind is CurrentSource:
                    res_term(element.a, "i", k)
                    res_term(element.b, "i", k, -1)
                else:
                    d, s = element.drain, element.source
                    res_term(d, "f", k)
                    res_term(s, "f", k, -1)
                    for block, col in (("dg", element.gate), ("dd", d),
                                       ("ds", s)):
                        jac_term(d, col, block, k)
                        jac_term(s, col, block, k, -1)
            plans[transient] = (_Scatter(residual, n),
                                _Scatter(jacobian, n * n))
        self._scatters = plans

    def assemble(self, state):
        """Residual and Jacobian at ``state`` (a ``SolverState``)."""
        x = np.asarray(state.x, dtype=float)
        n = self.n
        lanes = 1 if x.ndim == 1 else x.shape[1]
        xg = np.zeros((n + 1, lanes))
        xg[:n] = x.reshape(n, lanes)
        v = xg[self._gather]
        ra, rb, vp, vm, j, vg, vd, vs = (v[view] for view in self._views[:8])

        v_src = np.empty((len(self._vsources), lanes))
        for k, src in enumerate(self._vsources):
            v_src[k] = src.voltage_at(state.time)
        i_src = np.empty((len(self._isources), lanes))
        for k, src in enumerate(self._isources):
            i_src[k] = src.current_at(state.time)
        i_d, d_vg, d_vd, d_vs = (
            term * self._f_nfin for term in terminal_current_and_derivatives(
                vg, vd, vs, self._f_params, self._f_polarity))
        if state.gmin:
            i_d += state.gmin * (vd - vs)
            d_vd += state.gmin
            d_vs -= state.gmin

        res_pos = [self._r_g * (ra - rb), j, i_src, i_d]
        jac_pos = [_per_lane(self._fixed, lanes), d_vg, d_vd, d_vs]
        transient = state.transient
        if transient and self._capacitors:
            i_c, geq = self._capacitor_terms(state, xg, v, lanes)
            res_pos.append(i_c)
            jac_pos.append(_per_lane(geq, lanes))
        res_pos = np.concatenate(res_pos)
        jac_pos = np.concatenate(jac_pos)
        res_scatter, jac_scatter = self._scatters[transient]
        residual = res_scatter.apply(
            np.concatenate([res_pos, -res_pos, vp - vm - v_src]), lanes)
        jacobian = jac_scatter.apply(
            np.concatenate([jac_pos, -jac_pos]), lanes)
        if x.ndim == 1:
            return residual.reshape(n), jacobian.reshape(n, n)
        return residual, jacobian.reshape(n, n, lanes)

    def _capacitor_terms(self, state, xg, v, lanes):
        """Companion-model currents and conductances of the capacitors."""
        va, vb = v[self._views[8]], v[self._views[9]]
        xpg = np.zeros_like(xg)
        if state.x_prev is not None:
            xpg[:self.n] = np.asarray(state.x_prev,
                                      dtype=float).reshape(self.n, lanes)
        prev = xpg[self._c_gather]
        pa, pb = prev[:len(va)], prev[len(va):]
        dv = (va - vb) - (pa - pb)
        if state.integrator == "trap":
            geq = 2.0 * self._c_cap / state.dt
            history = np.empty((len(self._capacitors), lanes))
            for k, cap in enumerate(self._capacitors):
                history[k] = state.cap_currents.get(cap.name, 0.0)
            return geq * dv - history, geq
        geq = self._c_cap / state.dt
        return geq * dv, geq
