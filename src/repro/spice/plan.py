"""Compiled stamp plan: the simulator's vectorized residual assembly.

:meth:`repro.spice.netlist.Circuit.compile` turns the element list into a
:class:`StampPlan` -- per-element parameter columns plus gather/scatter
index arrays -- and the nodal residual and its Jacobian are then built
in two parts.  :meth:`StampPlan.prepare` does the per-solve part once
per Newton solve: the source levels at the step's time, the capacitor
companion terms, the fixed Jacobian blocks and the buffers.  The
function it returns is the per-iteration part, a fixed handful of numpy
calls: gather the terminal voltages, evaluate the device kernel,
scatter the terms.  All transistors, NFETs and PFETs together, are
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

Hoisting a term out of the iteration computes it once with the same
operations, so it keeps its bits.  Source values are read at every
:meth:`~StampPlan.prepare` (sweeps, source stepping and
:func:`repro.spice.batch.lane_circuit` reassign them between solves);
everything else an element holds is frozen at compile time, as is the
netlist itself.
"""

from __future__ import annotations

import numpy as np

from ..devices.model import parameter_columns, terminal_current_and_derivatives
from ..errors import NetlistError
from .elements import (
    GROUND_INDEX,
    Capacitor,
    Resistor,
    Transistor,
    VoltageSource,
)

def _column(values):
    """An ``(k, 1)`` float column (broadcasts against ``(k, lanes)``)."""
    return np.asarray(values, dtype=float).reshape(-1, 1)


class _Scatter:
    """Contributions of a term matrix into a flat output, in order.

    ``slots[j]`` is the flat output position of contribution ``j`` and
    ``terms[j]`` the row of the term matrix that supplies its value.
    Contributions to ground are dropped at compile time, exactly as the
    stamps skip them.
    """

    def __init__(self, contributions, size):
        pairs = np.array(contributions, dtype=np.intp).reshape(-1, 2)
        self.slots = pairs[:, 0]
        self.terms = pairs[:, 1]
        self.size = size
        self._bins = {1: self.slots}

    def bins(self, lanes):
        """Flat ``(size, lanes)`` position of each contribution's lanes,
        in contribution order (built once per lane count)."""
        bins = self._bins.get(lanes)
        if bins is None:
            # One bin per (slot, lane); each still adds its contributions
            # in element order.
            bins = (self.slots[:, None] * lanes + np.arange(lanes)).ravel()
            self._bins[lanes] = bins
        return bins


def _term_rows(varying, fixed):
    """Row layout of a term matrix: the ``varying`` blocks (recomputed
    every Newton iteration), their negations, then the ``fixed`` blocks
    (computed once per solve) and their negations.

    Returns ``({name: (rows, negated rows)}, parts, total)`` with the
    rows as slices; ``parts`` holds the ``(positive, negated)`` slices
    of the varying and of the fixed group.
    """
    rows, parts, start = {}, [], 0
    for group in (varying, fixed):
        size = sum(count for _name, count in group)
        for name, count in group:
            rows[name] = (slice(start, start + count),
                          slice(start + size, start + size + count))
            start += count
        parts.append((slice(start - size, start),
                      slice(start, start + size)))
        start += size
    return rows, parts, start


class StampPlan:
    """Vectorized assembly of one compiled circuit (see module docs)."""

    def __init__(self, circuit):
        n = self.n = circuit.n_unknowns
        kinds = (Resistor, VoltageSource, Transistor, Capacitor)
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
        res, vsrc, fets, caps = (groups[k] for k in kinds)
        self._vsources = vsrc
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

        # Term matrices (see _term_rows), with the positive terms
        #   residual  [i_r | j | i_d | i_c]; then the source
        #             constraint rows [v_eq]
        #   Jacobian  [d_vg | d_vd | d_vs],  fixed [g, 1 | geq]
        # The capacitor blocks are empty in a DC layout.
        nr, nv, nf, nc = map(len, (res, vsrc, fets, caps))
        self._layouts = {}
        for transient in (False, True):
            ncap = nc if transient else 0
            r_rows, r_parts, r_total = _term_rows(
                [("r", nr), ("v", nv), ("f", nf), ("c", ncap)], [])
            j_rows, j_parts, j_total = _term_rows(
                [("dg", nf), ("dd", nf), ("ds", nf)],
                [("g", nr + 1), ("geq", ncap)])
            residual, jacobian = [], []

            def res_term(row, block, k, sign=1):
                if row != GROUND_INDEX:
                    residual.append((row, r_rows[block][sign < 0].start + k))

            def jac_term(row, col, block, k, sign=1):
                if row != GROUND_INDEX and col != GROUND_INDEX:
                    jacobian.append((row * n + col,
                                     j_rows[block][sign < 0].start + k))

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
                    residual.append((br, r_total + k))  # v_eq row
                    jac_term(br, element.plus, "g", nr)
                    jac_term(br, element.minus, "g", nr, -1)
                else:
                    d, s = element.drain, element.source
                    res_term(d, "f", k)
                    res_term(s, "f", k, -1)
                    for block, col in (("dg", element.gate), ("dd", d),
                                       ("ds", s)):
                        jac_term(d, col, block, k)
                        jac_term(s, col, block, k, -1)
            self._layouts[transient] = (
                (_Scatter(residual, n), r_rows, r_parts, r_total + nv),
                (_Scatter(jacobian, n * n), j_rows, j_parts, j_total))

    def prepare(self, state):
        """The per-solve part of the assembly at ``state`` (a
        ``SolverState``).

        Reads what one Newton solve holds fixed -- the source levels at
        ``state.time``, the capacitor companion conductances ``C/dt``
        and branch voltages at ``state.x_prev``, the fixed Jacobian
        blocks -- and returns the per-iteration part: ``assemble(x)``,
        the residual and Jacobian at unknowns ``x`` of ``state.x``'s
        shape (gather, device kernel, scatter).
        """
        n = self.n
        lanes = 1 if np.ndim(state.x) == 1 else np.shape(state.x)[1]
        (res_scatter, r_rows, r_parts, r_size), \
            (jac_scatter, j_rows, j_parts, j_size) = \
            self._layouts[state.transient]
        terms_r, terms_j = np.empty((r_size, lanes)), np.empty((j_size, lanes))
        v_src = np.empty((len(self._vsources), lanes))
        for k, src in enumerate(self._vsources):
            v_src[k] = src.voltage_at(state.time)
        terms_j[j_rows["g"][0]] = self._fixed
        companion = state.transient and len(self._c_cap) > 0
        if companion:
            xpg = np.zeros((n + 1, lanes))
            if state.x_prev is not None:
                xpg[:n] = np.asarray(state.x_prev,
                                     dtype=float).reshape(n, lanes)
            prev = xpg[self._c_gather]
            nc = len(self._c_cap)
            prev_dv = prev[:nc] - prev[nc:]
            geq = self._c_cap / state.dt
            terms_j[j_rows["geq"][0]] = geq
            out_c = terms_r[r_rows["c"][0]]
        positive, negated = j_parts[1]
        np.negative(terms_j[positive], out=terms_j[negated])

        out_r, out_v, out_f = (terms_r[r_rows[name][0]] for name in "rvf")
        out_con = terms_r[r_size - len(self._vsources):]
        out_dg, out_dd, out_ds = (terms_j[j_rows[name][0]]
                                  for name in ("dg", "dd", "ds"))
        varying_r, negated_r = (terms_r[part] for part in r_parts[0])
        varying_j, negated_j = (terms_j[part] for part in j_parts[0])
        xg = np.zeros((n + 1, lanes))
        gather, views, gmin = self._gather, self._views, state.gmin
        r_g, nfin = self._r_g, self._f_nfin
        params, polarity = self._f_params, self._f_polarity
        bins_r, take_r = res_scatter.bins(lanes), res_scatter.terms
        bins_j, take_j = jac_scatter.bins(lanes), jac_scatter.terms
        size_r, size_j = res_scatter.size * lanes, jac_scatter.size * lanes

        def assemble(x):
            xg[:n] = x.reshape(n, lanes)
            v = xg[gather]
            ra, rb, vp, vm, j, vg, vd, vs, va, vb = (v[view]
                                                      for view in views)
            np.multiply(r_g, ra - rb, out=out_r)
            out_v[:] = j
            i_d, d_vg, d_vd, d_vs = terminal_current_and_derivatives(
                vg, vd, vs, params, polarity)
            np.multiply(i_d, nfin, out=out_f)
            np.multiply(d_vg, nfin, out=out_dg)
            np.multiply(d_vd, nfin, out=out_dd)
            np.multiply(d_vs, nfin, out=out_ds)
            if gmin:
                np.add(out_f, gmin * (vd - vs), out=out_f)
                np.add(out_dd, gmin, out=out_dd)
                np.subtract(out_ds, gmin, out=out_ds)
            if companion:
                np.multiply(geq, (va - vb) - prev_dv, out=out_c)
            np.negative(varying_r, out=negated_r)
            np.subtract(vp - vm, v_src, out=out_con)
            np.negative(varying_j, out=negated_j)
            residual = np.bincount(bins_r, weights=terms_r[take_r].ravel(),
                                   minlength=size_r)
            jacobian = np.bincount(bins_j, weights=terms_j[take_j].ravel(),
                                   minlength=size_j)
            if x.ndim == 1:
                return residual, jacobian.reshape(n, n)
            return residual.reshape(n, lanes), jacobian.reshape(n, n, lanes)

        return assemble
