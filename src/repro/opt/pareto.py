"""Energy-delay Pareto analysis (extension beyond the paper).

The paper optimizes the scalar EDP; designers often want the whole
energy-delay trade-off curve instead.  These helpers extract the Pareto
front from the optimizer's search landscape and locate generalized
``E^a * D^b`` optima on it.

Tie rule
--------

A point *weakly dominates* another when it is no worse in both delay
and energy; it *dominates* when it is additionally strictly better in
at least one.  When two designs land on the exact same ``(delay,
energy)`` pair with different knob settings, the front keeps **the
first point in search visit order** (row counts ascending, V_SSC
candidates in policy order) and drops the later duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated (delay, energy) design."""

    d_array: float
    e_total: float
    n_r: int
    v_ssc: float
    n_pre: int
    n_wr: int

    @property
    def edp(self):
        return self.d_array * self.e_total


def _as_pareto_point(p):
    return ParetoPoint(
        d_array=float(p.d_array), e_total=float(p.e_total),
        n_r=int(p.n_r), v_ssc=float(p.v_ssc),
        n_pre=int(p.n_pre), n_wr=int(p.n_wr),
    )


def pareto_front(landscape):
    """Non-dominated subset of :class:`LandscapePoint` entries,
    sorted by delay.

    Exact ``(delay, energy)`` duplicates keep the first point in input
    (search visit) order — see the module tie rule.  Raises
    :class:`ValueError` on an empty landscape (an empty front is always
    a caller bug: every non-empty landscape has at least one
    non-dominated point).
    """
    points = sorted(landscape, key=lambda p: (p.d_array, p.e_total))
    if not points:
        raise ValueError("empty landscape has no Pareto front")
    front = []
    best_energy = float("inf")
    # After the stable (delay, energy) sort, a point survives iff it
    # strictly improves the best energy seen so far: equal-delay points
    # arrive energy-ascending (only the cheapest survives), and exact
    # (d, e) duplicates keep their input order under the stable sort, so
    # the first-visited one wins and the rest fail the strict test.
    for p in points:
        if p.e_total < best_energy:
            front.append(p)
            best_energy = p.e_total
    return [_as_pareto_point(p) for p in front]


@dataclass(frozen=True)
class ParetoSearchResult:
    """Outcome of one :meth:`ExhaustiveOptimizer.pareto` sweep."""

    capacity_bits: int
    flavor: str
    method: str
    #: Delay-sorted non-dominated (delay, energy) designs.
    front: tuple
    #: Design points actually scored through ``model.evaluate``.
    n_evaluated: int
    #: Total (n_r, V_SSC) tiles of the feasible space.
    n_tiles: int

    @property
    def capacity_bytes(self):
        return self.capacity_bits // 8


def best_weighted(front, energy_exponent=1.0, delay_exponent=1.0):
    """The front point minimizing ``E^a * D^b``.

    ``(1, 1)`` recovers the paper's EDP objective; ``(1, 2)`` emphasizes
    performance (ED^2), ``(2, 1)`` emphasizes energy.
    """
    if not front:
        raise ValueError("empty Pareto front")
    return min(
        front,
        key=lambda p: (p.e_total ** energy_exponent)
        * (p.d_array ** delay_exponent),
    )
