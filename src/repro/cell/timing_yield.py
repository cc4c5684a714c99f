"""Read-timing yield under process variation (extension).

The paper's option (i) for cutting BL delay — "reducing DeltaV_S, which
is difficult to do especially in advanced technology nodes with
increased effect of process variations" — deserves numbers.  This
module Monte Carlo-samples the cell's read current, maps it to bitline
development through ``DeltaV(t) = I_read * t / C_BL``, and reports:

* the BL-delay distribution at a given sensing voltage,
* the sensing time needed for a target timing yield, and
* the yield of a *reduced* DeltaV_S against the sense amplifier's
  input-referred offset — i.e. exactly why DeltaV_S cannot simply be
  shrunk.

Cells that flip during the read (read-disturb failures) count as yield
losses with infinite delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bias import CellBias
from .montecarlo import batched_cell, sample_shift_matrix
from .read_current import read_state_batch

#: Representative input-referred offset sigma of a minimum latch SA [V].
SA_OFFSET_SIGMA = 0.015


@dataclass
class ReadTimingResult:
    """Monte Carlo read-current/delay distributions for one column."""

    i_read_samples: np.ndarray   # [A]; flipped cells excluded
    n_flipped: int
    c_bitline: float
    delta_v_sense: float

    @property
    def n_samples(self):
        return len(self.i_read_samples) + self.n_flipped

    @property
    def delay_samples(self):
        """BL delays [s] of the non-flipped cells."""
        return self.c_bitline * self.delta_v_sense / self.i_read_samples

    @property
    def mean_delay(self):
        return float(np.mean(self.delay_samples))

    @property
    def sigma_delay(self):
        return float(np.std(self.delay_samples, ddof=1))

    def timing_yield(self, t_sense):
        """Fraction of cells whose BL develops DeltaV_S within
        ``t_sense`` (flipped cells always fail)."""
        good = float(np.sum(self.delay_samples <= t_sense))
        return good / self.n_samples

    def required_sense_time(self, yield_target=0.999):
        """Sensing time [s] for the requested timing yield.

        Returns ``inf`` when disturb failures alone exceed the budget.
        """
        if not 0.0 < yield_target <= 1.0:
            raise ValueError("yield_target must be in (0, 1]")
        max_failures = (1.0 - yield_target) * self.n_samples
        if self.n_flipped > max_failures:
            return float("inf")
        delays = np.sort(self.delay_samples)
        # The slowest allowed cell, after spending the failure budget on
        # the flipped ones.
        budget = int(math.floor(max_failures)) - self.n_flipped
        index = len(delays) - 1 - budget
        index = min(max(index, 0), len(delays) - 1)
        return float(delays[index])

    def sensing_voltage_yield(self, t_sense, sa_offset_sigma=SA_OFFSET_SIGMA):
        """P(developed DeltaV at ``t_sense`` exceeds the SA offset).

        For each sampled cell the developed split is
        ``I_read * t / C_BL``; the SA resolves it correctly when it
        exceeds the (Gaussian) offset magnitude.  This is the paper's
        "reducing DeltaV_S is difficult" trade quantified: shrinking the
        sensing window directly eats into offset margin.
        """
        developed = self.i_read_samples * t_sense / self.c_bitline
        z = developed / (sa_offset_sigma * math.sqrt(2.0))
        per_cell = np.array([math.erf(max(v, 0.0)) for v in z])
        return float(np.sum(per_cell)) / self.n_samples


def read_timing_analysis(library, cell, n_rows=64, n_samples=200,
                         v_ddc=None, v_ssc=0.0, delta_v_sense=0.120,
                         variation=None, seed=0):
    """Monte Carlo the read current of ``cell`` into a timing-yield
    result for an ``n_rows``-deep column.

    Every sample's read state is solved in one batched fixed point over
    :func:`~repro.cell.montecarlo.batched_cell`, bitwise equal to a
    :func:`~repro.cell.read_current.read_state` call per sample.
    """
    from ..assist.study import study_bitline_capacitance

    vdd = library.vdd
    v_ddc = vdd if v_ddc is None else v_ddc
    bias = CellBias.read(vdd=vdd, v_ddc=v_ddc, v_ssc=v_ssc)
    samples = batched_cell(cell, sample_shift_matrix(n_samples, variation,
                                                     seed))
    _, _, flipped, i_read = read_state_batch(samples, bias, n_samples)
    failed = flipped | (i_read <= 0)
    return ReadTimingResult(
        i_read_samples=i_read[~failed],
        n_flipped=int(failed.sum()),
        c_bitline=study_bitline_capacitance(library, n_rows),
        delta_v_sense=delta_v_sense,
    )
