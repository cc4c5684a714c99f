"""A small nonlinear circuit simulator (the paper's SPICE substitute).

Public API:

* :class:`Circuit` — netlist construction; ``compile()`` builds the
  vectorized stamp plan (:mod:`repro.spice.plan`) every solver runs.
* :func:`operating_point`, :func:`dc_sweep` — Newton-Raphson DC analysis
  with gmin/source stepping.
* :func:`transient` — backward-Euler transient analysis.
* :class:`Waveform` / :class:`TransientResult` — measurement helpers.
* :mod:`repro.spice.stimuli` — step/pulse/PWL stimulus builders.
"""

from .dc import Solution, dc_sweep, operating_point
from .netlist import Circuit
from .stimuli import piecewise_linear, pulse, step
from .transient import transient
from .waveform import TransientResult, Waveform

__all__ = [
    "Circuit",
    "Solution",
    "TransientResult",
    "Waveform",
    "dc_sweep",
    "operating_point",
    "piecewise_linear",
    "pulse",
    "step",
    "transient",
]
