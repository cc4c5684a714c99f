"""repro — device-circuit-architecture co-optimization of FinFET SRAM
arrays for minimum energy-delay product.

A from-scratch reproduction of Shafaei, Afzali-Kusha, and Pedram,
"Minimizing the Energy-Delay Product of SRAM Arrays using a
Device-Circuit-Architecture Co-Optimization Framework", DAC 2016.

Subpackages
-----------

``repro.devices``
    Calibrated 7nm FinFET compact models (LVT/HVT), the paper's
    SPICE/PTM substitute.
``repro.spice``
    A small nonlinear circuit simulator (Newton-Raphson DC, transient).
``repro.cell``
    6T SRAM cell characterization: noise margins, write margin, read
    current, leakage, write delay, Monte Carlo yield.
``repro.assist``
    Read/write assist techniques and their trade-off studies.
``repro.periphery``
    Decoders, drivers, sense amplifier, precharge, write buffer —
    characterized into look-up tables.
``repro.array``
    The analytical array model (paper Tables 1-3, Eqs. (1)-(5)).
``repro.opt``
    The exhaustive minimum-EDP co-optimization with M1/M2 rail policies
    and yield constraints.
``repro.analysis``
    Experiment drivers regenerating every figure and table.
``repro.service``
    An HTTP optimization service with result caching and coalesced
    Monte Carlo solves.
``repro.jobs``
    Durable job queue + workers: checkpointed, crash-resumable study
    sweeps (SQLite-backed, lease-based claiming).
``repro.store``
    Content-addressed experiment store with provenance; deduplicates
    results across the study runner, job workers, service, and CLI.

Quick start
-----------

>>> from repro.analysis import Session, optimize_all
>>> session = Session.create()          # characterizes (cached)
>>> sweep = optimize_all(session)       # Table 4 / Figure 7
>>> print(sweep.report())
"""

__version__ = "1.1.0"

__all__ = ["__version__"]
