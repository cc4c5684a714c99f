"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConvergenceError(ReproError):
    """A nonlinear or transient solve failed to converge.

    Carries enough context to diagnose the failure without re-running
    the solve: ``iterations`` and the worst ``residual`` [A] of the
    failed Newton loop, the transient ``time`` point it was solving
    (None for DC), and ``voltages``, a node name -> volts dict of its
    last iterate.
    """

    def __init__(self, message, iterations=None, residual=None, time=None,
                 voltages=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.time = time
        self.voltages = voltages


class NetlistError(ReproError):
    """The circuit under construction is malformed.

    Examples: an element references an undeclared node, a voltage source
    loop, or a floating node with no DC path to ground.
    """


class CharacterizationError(ReproError):
    """A device/circuit characterization produced an unusable result.

    Raised e.g. when a butterfly curve has no embedded square (cell is
    monostable) in a context where bistability is required.  The cell
    solvers also say where they failed: ``bias`` is the
    :class:`~repro.cell.bias.CellBias` the failed solve ran under
    (array-valued rails for a lane-batched solve), ``bracket`` the
    ``(lo, hi)`` interval [V] the failed search spanned (the output
    voltages of a half-circuit bisection, ``(0, v_wl_max)`` for a
    write-flip bisection, the levels a minimum-assist scan of
    :mod:`repro.assist.study` tried), and ``side`` the half-circuit
    ("l" or "r").
    Each is None where a raise site has no such context.
    """

    def __init__(self, message, side=None, bias=None, bracket=None):
        super().__init__(message)
        self.side = side
        self.bias = bias
        self.bracket = bracket


class DesignSpaceError(ReproError):
    """An optimization design point or range is invalid.

    Examples: a capacity that is not a power of two, a row count that
    does not divide the capacity, or an empty feasible set.
    """


class CalibrationError(ReproError):
    """A calibration target could not be met within tolerance."""


class StudyTaskError(ReproError):
    """One task of a parallel study matrix failed.

    Carries the task's human-readable label (e.g. ``16KB/HVT/M2``) so a
    failure deep inside a worker process still names the matrix cell
    that caused it; the original exception rides along as ``__cause__``.
    """

    def __init__(self, message, task_label=None):
        super().__init__(message)
        self.task_label = task_label


class ServiceError(ReproError):
    """The optimization service rejected or failed a request.

    ``status`` is the HTTP status code the server responded with (or
    would respond with); ``retry_after`` carries the server's
    backpressure hint in seconds when the status is 429.
    """

    def __init__(self, message, status=500, retry_after=None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class JobError(ReproError):
    """A durable-queue job could not be submitted, found, or executed.

    Raised for unknown job ids, invalid job specs, and malformed or
    missing store records.  ``job_id`` names the offending job when one
    is known.
    """

    def __init__(self, message, job_id=None):
        super().__init__(message)
        self.job_id = job_id


class ArenaError(ReproError):
    """A shared-memory session arena could not be mapped or decoded.

    Raised when the named segment does not exist, is not an arena
    (bad magic), or was published by an incompatible arena/format
    version.  Callers treat any :class:`ArenaError` as "fall back to a
    cold session build" — the arena is a fast path, never a
    correctness dependency.
    """


class LookupError_(ReproError):
    """A look-up table query fell outside the characterized grid.

    Named with a trailing underscore to avoid shadowing the builtin
    ``LookupError``.
    """
