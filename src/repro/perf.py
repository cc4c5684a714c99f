"""Lightweight timing/counter telemetry for the performance engine.

The optimizer, the parallel study runner, and the characterization cache
all report where their milliseconds go through one process-global
:class:`PerfRegistry`.  Instrumentation is two calls deep — a
``with timed("name"):`` context manager and a ``count("name")``
increment — so the hot paths stay readable and the overhead stays at a
pair of ``perf_counter`` calls per timed block.

``python -m repro.cli <experiment> --profile`` prints the registry's
report after the run; process-pool workers return a snapshot with
every call (:func:`snapshot_call`) and the parent merges them, so a
profiled parallel study still accounts for every task.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class TimerStat:
    """Accumulated statistics for one named timer."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = 0.0

    def add(self, seconds):
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0


class PerfRegistry:
    """Named timers and counters with mergeable snapshots."""

    def __init__(self):
        self.timers = {}
        self.counters = {}

    # -- recording ---------------------------------------------------------

    @contextmanager
    def timer(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def add_time(self, name, seconds):
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = TimerStat(name)
        stat.add(seconds)

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    # -- aggregation -------------------------------------------------------

    def snapshot(self):
        """Plain-data (picklable) view, mergeable via :meth:`merge`."""
        return {
            "timers": {
                name: {"count": s.count, "total": s.total,
                       "min": s.min, "max": s.max}
                for name, s in self.timers.items()
            },
            "counters": dict(self.counters),
        }

    def merge(self, snapshot):
        """Fold another registry's :meth:`snapshot` into this one."""
        for name, data in snapshot.get("timers", {}).items():
            stat = self.timers.get(name)
            if stat is None:
                stat = self.timers[name] = TimerStat(name)
            stat.count += data["count"]
            stat.total += data["total"]
            if data["count"] > 0:
                # A zero-count timer carries a placeholder min (inf in a
                # live registry, 0.0 after a JSON round trip); folding
                # either into a real minimum would corrupt it.
                stat.min = min(stat.min, data["min"])
                stat.max = max(stat.max, data["max"])
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)

    def to_json(self):
        """Serialize a snapshot as strict JSON (crosses process/HTTP
        boundaries; a worker's registry travels to the parent's
        ``/metrics`` endpoint this way).

        Zero-count timers store ``min`` as 0.0 because ``inf`` is not
        representable in strict JSON; :meth:`merge` ignores the min/max
        of zero-count entries, so the round trip is lossless.
        """
        snapshot = self.snapshot()
        for data in snapshot["timers"].values():
            if data["count"] == 0:
                data["min"] = 0.0
        return json.dumps(snapshot, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Rebuild a registry from :meth:`to_json` output."""
        registry = cls()
        registry.merge(json.loads(text))
        return registry

    def reset(self):
        self.timers.clear()
        self.counters.clear()

    # -- reporting ---------------------------------------------------------

    def report(self, title="Performance profile"):
        lines = [title, "=" * len(title)]
        if self.timers:
            lines.append("%-36s %7s %10s %10s %10s"
                         % ("timer", "calls", "total_ms", "mean_ms",
                            "max_ms"))
            for name in sorted(self.timers):
                s = self.timers[name]
                # Zero-count entries (a merged snapshot may carry them)
                # render as zeros instead of inf/nan.
                mean = s.total / s.count if s.count else 0.0
                lines.append(
                    "%-36s %7d %10.2f %10.3f %10.3f"
                    % (name, s.count, s.total * 1e3, mean * 1e3,
                       s.max * 1e3)
                )
        if self.counters:
            lines.append("%-36s %17s" % ("counter", "value"))
            for name in sorted(self.counters):
                lines.append("%-36s %17d" % (name, self.counters[name]))
        if not self.timers and not self.counters:
            lines.append("(no telemetry recorded)")
        return "\n".join(lines)


#: The process-global registry all built-in instrumentation records to.
_GLOBAL = PerfRegistry()


def get_registry():
    """The process-global :class:`PerfRegistry`."""
    return _GLOBAL


def timed(name):
    """``with timed("phase"):`` — time a block into the global registry."""
    return _GLOBAL.timer(name)


def count(name, n=1):
    """Increment a counter in the global registry."""
    _GLOBAL.count(name, n)


def snapshot_call(function, *args):
    """``function(*args)`` and the telemetry it recorded, as
    ``(result, snapshot)``.

    The entry point of every pool worker: a fork-started worker
    inherits its parent's registry and may run several calls, so the
    registry is cleared first and each snapshot the parent merges holds
    this call's entries only.
    """
    _GLOBAL.reset()
    result = function(*args)
    return result, _GLOBAL.snapshot()
