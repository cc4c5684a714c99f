"""Shared plumbing for the benchmark: checkout paths, scratch space,
the host-speed probe, timing statistics and child processes.

Everything the benchmark writes lands inside the checkout it runs
from, under ``.perfbench_tmp/`` (scratch, removed when a run ends) and
``.perfbench_out/`` (the traced runs' span files, kept for
inspection).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACKED_CACHE = os.path.join(ROOT, ".repro_cache.json")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Probe time [s] of the reference host.  Host-normalized timings are
#: reported as the time the operation would take on a host where one
#: probe takes exactly this long.
PROBE_REF_S = 0.005

#: Marker prefixing the one JSON line a child process reports.
RESULT_MARK = "PERFBENCH_RESULT "


class CheckoutError(RuntimeError):
    """The benchmark is not running from a checkout holding the program."""


def require_checkout():
    """Put the checkout's ``src`` first on the import path.

    Raises :class:`CheckoutError` when the checkout holds no ``repro``
    package, or when ``import repro`` would load a copy from elsewhere:
    the benchmark measures the checkout it sits in, nothing else.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise CheckoutError("no src/repro package next to %s" % HERE)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(
            SRC, "repro"):
        raise CheckoutError("repro imported from %s, not from %s"
                            % (repro.__file__, SRC))


def child_env(tmp_dir):
    """Environment for child processes: the checkout's sources, scratch
    space inside the checkout, unbuffered output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = tmp_dir
    return env


def make_tmp_dir(label):
    path = os.path.join(TMP_ROOT, "%s-%d-%s" % (label, os.getpid(),
                                               uuid.uuid4().hex[:6]))
    os.makedirs(path)
    return path


def remove_tmp_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(TMP_ROOT)          # only when no other run still uses it
    except OSError:
        pass


_SKIP_DIRS = {".git", "__pycache__", ".perfbench_tmp", ".perfbench_out",
              ".bench_build", ".pytest_cache", ".hypothesis"}


def tree_digest(root=ROOT):
    """sha256 over every file of the checkout the benchmark must not
    change (everything but build, scratch and trace output)."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
        for name in sorted(files):
            path = os.path.join(directory, name)
            if not os.path.isfile(path) or os.path.islink(path):
                continue
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def peak_rss_mb():
    """Peak resident set of this process [MB] (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid):
    """Peak resident set of a live process [MB], from /proc."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


# ---------------------------------------------------------------------------
# Host-speed probe
# ---------------------------------------------------------------------------

_PROBE_X = np.linspace(0.1, 1.0, 100_000)


def probe_once(clock=time.perf_counter):
    """Time one fixed kernel: a pure-Python loop plus numpy ufuncs on a
    1e5-element array (about 5 ms on a 2-vCPU cloud VM)."""
    start = clock()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    y = np.sqrt(np.exp(_PROBE_X) * _PROBE_X + 1.0)
    y = np.sin(y) + np.log1p(_PROBE_X)
    if not math.isfinite(float(y.sum()) + acc):
        raise RuntimeError("probe kernel produced a non-finite value")
    return clock() - start


class HostProbe:
    """Probe samples taken between operations, with their time stamps."""

    def __init__(self, samples=()):
        #: ``(perf_counter at the end, seconds)`` per sample.
        self.samples = [tuple(s) for s in samples]

    def sample(self, repeats=1, clock=time.perf_counter):
        for _ in range(repeats):
            seconds = probe_once(clock)
            self.samples.append((time.perf_counter(), seconds))

    def factor(self, lo=None, hi=None):
        """Host slowness relative to the reference: the median probe time
        of the samples taken in ``[lo, hi]`` over :data:`PROBE_REF_S`."""
        values = [s for t, s in self.samples
                  if (lo is None or t >= lo) and (hi is None or t <= hi)]
        if not values:
            values = [s for _, s in self.samples]
        return statistics.median(values) / PROBE_REF_S

    def describe(self):
        """The raw probe times, summarized."""
        values = [s * 1e3 for _, s in self.samples]
        return "n=%d, median %.3f ms, p10 %.3f ms, p90 %.3f ms" % (
            len(values), statistics.median(values), percentile(values, 10),
            percentile(values, 90))


class ProbeSampler:
    """Probe samples taken on a thread every :attr:`INTERVAL_S`::

        with ProbeSampler() as sampler:
            run_child(...)
        factor = sampler.probe.factor()

    Around a child process the probe runs on the CPU the child leaves
    free.  Inside the working process pass ``clock=time.thread_time``:
    the probe then shares the interpreter lock with the work, and its
    thread's CPU time leaves out the waits for the lock.
    """

    #: Seconds between two samples.
    INTERVAL_S = 0.25

    def __init__(self, clock=time.perf_counter):
        self.probe = HostProbe()
        self._clock = clock
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.is_set():
            self.probe.sample(clock=self._clock)
            self._stop.wait(self.INTERVAL_S)

    def __enter__(self):
        warm_probe(self.probe)
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._stop.set()
        self._thread.join()
        return False


def warm_probe(probe, seconds=0.2):
    """Run the probe until its code paths and caches are warm."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        probe_once()
    probe.sample(3)


# ---------------------------------------------------------------------------
# Timing statistics
# ---------------------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it."""
    if n < 11:
        return None
    return int(math.floor(100.0 * (n - 10) / n))


def timing_summary(values):
    """Median, sample count and the highest percentile with >= 10
    samples beyond it, for one list of timings."""
    values = list(values)
    summary = {"n": len(values), "median": statistics.median(values)}
    tail = tail_percentile(len(values))
    if tail is not None:
        summary["p%d" % tail] = percentile(values, tail)
    return summary


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_command(*args):
    return [sys.executable, os.path.join(HERE, "child.py")] + list(args)


def run_child(args, tmp_dir, timeout):
    """Run ``child.py`` to completion; returns its reported JSON result.

    The child's stderr passes through; its stdout must end with one
    :data:`RESULT_MARK` line.
    """
    proc = subprocess.run(child_command(*args), env=child_env(tmp_dir),
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_MARK):
            result = json.loads(line[len(RESULT_MARK):])
    if proc.returncode != 0 or result is None:
        raise RuntimeError("child %s exited %d without a result"
                           % (" ".join(args[:2]), proc.returncode))
    return result


def check(name, ok, detail=""):
    """One output check, as work children report them."""
    return {"name": name, "ok": bool(ok), "detail": detail}


def report(result):
    """Child side of :func:`run_child`."""
    sys.stdout.write(RESULT_MARK + json.dumps(result) + "\n")
    sys.stdout.flush()


def time_setup_child(args, tmp_dir, timeout=120):
    """Seconds from spawning ``child.py`` until it is ready; the child
    prints ``READY <perf_counter>`` (the clock is system-wide)."""
    start = time.perf_counter()
    proc = subprocess.Popen(child_command(*args), env=child_env(tmp_dir),
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "READY":
        raise RuntimeError("set-up child %s failed (exit %s)"
                           % (" ".join(args[:2]), proc.returncode))
    return float(words[1]) - start
