"""Shared fixtures for the test suite.

Heavy characterization state is session-scoped and backed by the repo's
characterization cache, so the suite runs fast after the first cold run.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.analysis import Session
from repro.cell import SRAM6TCell
from repro.devices import DeviceLibrary
from repro.lut import CharacterizationCache
from repro.periphery import characterize

CACHE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", ".repro_cache.json"
)
SRC_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "src"
)


def python_process(code, *args):
    """``python -c code *args`` importing this checkout's ``repro``,
    with text pipes on stdin, stdout and stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_PATH + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", code, *args], env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)


def succeeds_in_fork(child):
    """Whether ``child()`` returns truthy in a forked process (which
    exits at once, running no exit handlers)."""
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            ok = bool(child())
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status) == 0


def sqlite_side_files(path):
    """The ``-wal``/``-shm`` files beside a SQLite database that exist."""
    return [path + suffix for suffix in ("-wal", "-shm")
            if os.path.exists(path + suffix)]


def open_fd_count():
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture(scope="session")
def library():
    return DeviceLibrary.default_7nm()


@pytest.fixture(scope="session")
def lvt_cell(library):
    return SRAM6TCell.from_library(library, "lvt")


@pytest.fixture(scope="session")
def hvt_cell(library):
    return SRAM6TCell.from_library(library, "hvt")


@pytest.fixture(scope="session")
def char_cache():
    return CharacterizationCache(CACHE_PATH)


@pytest.fixture(scope="session")
def hvt_char(library, char_cache):
    return characterize(library, "hvt", cache=char_cache)


@pytest.fixture(scope="session")
def lvt_char(library, char_cache):
    return characterize(library, "lvt", cache=char_cache)


@pytest.fixture(scope="session")
def paper_session():
    return Session.create(cache_path=CACHE_PATH, voltage_mode="paper")
