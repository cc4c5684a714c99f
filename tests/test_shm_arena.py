"""Shared-memory session arena: publish/attach roundtrip and lifecycle.

The arena lets the study-runner parent characterize once and hand every
process worker a zero-copy view of the LUT grids plus the warmed margin
memos.  These tests pin the contract: an attached session is
bit-identical to the publisher's, the numpy views really alias the
segment (read-only, never copied), lifecycle operations are idempotent,
malformed or missing segments raise :class:`ArenaError`, and a worker
dying without cleanup does not leak or unlink the segment.
"""

import os
import struct
import subprocess
import sys
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.analysis.runner import run_study
from repro.errors import ArenaError
from repro.jobs.worker import SessionProvider
from repro.opt import DesignSpace, ExhaustiveOptimizer, make_policy
from repro.shm import ARENA_VERSION, MAGIC, SessionArena

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _optimize(session, flavor, method, capacity_bytes):
    optimizer = ExhaustiveOptimizer(
        session.model(flavor), DesignSpace(), session.constraint(flavor)
    )
    policy = make_policy(method, session.yield_levels(flavor))
    return optimizer.optimize(capacity_bytes * 8, policy)


def test_roundtrip_is_bit_identical_and_zero_copy(paper_session):
    with SessionArena.publish(paper_session) as arena:
        attached = SessionArena.attach(arena.name)
        try:
            session = attached.to_session()
            assert session.voltage_mode == paper_session.voltage_mode
            assert sorted(attached.flavors) == sorted(paper_session.chars)

            # Zero copy: the LUT axes are read-only views over the
            # segment, not writeable private copies.
            xs = session.chars["hvt"].i_wl.xs
            assert isinstance(xs, np.ndarray)
            assert not xs.flags.writeable
            assert xs.base is not None
            np.testing.assert_array_equal(
                xs, np.asarray(paper_session.chars["hvt"].i_wl.xs)
            )

            # A search through the attached session lands on exactly the
            # same design and metrics as the publisher's session.
            for flavor, method, capacity in (
                ("hvt", "M2", 16384),
                ("lvt", "M1", 128),
            ):
                mine = _optimize(paper_session, flavor, method, capacity)
                theirs = _optimize(session, flavor, method, capacity)
                assert mine.design == theirs.design
                assert mine.metrics.edp == theirs.metrics.edp
                assert mine.margins == theirs.margins
                assert mine.n_evaluated == theirs.n_evaluated
        finally:
            attached.close()


def test_margin_memos_roundtrip(paper_session):
    # Warm the publisher's memo so there is real rsnm content to ship.
    for flavor in ("lvt", "hvt"):
        _optimize(paper_session, flavor, "M2", 1024)
    memos = {
        flavor: constraint.export_margin_memo()
        for flavor, constraint in paper_session.constraints.items()
    }
    with SessionArena.publish(paper_session, margin_memos=memos) as arena:
        attached = SessionArena.attach(arena.name)
        try:
            assert attached.margin_memos() == memos
        finally:
            attached.close()


def test_close_and_dispose_are_idempotent(paper_session):
    arena = SessionArena.publish(paper_session)
    name = arena.name
    arena.dispose()
    arena.dispose()
    arena.close()
    with pytest.raises(ArenaError):
        arena.to_session()
    with pytest.raises(ArenaError):
        SessionArena.attach(name)


def test_attach_missing_segment_raises():
    with pytest.raises(ArenaError, match="no session arena"):
        SessionArena.attach("repro_arena_does_not_exist")


def _raw_segment(payload):
    shm = shared_memory.SharedMemory(create=True, size=max(len(payload), 1))
    shm.buf[: len(payload)] = payload
    return shm


def test_attach_bad_magic_raises():
    shm = _raw_segment(b"\0" * 64)
    try:
        with pytest.raises(ArenaError, match="not a repro session arena"):
            SessionArena.attach(shm.name)
    finally:
        shm.close()
        shm.unlink()


def test_attach_version_mismatch_raises():
    header = b"{}"
    payload = struct.pack("<8sII", MAGIC, ARENA_VERSION + 1, len(header))
    shm = _raw_segment(payload + header)
    try:
        with pytest.raises(ArenaError, match="version"):
            SessionArena.attach(shm.name)
    finally:
        shm.close()
        shm.unlink()


def test_worker_crash_leaves_segment_then_owner_unlinks(paper_session):
    arena = SessionArena.publish(paper_session)
    code = (
        "import os\n"
        "from repro.shm import SessionArena\n"
        "arena = SessionArena.attach(%r)\n"
        "assert arena.voltage_mode == %r\n"
        "os._exit(0)\n"  # die without close() — simulated crash
        % (arena.name, paper_session.voltage_mode)
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == ""  # no resource-tracker noise

    # The crash must not have unlinked the owner's segment.
    survivor = SessionArena.attach(arena.name)
    survivor.close()
    arena.dispose()
    with pytest.raises(ArenaError):
        SessionArena.attach(arena.name)


def test_session_provider_uses_arena(paper_session):
    with SessionArena.publish(paper_session) as arena:
        provider = SessionProvider(arena_name=arena.name)
        session = provider.for_spec({"voltage_mode":
                                     paper_session.voltage_mode})
        assert not session.chars["hvt"].i_wl.xs.flags.writeable
        # Memoized: a second request reuses the attached session.
        assert provider.for_spec(
            {"voltage_mode": paper_session.voltage_mode}) is session


def test_session_provider_voltage_mismatch_falls_back(paper_session):
    with SessionArena.publish(paper_session) as arena:
        # The warm repo cache makes the fallback create() cheap.
        cache = paper_session.cache.path
        provider = SessionProvider(default_cache_path=cache,
                                   arena_name=arena.name)
        session = provider.for_spec({"voltage_mode": "measured"})
        assert session.voltage_mode == "measured"
        assert session.chars["hvt"].i_wl.xs.flags.writeable


def test_process_study_through_arena_matches_serial(paper_session):
    kwargs = dict(session=paper_session, capacities=(128, 1024))
    serial = run_study(workers=1, **kwargs)
    parallel = run_study(executor="process", workers=2, **kwargs)
    assert parallel.fallback_reason is None
    assert parallel.executor == "process"
    for key, result in parallel.sweep.results.items():
        reference = serial.sweep.results[key]
        assert result.design == reference.design
        assert result.metrics.edp == reference.metrics.edp
        assert result.n_evaluated == reference.n_evaluated
