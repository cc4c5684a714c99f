"""One held SQLite connection per store or queue object.

:class:`~repro.store.ExperimentStore` and :class:`~repro.jobs.JobQueue`
both derive from :class:`SQLiteFile`.  Each object opens one WAL-mode
connection on its first call and keeps it until :meth:`SQLiteFile.close`
(or a ``with`` block, or the object being dropped).  A connection per
call costs a WAL checkpoint and a sync each time the last connection to
the file closes: about 1 ms per call, against tens of microseconds on a
held connection.

Rules the class keeps:

* Every call runs under the object's lock, so threads can share one
  object (the connection is opened with ``check_same_thread=False``).
* The connection belongs to the process that opened it.  A forked child
  opens its own on its first call and never uses or closes the parent's,
  which SQLite forbids across ``fork()``.
* Closing is deterministic.  ``sqlite3.Connection`` sits in a reference
  cycle with its statement cache, so a dropped connection would linger
  (and keep its ``-wal``/``-shm`` files) until a full garbage
  collection.  A :func:`weakref.finalize` closes it as soon as the
  owning object is dropped, and at interpreter exit.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import weakref
from contextlib import contextmanager

#: Connections a forked child inherited from its parent.  Kept
#: referenced so the child never finalizes (closes) them.
_INHERITED = []


def _close_in_owner(conn, pid):
    if os.getpid() == pid:
        conn.close()


class SQLiteFile:
    """Base of the SQLite-backed store and queue: one held connection.

    Subclasses set :attr:`SCHEMA_SQL`, which runs once per opened
    connection.  Reads go through :meth:`_conn` (autocommit), writes
    that must be atomic through :meth:`_txn` (``BEGIN IMMEDIATE``).
    """

    SCHEMA_SQL = ""

    def __init__(self, path):
        self.path = path
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._db = None
        self._finalizer = None

    def _own_process(self):
        """Start afresh on the first call in a forked child: a new lock
        (another parent thread may have held the old one at the fork)
        and no connection."""
        pid = os.getpid()
        if self._pid != pid:
            if self._db is not None:
                _INHERITED.append(self._db)
            self._db = self._finalizer = None
            self._lock = threading.Lock()
            self._pid = pid

    def _open(self):
        """The held connection (opened on first use); lock held."""
        if self._db is None:
            conn = sqlite3.connect(self.path, timeout=30.0,
                                   isolation_level=None,
                                   check_same_thread=False)
            try:
                conn.row_factory = sqlite3.Row
                # NORMAL first: converting a new file to WAL then skips
                # the syncs of the default FULL.
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute("PRAGMA journal_mode=WAL")
                conn.executescript(self.SCHEMA_SQL)
            except BaseException:
                conn.close()
                raise
            self._db = conn
            self._finalizer = weakref.finalize(self, _close_in_owner,
                                               conn, self._pid)
        return self._db

    @contextmanager
    def _conn(self):
        """The connection, in autocommit mode, for one call."""
        self._own_process()
        with self._lock:
            yield self._open()

    @contextmanager
    def _txn(self):
        """One write transaction; ``BEGIN IMMEDIATE`` takes the write
        lock up front so a read-then-update is atomic.  A failed body or
        ``COMMIT`` rolls back, so the held connection never keeps a
        transaction (and the file's write lock) open."""
        with self._conn() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                yield conn
                conn.execute("COMMIT")
            finally:
                if conn.in_transaction:
                    conn.execute("ROLLBACK")

    def close(self):
        """Close the connection; the next call opens a new one."""
        self._own_process()
        with self._lock:
            if self._finalizer is not None:
                self._finalizer()
            self._db = self._finalizer = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
