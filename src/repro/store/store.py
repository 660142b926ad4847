"""The content-addressed qualification store (SQLite + JSON payloads).

One row per qualification cell, keyed by
:func:`repro.store.keys.qualification_key`.  Every row is stamped with
the payload schema version and the detection-semantics version that
produced it; :meth:`QualificationStore.get` only ever serves rows
whose stamps match the running code, so stale semantics can never leak
into a report -- they are simply misses (and
:meth:`QualificationStore.gc` reclaims them).

Stores produced on different machines merge losslessly: rows are
content-addressed, so :meth:`QualificationStore.merge` is a set union
(first writer wins on identical keys -- the payloads are identical by
construction).  This is what lets sharded campaign workers each fill a
private store and a coordinator fuse them into one store whose resumed
campaign report is byte-identical to an unsharded serial run.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import (
    Callable,
    Dict,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.store.keys import SCHEMA_VERSION, SEMANTICS_VERSION

_TABLE_SQL = """
CREATE TABLE IF NOT EXISTS qualifications (
    key TEXT PRIMARY KEY,
    schema_version INTEGER NOT NULL,
    semantics_version TEXT NOT NULL,
    payload TEXT NOT NULL,
    created_at TEXT NOT NULL DEFAULT (strftime('%Y-%m-%dT%H:%M:%SZ','now'))
)
"""

#: Write-retry schedule for transient contention ("database is
#: locked" / "database is busy" from a concurrent writer): attempts
#: beyond the first, first delay, doubling up to the cap.
_RETRIES = 5
_RETRY_BASE = 0.01
_RETRY_CAP = 0.2


def _transient(error: sqlite3.OperationalError) -> bool:
    """Is this a contention error worth retrying (vs a real fault)?"""
    message = str(error).lower()
    return "locked" in message or "busy" in message


class QualificationStore:
    """Persistent, mergeable cache of qualification outcomes.

    Args:
        path: SQLite database path; ``":memory:"`` (default) keeps the
            store session-local, which is what the opt-in ``store=``
            seams use in tests.

    The store also keeps *session* hit/miss counters
    (:attr:`session_hits` / :attr:`session_misses`) so campaigns and
    benchmarks can report cache effectiveness without re-querying.
    """

    def __init__(self, path: Union[str, os.PathLike] = ":memory:"):
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self.session_hits = 0
        self.session_misses = 0
        #: Recovered transient write errors this session (real lock
        #: contention and injected chaos both count).
        self.session_write_retries = 0
        self._lock_chaos: Optional[Callable[[], bool]] = None

        # Every put() commits (an interrupted campaign must find its
        # finished cells on resume), so make commits cheap: WAL avoids
        # a journal rewrite per transaction and synchronous=NORMAL
        # drops the per-commit fsync -- a power loss can at worst cost
        # recent cache entries, never corrupt the database.  Both
        # pragmas are no-ops for in-memory stores.  The setup is
        # retried because switching a new file to WAL skips SQLite's
        # busy wait: two connections opening one new store at once
        # (the job threads of a fresh `serve`) saw "database is
        # locked" there.
        def setup():
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            # First line of defense against concurrent writers:
            # SQLite itself waits up to 5s for a lock before raising
            # "database is locked"; _with_retry backs off and retries
            # on top of that.
            self._conn.execute("PRAGMA busy_timeout=5000")
            self._conn.execute(_TABLE_SQL)
            self._conn.commit()

        try:
            self._with_retry(setup)
        except sqlite3.DatabaseError as error:
            self._conn.close()
            if type(error) is not sqlite3.DatabaseError:
                # Subclasses (OperationalError "database is locked",
                # IntegrityError, ...) signal contention or bugs, not
                # a corrupt file -- let them propagate untranslated.
                raise
            # A path pointing at a non-SQLite file raises the bare
            # DatabaseError ("file is not a database"); the raw
            # sqlite3 traceback names neither the path nor the store,
            # so normalize it to the ValueError every store seam (CLI
            # included) already reports cleanly.
            raise ValueError(
                f"{self.path!r} is not a qualification store "
                f"database: {error}") from None

    def inject_lock_chaos(
        self, plan: Optional[Callable[[], bool]]
    ) -> None:
        """Install (or clear) a lock-contention chaos hook.

        *plan* is called once per write attempt; returning True makes
        that attempt raise a synthetic ``database is locked``
        *before* touching SQLite, exercising the very retry path real
        contention takes.  See :meth:`repro.sim.chaos.ChaosSpec.lock_plan`.
        """
        self._lock_chaos = plan

    def _with_retry(self, fn: Callable):
        """Run a write transaction, retrying transient lock errors.

        Concurrent shard workers sharing one database file surface as
        ``sqlite3.OperationalError: database is locked`` even past the
        busy timeout; since every write here is idempotent (content
        addressing), retrying with capped backoff is always safe.
        Non-transient errors and exhausted retries propagate.
        """
        for attempt in range(_RETRIES + 1):
            try:
                if (self._lock_chaos is not None
                        and self._lock_chaos()):
                    raise sqlite3.OperationalError(
                        "database is locked (chaos injection)")
                return fn()
            except sqlite3.OperationalError as error:
                if not _transient(error) or attempt >= _RETRIES:
                    raise
                # Drop the failed half-transaction before retrying.
                self._conn.rollback()
                self.session_write_retries += 1
                time.sleep(min(_RETRY_BASE * (2 ** attempt),
                               _RETRY_CAP))

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """The stored payload for *key*, or ``None``.

        Rows stamped with a different payload schema or detection
        semantics are treated as misses, never decoded.
        """
        row = self._conn.execute(
            "SELECT payload FROM qualifications WHERE key = ? "
            "AND schema_version = ? AND semantics_version = ?",
            (key, SCHEMA_VERSION, SEMANTICS_VERSION)).fetchone()
        if row is None:
            self.session_misses += 1
            return None
        self.session_hits += 1
        return json.loads(row[0])

    def get_many(self, keys: Sequence[str]) -> Dict[str, dict]:
        """Bulk :meth:`get`: payloads for every present key.

        One ``SELECT ... IN`` round-trip per 999 keys (the SQLite
        bound-parameter ceiling) instead of one per key -- the
        difference between O(faults x geometries) queries and a
        handful when a fleet build prefetches its dictionary rows.
        Version filtering and the session hit/miss counters behave
        exactly as per-key :meth:`get` calls would: absent keys are
        simply missing from the result and counted as misses.
        """
        found: Dict[str, dict] = {}
        distinct = list(dict.fromkeys(keys))
        for start in range(0, len(distinct), 999):
            chunk = distinct[start:start + 999]
            marks = ",".join("?" * len(chunk))
            for key, payload in self._conn.execute(
                    f"SELECT key, payload FROM qualifications "
                    f"WHERE key IN ({marks}) "
                    f"AND schema_version = ? AND semantics_version = ?",
                    (*chunk, SCHEMA_VERSION, SEMANTICS_VERSION)):
                found[key] = json.loads(payload)
        self.session_hits += len(found)
        self.session_misses += len(distinct) - len(found)
        return found

    def put(self, key: str, payload: dict) -> None:
        """Store *payload* under *key*, stamped with current versions.

        Idempotent: re-putting an existing key is a no-op (the payload
        is identical by content addressing), so concurrent shard
        workers never fight over a row.  Transient lock contention is
        retried with capped backoff (see :meth:`_with_retry`).
        """
        self.put_many([(key, payload)])

    def put_many(self, rows: Sequence[Tuple[str, dict]]) -> None:
        """:meth:`put` every ``(key, payload)`` row in one transaction.

        One commit and one retry unit per finished chunk of the keyed
        work queue.  A statement takes up to 249 rows (999 bound
        parameters): each step releases the GIL, and retaking it can
        wait out a switch interval behind a busy job thread.
        """
        values = [
            field for key, payload in rows
            for field in (key, SCHEMA_VERSION, SEMANTICS_VERSION,
                          json.dumps(payload, separators=(",", ":")))]

        def write():
            for start in range(0, len(values), 4 * 249):
                batch = values[start:start + 4 * 249]
                self._conn.execute(
                    "INSERT OR IGNORE INTO qualifications "
                    "(key, schema_version, semantics_version, payload) "
                    "VALUES " + ",".join(["(?, ?, ?, ?)"] * (len(batch) // 4)),
                    batch)
            self._conn.commit()

        self._with_retry(write)

    def __contains__(self, key: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM qualifications WHERE key = ? "
            "AND schema_version = ? AND semantics_version = ?",
            (key, SCHEMA_VERSION, SEMANTICS_VERSION)).fetchone()
        return row is not None

    def __len__(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM qualifications").fetchone()[0]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def merge(self, other: Union["QualificationStore", str]) -> int:
        """Union another store's current-version rows into this one.

        Returns the number of rows actually added (keys already
        present are skipped -- identical by construction).  *other*
        may be a store object or a database path.
        """
        source = other if isinstance(other, QualificationStore) \
            else QualificationStore(other)

        def union() -> int:
            added = 0
            rows = source._conn.execute(
                "SELECT key, schema_version, semantics_version, "
                "payload, created_at FROM qualifications "
                "WHERE schema_version = ? AND semantics_version = ?",
                (SCHEMA_VERSION, SEMANTICS_VERSION)).fetchall()
            for row in rows:
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO qualifications "
                    "(key, schema_version, semantics_version, payload, "
                    "created_at) VALUES (?, ?, ?, ?, ?)", row)
                added += cursor.rowcount
            self._conn.commit()
            return added

        try:
            # The whole union is one retry unit: a rollback discards
            # the partial insert batch, so the recount after a
            # transient lock error is exact (INSERT OR IGNORE makes
            # any overlap idempotent anyway).
            return self._with_retry(union)
        except sqlite3.OperationalError as error:
            if not _transient(error):
                raise
            # A source mid-write (e.g. a live shard holding the WAL
            # write lock) keeps the merge locked out past every
            # retry; report it in the store's one-line style.
            raise ValueError(
                f"cannot merge {source.path!r}: {error} "
                f"(is a campaign still writing to it?)") from None
        finally:
            if source is not other:
                source.close()

    def gc(self) -> int:
        """Delete rows stamped with stale schema or semantics versions.

        Returns the number of rows reclaimed.  Current-version rows
        are never touched: content addressing means they cannot go
        stale except through a version bump.
        """
        def reclaim() -> int:
            cursor = self._conn.execute(
                "DELETE FROM qualifications "
                "WHERE schema_version != ? OR semantics_version != ?",
                (SCHEMA_VERSION, SEMANTICS_VERSION))
            self._conn.commit()
            self._conn.execute("VACUUM")
            return cursor.rowcount

        return self._with_retry(reclaim)

    def stats(self) -> dict:
        """Row counts, version stamps and session counters."""
        total = len(self)
        current = self._conn.execute(
            "SELECT COUNT(*) FROM qualifications "
            "WHERE schema_version = ? AND semantics_version = ?",
            (SCHEMA_VERSION, SEMANTICS_VERSION)).fetchone()[0]
        payload_bytes = self._conn.execute(
            "SELECT COALESCE(SUM(LENGTH(payload)), 0) "
            "FROM qualifications").fetchone()[0]
        return {
            "path": self.path,
            "rows": total,
            "current_rows": current,
            "stale_rows": total - current,
            "payload_bytes": payload_bytes,
            "schema_version": SCHEMA_VERSION,
            "semantics_version": SEMANTICS_VERSION,
            "session_hits": self.session_hits,
            "session_misses": self.session_misses,
            "session_write_retries": self.session_write_retries,
        }

    def rows(self) -> Iterator[Tuple[str, int, str, dict, str]]:
        """Every row as ``(key, schema, semantics, payload, created)``."""
        for key, schema, semantics, payload, created in \
                self._conn.execute(
                    "SELECT key, schema_version, semantics_version, "
                    "payload, created_at FROM qualifications "
                    "ORDER BY key"):
            yield key, schema, semantics, json.loads(payload), created

    def export(self) -> dict:
        """A JSON-ready dump of the whole store (artifact-friendly)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "semantics_version": SEMANTICS_VERSION,
            "rows": [
                {
                    "key": key,
                    "schema_version": schema,
                    "semantics_version": semantics,
                    "payload": payload,
                    "created_at": created,
                }
                for key, schema, semantics, payload, created
                in self.rows()
            ],
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "QualificationStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_store(
    store: Union[QualificationStore, str, os.PathLike, None],
) -> Optional[QualificationStore]:
    """Normalize the ``store=`` seam every oracle accepts.

    ``None`` passes through (caching off); a path opens (or creates)
    a file-backed store; an existing store object is used as-is.
    """
    if store is None or isinstance(store, QualificationStore):
        return store
    return QualificationStore(store)
