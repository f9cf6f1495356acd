"""Fingerprint-keyed persistent store for mapping results.

:class:`ResultStore` is the "never solve the same instance twice" layer of
the service subsystem: results are keyed by the content-addressed
:func:`~repro.service.fingerprint.job_fingerprint` and survive process
restarts in a SQLite file, with a small in-memory LRU in front so hot keys
never touch the disk.

Rows additionally carry the *circuit* and *architecture* fingerprints of
their job, which :meth:`ResultStore.entries` reports.

Expiry
------
With ``ttl_seconds`` set, rows older than the TTL read as misses and are
purged lazily on access; :meth:`prune` sweeps them eagerly (also available
as the ``repro-map cache prune`` CLI subcommand).

Concurrency
-----------
Every SQLite operation opens its own short-lived connection, so the store
object can be shared freely between threads, and multiple *processes*
pointing at the same file coordinate through SQLite's file locking (writers
retry for up to :data:`SQLITE_TIMEOUT_SECONDS` before giving up).  The
in-memory LRU is guarded by a plain lock.

Every disk access on a job's path — ``get``, ``put``, ``get_artifact``
and ``put_artifact`` — runs through one policy: it fires the
``store.get`` or ``store.put`` fault point, retries busy/locked
contention, and counts toward one circuit breaker shared by both tables.
While the breaker is open (:attr:`ResultStore.degraded`) the disk is
skipped and both tables serve and accept rows memory-only.  A failed read
is a miss; a failed write keeps the row in memory and raises
:class:`~repro.service.errors.StoreError`.

Validation
----------
``put`` refuses to cache a result that fails
:meth:`~repro.exact.result.MappingResult.validate` and raises the structured
:class:`~repro.service.errors.InvalidResultError` — a corrupt result written
once would otherwise be served forever.  Rows of either table that fail to
decode on read (schema drift, truncated payloads, a foreign artifact
version) are dropped and reported as misses, so a stale cache file degrades
to extra solving work, never to an error.  Purges are advisory and guarded
on age: they only delete a row no newer than the one that was read, so a
fresh row another process wrote meanwhile survives.

Solve artifacts
---------------
Besides finished results, the store persists **solve artifacts**: the
cross-job warm-start material of the SAT subset sweep, one row per encoding
skeleton key (``gates × n × m × spots × undirected edge set`` — the exact
key :class:`repro.exact.encoding.EncodingSkeleton` canonicalises).  A row
holds learned clauses in *template numbering* (x block verbatim, spot block
re-based to start right after it — the numbering every same-key encoding
shares up to a constant shift), proven lower bounds keyed by the *directed*
edge set they were proven under (reversal costs differ between
orientations, so bounds only transfer on an exact directed match).
Results and artifacts share one two-tier row routine; each table supplies
only its codec and its merge.  Results replace; :meth:`put_artifact`
merges into an existing row (clause union, per-orientation bound maximum)
inside one ``BEGIN IMMEDIATE`` transaction.  :class:`ArtifactCache` is the
picklable, best-effort handle the solving layers carry: it survives
crossing into process-pool workers by re-opening the database from its
path (a memory-only store, or one that cannot be re-opened, degrades to no
artifact seeding on the far side), and it turns a store failure into a
miss or a dropped row.
"""

from __future__ import annotations

import json
import os
import random
import sqlite3
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro import faults
from repro.exact.result import MappingResult
from repro.service.errors import InvalidResultError, StoreError

#: How long concurrent writers wait on SQLite's file lock before failing.
SQLITE_TIMEOUT_SECONDS = 30.0

#: Bounded in-process retries when SQLite reports a transient busy/locked
#: condition (on top of SQLite's own file-lock wait above).
BUSY_RETRY_LIMIT = 3

#: Base of the jittered exponential backoff between busy retries.
BUSY_RETRY_BASE_SECONDS = 0.02

#: Consecutive hard disk failures that open the circuit breaker.
BREAKER_THRESHOLD = 3

#: How long an open breaker keeps the store memory-only before the next
#: disk attempt is allowed through.
BREAKER_COOLDOWN_SECONDS = 30.0

#: Default capacity of the in-memory LRU tier.
DEFAULT_MEMORY_ENTRIES = 256

#: File name of the result database inside a cache directory.
RESULTS_DB_NAME = "results.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT PRIMARY KEY,
    payload     TEXT NOT NULL,
    engine      TEXT NOT NULL,
    added_cost  INTEGER NOT NULL,
    optimal     INTEGER NOT NULL,
    created_at  REAL NOT NULL,
    circuit_fp  TEXT,
    arch_fp     TEXT
)
"""

_ARTIFACT_SCHEMA = """
CREATE TABLE IF NOT EXISTS artifacts (
    skeleton_key TEXT PRIMARY KEY,
    payload      TEXT NOT NULL,
    created_at   REAL NOT NULL
)
"""

#: Columns added after the first release; legacy database files are
#: migrated in place on open (rows keep NULLs and still serve exact
#: fingerprint hits).
_MIGRATED_COLUMNS = ("circuit_fp", "arch_fp")

#: Payload schema version of artifact rows; rows with another version are
#: dropped as corrupt (forward compatibility: a downgraded worker must not
#: misread a newer row).
ARTIFACT_PAYLOAD_VERSION = 1

#: Clause-union cap per artifact row: merges keep the freshest clauses and
#: the row's serialised size stays bounded under long-running fleets.
MAX_ARTIFACT_CLAUSES = 4096

#: Per-orientation bound entries kept per artifact row.
MAX_ARTIFACT_BOUNDS = 8


#: The columns :meth:`ResultStore.entries` reports, in table order.
_ENTRY_FIELDS = (
    "fingerprint", "engine", "added_cost", "optimal", "created_at",
    "circuit_fp", "arch_fp",
)

#: What a disk operation may raise: SQLite's errors and injected faults.
_DISK_ERRORS = (sqlite3.Error, faults.FaultInjectedError)


def _transient_disk_error(error: BaseException) -> bool:
    """Whether *error* is worth an in-process retry.

    Injected faults always are (the chaos harness models transient
    infrastructure failures); of SQLite's errors only the busy/locked
    contention family is — schema or corruption errors would fail the
    retry identically.
    """
    if isinstance(error, faults.FaultInjectedError):
        return True
    if not isinstance(error, sqlite3.OperationalError):
        return False
    message = str(error).lower()
    return "locked" in message or "busy" in message


def _retrying(point: str, operation, on_retry: Optional[Callable[[], None]] = None):
    """Fire fault *point*, run *operation*, and retry transient failures.

    A transient error (see :func:`_transient_disk_error`) gets up to
    :data:`BUSY_RETRY_LIMIT` retries after a jittered exponential backoff,
    calling *on_retry* before each; the last error, or a hard one, is
    re-raised.
    """
    attempt = 0
    while True:
        try:
            if faults.ARMED:
                faults.fire(point)
            return operation()
        except _DISK_ERRORS as error:
            if not _transient_disk_error(error) or attempt >= BUSY_RETRY_LIMIT:
                raise
            attempt += 1
            if on_retry is not None:
                on_retry()
            time.sleep(
                BUSY_RETRY_BASE_SECONDS
                * (2 ** (attempt - 1))
                * (0.5 + random.random() / 2.0)
            )


@contextmanager
def _transaction(path: Path) -> Iterator[sqlite3.Connection]:
    """One short-lived connection: commits on success, rolls back on an
    error, and is always closed."""
    conn = sqlite3.connect(str(path), timeout=SQLITE_TIMEOUT_SECONDS)
    try:
        with conn:
            yield conn
    finally:
        conn.close()


class _MemoryEntry:
    """One in-memory tier entry: the decoded row plus its metadata."""

    __slots__ = ("value", "created_at", "circuit_fp", "arch_fp")

    def __init__(
        self,
        value: Any,
        created_at: float,
        circuit_fp: Optional[str] = None,
        arch_fp: Optional[str] = None,
    ):
        self.value = value
        self.created_at = created_at
        self.circuit_fp = circuit_fp
        self.arch_fp = arch_fp


class _Table(NamedTuple):
    """What one keyed table adds to the shared two-tier row routine."""

    name: str
    key: str
    #: Prefix of the table's ``misses``, ``puts``, ``corrupt_dropped`` and
    #: ``expired_dropped`` counters.
    prefix: str
    #: Counters of memory and of disk hits.
    hits: Tuple[str, str]
    encode: Callable[[Any], str]
    #: Payload text to value, or ``None`` for a corrupt payload.
    decode: Callable[[str], Any]
    #: ``merge(existing, incoming)``; ``None`` means the incoming row replaces.
    merge: Optional[Callable[[Any, Any], Any]] = None
    #: Row columns the memory tier keeps beside the value.
    meta: Tuple[str, ...] = ()


def resolve_cache_dir(cache_dir=None) -> Optional[str]:
    """The cache directory a command works in: *cache_dir* when given,
    else ``$REPRO_CACHE_DIR`` when set, else ``None`` (no persistence).

    The directory holds ``results.sqlite`` (see :meth:`ResultStore.at`
    and :meth:`JobJournal.at`); nothing else is written there.
    """
    if cache_dir is not None:
        return str(cache_dir)
    return os.environ.get("REPRO_CACHE_DIR", "").strip() or None


class ResultStore:
    """Two-tier (memory LRU + SQLite) mapping-result cache.

    Args:
        path: SQLite database file, or ``None`` for a memory-only store
            (useful in tests and for ephemeral workers).  Parent directories
            are created on demand.
        max_memory_entries: Capacity of the in-memory tier of each table;
            ``0`` disables it (every hit deserialises from disk).
        ttl_seconds: Results older than this read as misses and are purged
            lazily; ``None`` (default) disables expiry.

    Raises:
        StoreError: When the database cannot be opened or migrated, and
            from an administrative call on a sick database.

    Example:
        >>> store = ResultStore(tmp_path / "results.sqlite")
        >>> store.put(fingerprint, result)
        >>> store.get(fingerprint).added_cost == result.added_cost
        True
    """

    def __init__(
        self,
        path=None,
        *,
        max_memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        ttl_seconds: Optional[float] = None,
    ):
        self.path: Optional[Path] = None if path is None else Path(path)
        self.max_memory_entries = max(0, int(max_memory_entries))
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None to disable)")
        self.ttl_seconds = ttl_seconds
        self._lock = threading.Lock()
        #: Memory tier of each table, by table name.
        self._tiers: Dict[str, "OrderedDict[str, _MemoryEntry]"] = {
            table.name: OrderedDict() for table in _TABLES
        }
        self._memory = self._tiers[_RESULTS.name]
        self._stats = {
            "memory_hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "puts": 0,
            "invalid_rejected": 0,
            "corrupt_dropped": 0,
            "expired_dropped": 0,
            "artifact_hits": 0,
            "artifact_misses": 0,
            "artifact_puts": 0,
            "artifact_corrupt_dropped": 0,
            "artifact_expired_dropped": 0,
            "disk_errors": 0,
            "busy_retries": 0,
            "breaker_trips": 0,
        }
        #: Circuit-breaker state: consecutive hard failures, and the wall
        #: clock until which the disk tier is bypassed (0.0 = closed).
        self._disk_failures = 0
        self._degraded_until = 0.0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                with _transaction(self.path) as conn:
                    conn.execute(_SCHEMA)
                    conn.execute(_ARTIFACT_SCHEMA)
                    existing = {
                        row[1] for row in conn.execute("PRAGMA table_info(results)")
                    }
                    for column in _MIGRATED_COLUMNS:
                        if column not in existing:
                            conn.execute(
                                f"ALTER TABLE results ADD COLUMN {column} TEXT"
                            )
            except sqlite3.Error as error:
                raise StoreError(
                    f"failed to open result store: {error}",
                    details={"path": str(self.path)},
                ) from error

    @classmethod
    def at(cls, cache_dir, **kwargs) -> "ResultStore":
        """The store for a cache *directory* (``<dir>/results.sqlite``)."""
        return cls(Path(cache_dir) / RESULTS_DB_NAME, **kwargs)

    # ------------------------------------------------------------------
    # Disk-failure circuit breaker
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether the breaker is open (disk bypassed; memory tier only).

        The store trips after :data:`BREAKER_THRESHOLD` consecutive hard
        disk failures and stays memory-only for
        :data:`BREAKER_COOLDOWN_SECONDS`, so a sick database file degrades
        caching instead of stalling every job on retries.  The service
        layer stamps ``store_degraded`` into job provenance while this is
        True, keeping the degradation visible to clients.
        """
        with self._lock:
            return time.time() < self._degraded_until

    def _run_disk(self, point: str, operation):
        """Run one disk operation under the retry/breaker policy.

        Transient conditions (SQLite busy/locked contention and armed
        ``store.*`` fault points) get :data:`BUSY_RETRY_LIMIT` jittered
        retries; exhaustion or a hard error feeds the breaker and
        re-raises for the caller to map into its own failure contract.
        """
        try:
            result = _retrying(point, operation, lambda: self._count("busy_retries"))
        except _DISK_ERRORS:
            with self._lock:
                self._disk_failures += 1
                self._stats["disk_errors"] += 1
                if self._disk_failures >= BREAKER_THRESHOLD:
                    self._degraded_until = time.time() + BREAKER_COOLDOWN_SECONDS
                    self._disk_failures = 0
                    self._stats["breaker_trips"] += 1
            raise
        with self._lock:
            self._disk_failures = 0
        return result

    def _disk_usable(self) -> bool:
        return self.path is not None and not self.degraded

    @contextmanager
    def _admin(self) -> Iterator[sqlite3.Connection]:
        """One transaction of an administrative call (``delete``, ``clear``,
        ``prune_report``, ``in``, ``len`` and the listings).

        A sick database raises :class:`StoreError`.  These calls are not on
        a job's path, so they neither retry nor feed the breaker.
        """
        try:
            with _transaction(self.path) as conn:
                yield conn
        except sqlite3.Error as error:
            raise StoreError(
                f"result store operation failed: {error}",
                details={"path": str(self.path)},
            ) from error

    def _query(self, sql: str, params: Tuple = (), point: str = "store.get"):
        """All rows of one statement under :meth:`_run_disk`.

        ``None`` when the store has no usable disk tier or the statement
        failed (the failure was counted toward the breaker).
        """
        if not self._disk_usable():
            return None

        def _run():
            with _transaction(self.path) as conn:
                return conn.execute(sql, params).fetchall()

        try:
            return self._run_disk(point, _run)
        except _DISK_ERRORS:
            return None

    def _count(self, counter: str) -> None:
        with self._lock:
            self._stats[counter] += 1

    def _expired(self, created_at: float) -> bool:
        if self.ttl_seconds is None:
            return False
        return time.time() - created_at > self.ttl_seconds

    def _cutoff(self, ttl_seconds: Optional[float] = None) -> Optional[float]:
        """The oldest non-expired creation time, or ``None`` without a TTL."""
        ttl = self.ttl_seconds if ttl_seconds is None else ttl_seconds
        if ttl is None:
            return None
        return time.time() - ttl

    # ------------------------------------------------------------------
    # The two-tier row routine shared by both tables
    # ------------------------------------------------------------------
    def _get_row(self, table: _Table, key: str) -> Any:
        """Memory LRU, TTL check, disk read, decode, corrupt/expired purge.

        Returns the decoded value, or ``None`` for a miss; a disk failure
        reads as a miss.  The value may be shared with other callers.
        """
        memory = self._tiers[table.name]
        with self._lock:
            entry = memory.get(key)
            if entry is not None:
                if not self._expired(entry.created_at):
                    memory.move_to_end(key)
                    self._stats[table.hits[0]] += 1
                    return entry.value
                del memory[key]
                self._stats[table.prefix + "expired_dropped"] += 1
        if entry is not None:
            # Purge the equally old disk row, then fall through to the disk
            # read, which serves a row another writer refreshed meanwhile.
            self._purge(table, key, self._cutoff())
        rows = self._query(
            f"SELECT {', '.join(('payload', 'created_at') + table.meta)} "
            f"FROM {table.name} WHERE {table.key} = ?",
            (key,),
        )
        if rows:
            payload, created_at, *meta = rows[0]
            expired = self._expired(created_at)
            value = None if expired else table.decode(payload)
            if value is not None:
                self._remember(table, key, _MemoryEntry(value, created_at, *meta))
                self._count(table.hits[1])
                return value
            self._purge(table, key, created_at)
            self._count(
                table.prefix + ("expired_dropped" if expired else "corrupt_dropped")
            )
        self._count(table.prefix + "misses")
        return None

    def _put_row(
        self, table: _Table, key: str, value: Any, columns: Dict[str, Any]
    ) -> None:
        """Encode and write (merging in one transaction), then remember.

        The memory tier takes the row even when the disk write failed or
        the breaker skipped the disk — that *is* the degraded mode the
        breaker promises: same-process lookups keep hitting while the
        database is sick.

        Raises:
            StoreError: When the disk write failed.
        """
        created_at = time.time()
        stored = None
        store_error: Optional[StoreError] = None
        if self._disk_usable():
            try:
                stored = self._run_disk(
                    "store.put",
                    lambda: self._write(table, key, value, created_at, columns),
                )
            except _DISK_ERRORS as error:
                store_error = StoreError(
                    f"failed to persist {table.name} row: {error}",
                    details={table.key: key, "path": str(self.path)},
                )
                store_error.__cause__ = error
        if stored is None:
            stored = value
            if table.merge is not None:
                with self._lock:
                    entry = self._tiers[table.name].get(key)
                if entry is not None and not self._expired(entry.created_at):
                    stored = table.merge(entry.value, value)
        self._remember(
            table,
            key,
            _MemoryEntry(
                stored, created_at, columns.get("circuit_fp"), columns.get("arch_fp")
            ),
        )
        self._count(table.prefix + "puts")
        if store_error is not None:
            raise store_error

    def _write(
        self,
        table: _Table,
        key: str,
        value: Any,
        created_at: float,
        columns: Dict[str, Any],
    ) -> Any:
        """One write transaction; returns the value as stored (merged)."""
        with _transaction(self.path) as conn:
            if table.merge is not None:
                # Concurrent writers of one key fold their rows instead of
                # overwriting each other.
                conn.execute("BEGIN IMMEDIATE")
                row = conn.execute(
                    f"SELECT payload, created_at FROM {table.name} "
                    f"WHERE {table.key} = ?",
                    (key,),
                ).fetchone()
                if row is not None and not self._expired(row[1]):
                    existing = table.decode(row[0])
                    if existing is not None:
                        value = table.merge(existing, value)
            names = (table.key, "payload", "created_at") + tuple(columns)
            conn.execute(
                f"INSERT OR REPLACE INTO {table.name} ({', '.join(names)}) "
                f"VALUES ({', '.join('?' * len(names))})",
                (key, table.encode(value), created_at, *columns.values()),
            )
        return value

    def _remember(self, table: _Table, key: str, entry: _MemoryEntry) -> None:
        if self.max_memory_entries == 0:
            return
        memory = self._tiers[table.name]
        with self._lock:
            memory[key] = entry
            memory.move_to_end(key)
            while len(memory) > self.max_memory_entries:
                memory.popitem(last=False)

    def _purge(self, table: _Table, key: str, not_after: Optional[float]) -> None:
        """Advisory delete of *key*'s row, only while it is no newer than
        *not_after*: concurrent writers are supported, and a row another
        process re-put meanwhile (fresh ``created_at``) must survive.  A
        failed purge leaves the row for the next reader to drop."""
        if not_after is not None:
            self._query(
                f"DELETE FROM {table.name} WHERE {table.key} = ? "
                "AND created_at <= ?",
                (key, not_after),
                point="store.put",
            )

    # ------------------------------------------------------------------
    def put(
        self,
        fingerprint: str,
        result: MappingResult,
        *,
        circuit_fp: Optional[str] = None,
        arch_fp: Optional[str] = None,
    ) -> None:
        """Cache *result* under *fingerprint* (validated first).

        Args:
            fingerprint: The job fingerprint (exact-lookup key).
            result: The mapping result to cache.
            circuit_fp: Circuit fingerprint of the job (reported by
                :meth:`entries`).
            arch_fp: Architecture fingerprint of the job (see *circuit_fp*).

        Raises:
            InvalidResultError: When the result fails validation; nothing
                is written in that case.
            StoreError: When the database write fails (the memory tier
                still holds the result).
        """
        try:
            result.validate()
        except ValueError as error:
            self._count("invalid_rejected")
            raise InvalidResultError(
                f"refusing to cache invalid mapping result: {error}",
                details={"fingerprint": fingerprint, "engine": result.engine},
            ) from error
        self._put_row(
            _RESULTS,
            fingerprint,
            result,
            {
                "engine": result.engine,
                "added_cost": result.added_cost,
                "optimal": int(result.optimal),
                "circuit_fp": circuit_fp,
                "arch_fp": arch_fp,
            },
        )

    def get(self, fingerprint: str) -> Optional[MappingResult]:
        """The cached result for *fingerprint*, or ``None``.

        Rows older than ``ttl_seconds`` read as misses and are purged as a
        side effect.  The returned object may be shared with other callers
        (memory tier); treat it as read-only.
        """
        return self._get_row(_RESULTS, fingerprint)

    def delete(self, fingerprint: str) -> bool:
        """Remove one entry from both tiers; True when anything was removed."""
        removed = False
        with self._lock:
            if self._memory.pop(fingerprint, None) is not None:
                removed = True
        if self.path is not None:
            with self._admin() as conn:
                cursor = conn.execute(
                    "DELETE FROM results WHERE fingerprint = ?", (fingerprint,)
                )
                removed = removed or cursor.rowcount > 0
        return removed

    # ------------------------------------------------------------------
    # Solve artifacts (cross-job warm starts)
    # ------------------------------------------------------------------
    def get_artifact(self, skeleton_key: str) -> Optional[Dict[str, Any]]:
        """The artifact payload for one encoding skeleton key, or ``None``.

        The same routine as :meth:`get`: a bad or expired row reads as a
        miss (cold solving) and is deleted, never served, and a sick disk
        reads as a miss.
        """
        return self._get_row(_ARTIFACTS, skeleton_key)

    def put_artifact(self, skeleton_key: str, payload: Dict[str, Any]) -> None:
        """Merge *payload* into the artifact row for *skeleton_key*.

        Merging (clause union up to :data:`MAX_ARTIFACT_CLAUSES`, maximum
        bound per directed orientation) happens inside
        one ``BEGIN IMMEDIATE`` transaction, so concurrent workers writing
        the same family fold their contributions instead of overwriting
        each other; without a usable disk it merges into the memory tier.
        A payload that fails the shape check is rejected silently (counted
        under ``invalid_rejected``).

        Raises:
            StoreError: When the database write fails (the memory tier
                still holds the row); :class:`ArtifactCache` drops it.
        """
        payload = dict(payload)
        payload.setdefault("version", ARTIFACT_PAYLOAD_VERSION)
        if not _valid_artifact(payload):
            self._count("invalid_rejected")
            return
        self._put_row(_ARTIFACTS, skeleton_key, payload, {})

    def artifact_rows(self) -> Tuple[int, int]:
        """``(row count, payload bytes)`` of the non-expired artifact tier."""
        if self.path is None:
            payloads = [entry.value for _, entry in self._live_memory(_ARTIFACTS)]
            return len(payloads), sum(len(json.dumps(p)) for p in payloads)
        ((count, size),) = self._live_disk(
            _ARTIFACTS, "COUNT(*), COALESCE(SUM(LENGTH(payload)), 0)"
        )
        return int(count), int(size)

    # ------------------------------------------------------------------
    def _live_memory(self, table: _Table) -> List[Tuple[str, _MemoryEntry]]:
        """``(key, entry)`` of *table*'s non-expired memory-tier rows."""
        cutoff = self._cutoff()
        with self._lock:
            return [
                (key, entry) for key, entry in self._tiers[table.name].items()
                if cutoff is None or entry.created_at > cutoff
            ]

    def _live_disk(self, table: _Table, columns: str, order: str = "") -> List[Tuple]:
        """*columns* of *table*'s non-expired disk rows (an administrative
        read: a sick disk raises :class:`StoreError`)."""
        query, params = f"SELECT {columns} FROM {table.name}", ()
        cutoff = self._cutoff()
        if cutoff is not None:
            query, params = query + " WHERE created_at > ?", (cutoff,)
        with self._admin() as conn:
            return conn.execute(query + order, params).fetchall()

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            entry = self._memory.get(fingerprint)
            if entry is not None and not self._expired(entry.created_at):
                return True
        if self.path is None:
            return False
        query = "SELECT created_at FROM results WHERE fingerprint = ?"
        with self._admin() as conn:
            row = conn.execute(query, (fingerprint,)).fetchone()
        return row is not None and not self._expired(row[0])

    def __len__(self) -> int:
        """Number of non-expired results (expired rows read as absent)."""
        if self.path is None:
            return len(self._live_memory(_RESULTS))
        return self._live_disk(_RESULTS, "COUNT(*)")[0][0]

    def fingerprints(self) -> Iterator[str]:
        """Iterate over non-expired fingerprints (memory-only when no path)."""
        if self.path is None:
            return iter([key for key, _ in self._live_memory(_RESULTS)])
        rows = self._live_disk(_RESULTS, "fingerprint", " ORDER BY created_at")
        return iter([row[0] for row in rows])

    def entries(self) -> List[Dict[str, Any]]:
        """Metadata rows of every non-expired result (no payload parsing)."""
        if self.path is None:
            rows = [
                (key, entry.value.engine, entry.value.added_cost,
                 entry.value.optimal, entry.created_at, entry.circuit_fp,
                 entry.arch_fp)
                for key, entry in self._live_memory(_RESULTS)
            ]
        else:
            rows = self._live_disk(
                _RESULTS, ", ".join(_ENTRY_FIELDS), " ORDER BY created_at"
            )
        return [
            dict(zip(_ENTRY_FIELDS, row), optimal=bool(row[3])) for row in rows
        ]

    def prune(self, ttl_seconds: Optional[float] = None) -> int:
        """Eagerly remove expired rows; returns how many were dropped.

        Args:
            ttl_seconds: Override for this sweep (defaults to the store's
                ``ttl_seconds``).  With neither set, nothing is pruned.
        """
        return self.prune_report(ttl_seconds)["rows_pruned"]

    def prune_report(self, ttl_seconds: Optional[float] = None) -> Dict[str, Any]:
        """Eagerly remove expired rows and report what was reclaimed.

        The machine-readable companion of :meth:`prune` — the CLI's
        ``cache prune`` prints it and the server layer's cross-worker
        invalidation broadcast forwards it verbatim.

        Returns:
            A dict with ``rows_pruned`` (disk rows deleted), ``bytes_reclaimed``
            (total payload size of those rows), ``memory_dropped`` (expired
            in-memory LRU entries evicted), ``artifact_rows_pruned`` /
            ``artifact_bytes_reclaimed`` (same sweep over the solve-artifact
            table) and ``ttl_seconds`` (the effective TTL of the sweep,
            ``None`` when nothing could be pruned).
        """
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        effective = self.ttl_seconds if ttl_seconds is None else ttl_seconds
        cutoff = self._cutoff(ttl_seconds)
        report: Dict[str, Any] = {
            "rows_pruned": 0,
            "bytes_reclaimed": 0,
            "memory_dropped": 0,
            "artifact_rows_pruned": 0,
            "artifact_bytes_reclaimed": 0,
            "ttl_seconds": effective,
            "persistent": self.path is not None,
        }
        if cutoff is None:
            return report
        stale: Dict[str, int] = {}
        with self._lock:
            for name, memory in self._tiers.items():
                keys = [k for k, e in memory.items() if e.created_at <= cutoff]
                for key in keys:
                    del memory[key]
                stale[name] = len(keys)
        report["memory_dropped"] = stale[_RESULTS.name]
        if self.path is not None:
            with self._admin() as conn:
                for table in _TABLES:
                    count, size = conn.execute(
                        "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) "
                        f"FROM {table.name} WHERE created_at <= ?",
                        (cutoff,),
                    ).fetchone()
                    conn.execute(
                        f"DELETE FROM {table.name} WHERE created_at <= ?", (cutoff,)
                    )
                    report[table.prefix + "rows_pruned"] = int(count)
                    report[table.prefix + "bytes_reclaimed"] = int(size)
        else:
            report["artifact_rows_pruned"] = stale[_ARTIFACTS.name]
        with self._lock:
            for table in _TABLES:
                self._stats[table.prefix + "expired_dropped"] += max(
                    report[table.prefix + "rows_pruned"], stale[table.name]
                )
        return report

    def drop_memory(self) -> int:
        """Evict the whole in-memory tier; returns how many entries it held.

        The disk tier is untouched — the next ``get`` of a still-valid
        fingerprint re-reads it from SQLite.  This is the cross-*process*
        invalidation primitive: after one worker prunes (or rewrites) rows
        in the shared database file, every other worker's LRU may hold
        stale copies; broadcasting ``drop_memory`` makes them all re-read.
        """
        with self._lock:
            dropped = len(self._memory)
            self._memory.clear()
            if self.path is not None:
                # Artifact rows on disk survive (they re-read on the next
                # lookup); a memory-only store has no disk tier to re-read
                # from, so its artifacts are deliberately kept.
                self._tiers[_ARTIFACTS.name].clear()
        return dropped

    def clear(self) -> int:
        """Drop every cached result and artifact (both tiers).

        Returns the number of *result* rows removed (the historical
        contract); artifact rows are cleared alongside.
        """
        removed = 0
        if self.path is not None:
            with self._admin() as conn:
                removed = conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
                conn.execute("DELETE FROM results")
                conn.execute("DELETE FROM artifacts")
        with self._lock:
            removed = max(removed, len(self._memory))
            for memory in self._tiers.values():
                memory.clear()
        return removed

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus tier sizes (a snapshot copy)."""
        with self._lock:
            stats = dict(self._stats)
            stats["memory_entries"] = len(self._memory)
        stats["persistent"] = self.path is not None
        stats["ttl_seconds"] = self.ttl_seconds
        stats["degraded"] = self.degraded
        try:
            if self.path is not None:
                stats["disk_entries"] = len(self)
            stats["artifact_rows"], stats["artifact_bytes"] = self.artifact_rows()
        except StoreError:
            # An unreadable database has no known sizes; ``disk_errors``
            # and ``degraded`` report the sickness itself.
            stats["disk_entries"] = stats["artifact_rows"] = None
            stats["artifact_bytes"] = None
        return stats




#: The keys of an artifact payload.  Others (the ``schedule`` and
#: ``objective`` that rows once carried) are not checked, never read, and
#: dropped when a row is merged.
_ARTIFACT_KEYS = ("version", "x_var_limit", "spot_var_count", "clauses", "bounds")


def _valid_artifact(payload) -> bool:
    """Shape check of one artifact payload (shared by read and write).

    Cheap structural validation of the :data:`_ARTIFACT_KEYS` only —
    semantic checks (does the bound's orientation match) belong to the
    consumer, which knows the target instance.
    """
    if not isinstance(payload, dict):
        return False
    if payload.get("version") != ARTIFACT_PAYLOAD_VERSION:
        return False
    x_var_limit = payload.get("x_var_limit")
    spot_var_count = payload.get("spot_var_count")
    if not isinstance(x_var_limit, int) or x_var_limit < 0:
        return False
    if not isinstance(spot_var_count, int) or spot_var_count < 0:
        return False
    clauses = payload.get("clauses")
    if not isinstance(clauses, list):
        return False
    limit = x_var_limit + spot_var_count
    for clause in clauses:
        if not isinstance(clause, list) or not clause:
            return False
        for literal in clause:
            if not isinstance(literal, int) or literal == 0:
                return False
            if abs(literal) > limit:
                return False
    bounds = payload.get("bounds")
    if not isinstance(bounds, dict):
        return False
    for edges, bound in bounds.items():
        if not isinstance(edges, str):
            return False
        if not isinstance(bound, (int, float)) or isinstance(bound, bool):
            return False
    return True


def _merge_artifacts(
    existing: Dict[str, Any], incoming: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold *incoming* into *existing* (both pre-validated).

    Clause union keeps existing clauses first and caps the total; bounds
    take the per-orientation maximum (both are proven, the higher prunes
    more).  Clause blocks only merge when both
    payloads agree on the variable-block boundaries: a clause-free payload
    (bound-only harvest, e.g. from a pruned family) adopts the other side's
    clause block untouched, while a genuine boundary conflict between two
    clause-bearing payloads means one came from an incompatible encoding
    build — the incoming payload then replaces the clause block outright
    rather than merging garbage.  Keys outside :data:`_ARTIFACT_KEYS` are
    not carried over.
    """
    merged = {key: existing[key] for key in _ARTIFACT_KEYS}
    boundaries_match = (
        existing.get("x_var_limit") == incoming.get("x_var_limit")
        and existing.get("spot_var_count") == incoming.get("spot_var_count")
    )
    if not incoming["clauses"]:
        pass  # keep the existing clause block and boundaries
    elif not existing["clauses"] or not boundaries_match:
        merged["x_var_limit"] = incoming["x_var_limit"]
        merged["spot_var_count"] = incoming["spot_var_count"]
        merged["clauses"] = list(incoming["clauses"])[:MAX_ARTIFACT_CLAUSES]
    else:
        seen = {tuple(clause) for clause in existing["clauses"]}
        clauses = list(existing["clauses"])
        for clause in incoming["clauses"]:
            if tuple(clause) not in seen and len(clauses) < MAX_ARTIFACT_CLAUSES:
                seen.add(tuple(clause))
                clauses.append(clause)
        merged["clauses"] = clauses
    bounds = dict(existing["bounds"])
    for edges, bound in incoming["bounds"].items():
        if edges not in bounds or bound > bounds[edges]:
            bounds[edges] = bound
    if len(bounds) > MAX_ARTIFACT_BOUNDS:
        bounds = dict(
            sorted(bounds.items(), key=lambda item: -item[1])[:MAX_ARTIFACT_BOUNDS]
        )
    merged["bounds"] = bounds
    return merged


def _decode_result(payload: str) -> Optional[MappingResult]:
    try:
        return MappingResult.from_dict(json.loads(payload))
    except (ValueError, KeyError, TypeError):
        return None


def _decode_artifact(payload: str) -> Optional[Dict[str, Any]]:
    try:
        artifact = json.loads(payload)
    except ValueError:
        return None
    return artifact if _valid_artifact(artifact) else None


_RESULTS = _Table(
    name="results",
    key="fingerprint",
    prefix="",
    hits=("memory_hits", "disk_hits"),
    encode=lambda result: json.dumps(result.to_dict()),
    decode=_decode_result,
    meta=("circuit_fp", "arch_fp"),
)

_ARTIFACTS = _Table(
    name="artifacts",
    key="skeleton_key",
    prefix="artifact_",
    hits=("artifact_hits", "artifact_hits"),
    encode=json.dumps,
    decode=_decode_artifact,
    merge=_merge_artifacts,
)

_TABLES = (_RESULTS, _ARTIFACTS)


class ArtifactCache:
    """Picklable handle to a store's solve-artifact tier.

    The subset sweep (:meth:`repro.exact.sat_mapper.SATMapper.map`)
    carries this object instead of the full :class:`ResultStore`: it
    exposes exactly the two artifact operations, and it survives crossing
    into process-pool workers — pickling drops the
    live store and keeps the database path, and the far side lazily
    re-opens its own connection-per-operation store.  A memory-only store
    has no path to re-open (and a path may fail to re-open), so on the far
    side every lookup misses and every save is dropped; a store failure
    does the same to one lookup or save.  Artifact seeding silently
    degrades to cold solving, never to an error.
    """

    def __init__(self, store: Optional[ResultStore]):
        self._store = store
        self.path = None if store is None or store.path is None else str(store.path)
        self.ttl_seconds = None if store is None else store.ttl_seconds

    def __getstate__(self):
        return {"path": self.path, "ttl_seconds": self.ttl_seconds}

    def __setstate__(self, state):
        self._store = None
        self.path = state["path"]
        self.ttl_seconds = state["ttl_seconds"]

    def _backing(self) -> Optional[ResultStore]:
        if self._store is None and self.path is not None:
            # Re-opened lazily after crossing a process boundary (each
            # task unpickles its own handle); the memory tier is disabled
            # so a worker sees other workers' merges immediately.
            try:
                self._store = ResultStore(
                    self.path,
                    max_memory_entries=0,
                    ttl_seconds=self.ttl_seconds,
                )
            except StoreError:
                self.path = None  # cannot re-open here: no artifacts
        return self._store

    def load(self, skeleton_key: str) -> Optional[Dict[str, Any]]:
        """The artifact payload for *skeleton_key*, or ``None``.

        A sick store reads as a miss (:meth:`ResultStore.get_artifact`).
        """
        store = self._backing()
        return None if store is None else store.get_artifact(skeleton_key)

    def save(self, skeleton_key: str, payload: Dict[str, Any]) -> None:
        """Merge *payload* into the row for *skeleton_key* (best effort:
        a row the store fails to write is dropped)."""
        store = self._backing()
        if store is not None:
            try:
                store.put_artifact(skeleton_key, payload)
            except StoreError:
                pass


_JOURNAL_SCHEMA = """
CREATE TABLE IF NOT EXISTS job_journal (
    public_id    TEXT PRIMARY KEY,
    body         BLOB NOT NULL,
    worker_id    TEXT,
    local_id     TEXT,
    state        TEXT NOT NULL,
    error_code   TEXT,
    redeliveries INTEGER NOT NULL DEFAULT 0,
    created_at   REAL NOT NULL,
    updated_at   REAL NOT NULL
)
"""

#: Journal entry lifecycle states.  ``accepted`` means the submit body is
#: durable and a worker owns the job; ``terminal`` means the job reached
#: DONE or FAILED and must never be redelivered.  (Files written by older
#: versions may also hold ``dispatched`` rows; they read as unfinished.)
JOURNAL_ACCEPTED = "accepted"
JOURNAL_TERMINAL = "terminal"


class JobJournal:
    """Durable at-least-once journal of accepted submits.

    The supervisor records every submit here, with the worker it is sent
    to, *before* the worker sees it (one commit per job), and marks the
    entry terminal when the job completes or fails.  When a worker dies,
    its non-terminal entries are the exact set of jobs that must be
    redelivered to a live worker — under the same public job id, so
    clients polling ``GET /v1/jobs/{id}`` never see an accepted job vanish.
    (The supervisor redelivers from its in-memory job table, which mirrors
    these rows; the rows are what outlives the supervisor process.)

    The journal shares the supervisor's ``results.sqlite`` file (one
    durable surface per cache directory) but owns its own table and
    connection discipline: connection-per-operation, bounded busy retries,
    and failures surfacing as :class:`StoreError` for the caller to treat
    as "durability degraded" rather than "service down".
    """

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with _transaction(self.path) as conn:
                conn.execute(_JOURNAL_SCHEMA)
        except sqlite3.Error as error:
            raise StoreError(
                f"failed to open job journal: {error}",
                details={"path": str(self.path)},
            ) from error

    @classmethod
    def at(cls, cache_dir) -> "JobJournal":
        """The journal for a cache *directory* (``<dir>/results.sqlite``)."""
        return cls(Path(cache_dir) / RESULTS_DB_NAME)

    def _execute(self, sql: str, params: Tuple = ()) -> List[Tuple]:
        """Run one statement with busy retries and the journal fault point."""

        def _run() -> List[Tuple]:
            with _transaction(self.path) as conn:
                return conn.execute(sql, params).fetchall()

        try:
            return _retrying("store.journal", _run)
        except _DISK_ERRORS as error:
            raise StoreError(
                f"journal operation failed: {error}",
                details={"path": str(self.path)},
            ) from error

    # ------------------------------------------------------------------
    def record(
        self, public_id: str, body: bytes, worker_id: Optional[str] = None
    ) -> None:
        """Persist an accepted submit and its owning worker in one commit.

        *body* is the raw submit envelope exactly as the client sent it —
        replaying it through a worker's submit path reproduces the job
        (same fingerprints, same options) without re-deriving anything.
        Recording the same id again (a submit retried on another worker)
        replaces the row.
        """
        now = time.time()
        self._execute(
            "INSERT OR REPLACE INTO job_journal "
            "(public_id, body, worker_id, local_id, state, error_code, "
            " redeliveries, created_at, updated_at) "
            "VALUES (?, ?, ?, NULL, ?, NULL, 0, ?, ?)",
            (public_id, sqlite3.Binary(body), worker_id, JOURNAL_ACCEPTED,
             now, now),
        )

    def redelivered(self, public_id: str, worker_id: str) -> None:
        """Re-assign after a worker death (bumps the redelivery counter)."""
        self._execute(
            "UPDATE job_journal SET worker_id = ?, "
            "redeliveries = redeliveries + 1, updated_at = ? "
            "WHERE public_id = ?",
            (worker_id, time.time(), public_id),
        )

    def mark_terminal(self, public_id: str, error_code: Optional[str] = None) -> None:
        """The job reached DONE/FAILED; it must never be redelivered."""
        self._execute(
            "UPDATE job_journal SET state = ?, error_code = ?, updated_at = ? "
            "WHERE public_id = ?",
            (JOURNAL_TERMINAL, error_code, time.time(), public_id),
        )

    def get(self, public_id: str) -> Optional[Dict[str, Any]]:
        """One journal entry as a dict, or ``None``."""
        rows = self._execute(
            "SELECT public_id, body, worker_id, state, error_code, "
            "redeliveries FROM job_journal WHERE public_id = ?",
            (public_id,),
        )
        if not rows:
            return None
        return self._row_to_entry(rows[0])

    def unfinished(self, worker_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Non-terminal entries, optionally only those owned by one worker."""
        sql = (
            "SELECT public_id, body, worker_id, state, error_code, "
            "redeliveries FROM job_journal WHERE state != ?"
        )
        params: Tuple = (JOURNAL_TERMINAL,)
        if worker_id is not None:
            sql += " AND worker_id = ?"
            params += (worker_id,)
        rows = self._execute(sql + " ORDER BY created_at", params)
        return [self._row_to_entry(row) for row in rows]

    @staticmethod
    def _row_to_entry(row: Tuple) -> Dict[str, Any]:
        return {
            "public_id": row[0],
            "body": bytes(row[1]),
            "worker_id": row[2],
            "state": row[3],
            "error_code": row[4],
            "redeliveries": row[5],
        }


__all__ = [
    "ArtifactCache",
    "JobJournal",
    "ResultStore",
    "ARTIFACT_PAYLOAD_VERSION",
    "BREAKER_COOLDOWN_SECONDS",
    "BREAKER_THRESHOLD",
    "BUSY_RETRY_LIMIT",
    "DEFAULT_MEMORY_ENTRIES",
    "JOURNAL_ACCEPTED",
    "JOURNAL_TERMINAL",
    "MAX_ARTIFACT_BOUNDS",
    "MAX_ARTIFACT_CLAUSES",
    "RESULTS_DB_NAME",
    "SQLITE_TIMEOUT_SECONDS",
    "resolve_cache_dir",
]
