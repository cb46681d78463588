"""Exception hierarchy for the NVWAL reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch the whole family with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package.

    Every subclass carries two stable classification attributes:

    ``category`` — a coarse, stable error class ("sql", "schema",
    "constraint", "txn", ...) that the differential fuzzer compares
    against real SQLite's error classes.  Two engines "agree" on a
    failing statement when their categories match, even though messages
    and exception types differ.

    ``retryable`` — whether retrying the *same* operation can succeed.
    Transient device hiccups (:class:`IoError`, :class:`BusyError`) are
    retryable; persistent hardware damage (:class:`MediaError`) and
    logical errors (:class:`SqlError`) are not.  The service layer's
    retry-with-backoff machinery keys off this flag, so every error in
    the hierarchy must classify itself honestly.
    """

    category = "internal"
    retryable = False


# ---------------------------------------------------------------------------
# Hardware simulation errors
# ---------------------------------------------------------------------------


class HardwareError(ReproError):
    """Base class for simulated-hardware errors."""

    category = "hw"


class AddressError(HardwareError):
    """An access touched an address outside any mapped device region."""


class PowerFailure(HardwareError):
    """Raised by crash injection to unwind the software stack.

    Catching this exception models the machine losing power: all volatile
    simulated state has already been discarded by the time it propagates.
    """


class MediaError(HardwareError):
    """An NVRAM read hit an uncorrectable (poisoned) media unit.

    Models ECC-uncorrectable cell decay: the device *detects* the failure
    instead of silently returning garbage.  Recovery code treats the
    affected region as unreadable and salvages around it.

    Not retryable: a poisoned unit keeps failing until its whole ECC
    codeword is rewritten, so re-issuing the read cannot help.  Callers
    escalate instead (circuit breaker, degraded mode, salvage).
    """

    category = "media"
    retryable = False


# ---------------------------------------------------------------------------
# NVRAM heap errors
# ---------------------------------------------------------------------------


class HeapError(ReproError):
    """Base class for persistent-heap errors."""

    category = "heap"


class OutOfNvram(HeapError):
    """The NVRAM device has no free blocks left."""


class BadHandle(HeapError):
    """An operation referenced an unknown or already-freed allocation."""


class HeapStateError(HeapError):
    """An allocation was used in a state that does not permit the operation
    (e.g. marking a ``free`` block as ``in-use`` without pre-allocation)."""


# ---------------------------------------------------------------------------
# Storage / filesystem errors
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for block-device and filesystem errors."""

    category = "storage"


class NoSuchFile(StorageError):
    """Lookup of a file name that does not exist."""


class FileExists(StorageError):
    """Attempt to create a file name that already exists."""


class OutOfSpace(StorageError):
    """The block device has no free blocks left."""


class FsConsistencyError(StorageError):
    """The filesystem detected corrupted on-device metadata."""


class IoError(StorageError):
    """A block-device read or write failed transiently.

    eMMC devices occasionally fail a command and succeed on retry; the
    filesystem and WAL layers absorb these with bounded
    retry-with-backoff, so the error only propagates when the device
    keeps failing past the retry budget.  Even then the failure is
    *transient* — the service layer may retry the whole operation with
    its own (longer) backoff schedule.
    """

    category = "io"
    retryable = True


# ---------------------------------------------------------------------------
# Database errors
# ---------------------------------------------------------------------------


class DatabaseError(ReproError):
    """Base class for database-engine errors."""

    category = "db"


class SqlError(DatabaseError):
    """Syntax or semantic error in a SQL statement."""

    category = "sql"


class TableError(DatabaseError):
    """Unknown table, duplicate table, or schema mismatch."""

    category = "schema"


class TransactionError(DatabaseError):
    """Illegal transaction state transition (e.g. nested writers)."""

    category = "txn"


class BusyError(DatabaseError):
    """The database's single writer slot is held by another session.

    The ``SQLITE_BUSY`` equivalent: raised when a write transaction
    cannot be started because a different owner already holds one and
    the busy handler (if any) gave up waiting.  Retryable by definition —
    the holder will commit or roll back eventually.
    """

    category = "busy"
    retryable = True


class KeyNotFound(DatabaseError):
    """A keyed lookup (UPDATE/DELETE by key) found no matching row."""

    category = "constraint"


class DuplicateKey(DatabaseError):
    """An INSERT supplied a key that already exists."""

    category = "constraint"


class PageError(DatabaseError):
    """A slotted page was asked to do something impossible (overflow,
    bad slot index, corrupt header)."""


# ---------------------------------------------------------------------------
# WAL errors
# ---------------------------------------------------------------------------


class WalError(ReproError):
    """Base class for write-ahead-log errors."""

    category = "wal"


class ChecksumError(WalError):
    """A frame checksum did not match its payload."""


class FrameFormatError(WalError):
    """No whole NVWAL frame starts at the position being decoded; the
    message is the stop reason a log or segment scan reports."""


# ---------------------------------------------------------------------------
# Service-layer errors
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for errors raised by the concurrent service front end."""

    category = "service"


class DeadlineExceeded(ServiceError):
    """A request ran past its deadline before it could be served.

    Not retryable as-is: the caller's time budget is spent.  The client
    owns the decision to re-submit with a fresh deadline.
    """

    category = "deadline"
    retryable = False


class CircuitOpenError(ServiceError):
    """The media circuit breaker is open; writes are refused fast.

    Retryable after the breaker's cooldown — the service probes the
    hardware and closes the breaker when scrubbing comes back clean.
    """

    category = "breaker"
    retryable = True


class ReadOnlyError(ServiceError):
    """The service is in degraded read-only mode; writes are refused.

    Reads keep being served from the last committed snapshot.  Retryable:
    the service re-promotes to read-write after a successful background
    checkpoint + salvage pass.
    """

    category = "degraded"
    retryable = True
