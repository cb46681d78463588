"""WAL backend interface shared by NVWAL and the file baselines."""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass

from repro.errors import TransactionError
from repro.storage.ext4 import Ext4FileSystem, File
from repro.system import System

#: SQLite's default checkpoint threshold: 1000 logged frames.
DEFAULT_CHECKPOINT_THRESHOLD = 1000


@dataclass
class RecoveryReport:
    """What one :meth:`WalBackend.recover` pass did with the log.

    ``frames_replayed`` committed frames were applied to page images.
    ``frames_dropped`` frames were parsed but discarded — the uncommitted
    tail of an in-flight transaction, plus anything at or past the first
    invalid frame.  When corruption (bad checksum, invalid commit word,
    unreadable media) cut the scan short, ``corruption_detected`` is set,
    ``reason`` says why, and ``frames_salvaged`` records the committed
    prefix that was kept *despite* the corruption (equal to
    ``frames_replayed``; zero on a clean log).

    ``commit_boundaries`` are the cumulative committed-frame counts at
    every commit point the scan accepted — one entry per standalone
    commit mark or epoch-close mark, in log order, so
    ``commit_boundaries[-1] == frames_replayed`` whenever any unit
    committed.  ``epochs_replayed`` is ``len(commit_boundaries)``.  A
    shipping cursor and the salvage scan agree on prefix identity through
    these: "the first N closed units" means exactly "the first
    ``commit_boundaries[N-1]`` frames", with no off-by-one between the
    verify_log prefix length and the group-commit close marks.

    ``base_pages_read`` counts the database-file pages recovery read as
    the base a logged page's frames apply to.  Only NVWAL reads any: the
    file WAL and the rollback journal log whole pages.
    """

    frames_replayed: int = 0
    frames_salvaged: int = 0
    frames_dropped: int = 0
    corruption_detected: bool = False
    reason: str = ""
    epochs_replayed: int = 0
    commit_boundaries: tuple = ()
    base_pages_read: int = 0


class LogPages:
    """A log file's bytes, checked in place in the page cache.

    :attr:`pages` holds every page read so far, the page cache's own
    immutable ``bytes``, not copies (only a page written since it was
    read comes as one), so no later write changes them; :meth:`reach`
    reads more from :meth:`File.pages`, in ascending order, so each page
    is read, and a miss charged, once: when the first record reaching
    into it is checked.  A log scan asks for its
    records in file order and reads nothing past the one it stops at.

    No view of a page outlives the call that takes it: a view is an object
    the garbage collector tracks, and one per page held for a whole scan
    sets off collections that cost more than the scan saves.
    """

    __slots__ = ("pages", "page_size", "size", "_next_page", "_read_to")

    def __init__(self, file: File, page_size: int) -> None:
        self._next_page = file.pages().__next__
        self.pages: list[bytes] = []
        self.page_size = page_size
        self.size = file.size
        self._read_to = 0  # file bytes the pages read so far hold

    def reach(self, stop: int) -> int:
        """Read the pages up to byte ``stop``, or up to the end of the
        file if that comes first; returns where they end."""
        if stop > self._read_to:
            stop = min(stop, self.size)
            read_to = self._read_to
            while read_to < stop:
                self.pages.append(self._next_page())
                read_to += self.page_size
            self._read_to = min(read_to, self.size)
        return stop

    def read(self, start: int, stop: int) -> bytes:
        """A copy of the bytes ``[start, stop)``."""
        page_size = self.page_size
        pages = self.pages
        index, offset = divmod(start, page_size)
        if offset + stop - start <= page_size:
            return bytes(memoryview(pages[index])[offset : offset + stop - start])
        parts = []
        while start < stop:
            chunk = min(stop - start, page_size - offset)
            parts.append(memoryview(pages[index])[offset : offset + chunk])
            start += chunk
            index += 1
            offset = 0
        return b"".join(parts)


class SyncMode(str, enum.Enum):
    """When cache-line flushes and barriers are issued (Figure 4)."""

    #: Flush + barrier after every log entry (Figure 4b) — the strawman.
    EAGER = "eager"
    #: Batch flushes, barrier once before the commit mark (Figure 4c) —
    #: transaction-aware lazy synchronization, the paper's proposal.
    LAZY = "lazy"
    #: No flush of log entries at all; a checksum stored with the commit
    #: mark detects (probabilistically) unpersisted logs (Figure 4d) —
    #: asynchronous commit.
    CHECKSUM = "checksum"


class WalBackend(abc.ABC):
    """What the database engine needs from a write-ahead log.

    A backend is the one place that knows its files and its page layout:
    :meth:`bind` opens (or creates) the database file and any log file of
    its own, and :attr:`early_split` says whether the pager reserves the
    last ``EARLY_SPLIT_RESERVE`` bytes of every page for the log.
    """

    #: NVWAL keeps Section 5.4's reserve; backends whose frames carry whole
    #: pages override this with False.
    early_split = True

    def __init__(
        self,
        system: System,
        checkpoint_threshold: int = DEFAULT_CHECKPOINT_THRESHOLD,
    ):
        self.system = system
        self.checkpoint_threshold = checkpoint_threshold
        self.db_file: File | None = None
        #: Report of the most recent :meth:`recover` call (None before one).
        self.last_recovery: RecoveryReport | None = None
        # Degenerate group-commit bookkeeping (see group_begin).
        self._group_open = False
        self._group_txns = 0
        # The occupancy gauges, looked up on the first note_occupancy().
        self._occupancy_gauges = None

    def bind(self, fs: Ext4FileSystem, name: str) -> None:
        """Open or create the database file ``name`` on ``fs`` (needed for
        checkpoint and recovery); backends with a log file of their own
        extend this to open or create it beside the database file."""
        self.db_file = fs.open(name) if fs.exists(name) else fs.create(name)

    # ------------------------------------------------------------------
    # the contract
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def write_transaction(
        self,
        dirty_pages: dict[int, bytes],
        pre_images: dict[int, bytes] | None = None,
    ) -> None:
        """Log one transaction's dirty page images and make the
        transaction durable before returning.

        ``pre_images`` holds the pre-transaction images of the same pages;
        WAL backends ignore it, the rollback-journal baseline journals it.
        """

    @abc.abstractmethod
    def recover(self) -> dict[int, bytes]:
        """Replay the log after a crash or reopen.

        Returns the reconstructed images of every page with committed log
        content (to be installed in the page cache); leaves the backend
        ready to append new transactions.
        """

    @abc.abstractmethod
    def checkpoint(self) -> int:
        """Write committed pages back to the database file and truncate the
        log.  Returns the number of pages checkpointed."""

    @abc.abstractmethod
    def frame_count(self) -> int:
        """Frames currently in the log (drives the checkpoint policy)."""

    def log_bytes_in_use(self) -> int | None:
        """Bytes the log holds, for backends that keep count."""
        return None

    # ------------------------------------------------------------------
    # group commit (epoch batching)
    # ------------------------------------------------------------------
    #
    # NVWAL overrides these with a real shared-epoch path (one flush +
    # persist-barrier sequence for many transactions).  The defaults here
    # are the *parity* semantics for backends with no epoch concept: each
    # appended transaction is made individually durable, so acks released
    # at group_close are trivially covered — strictly stronger durability
    # at per-transaction cost.

    @property
    def group_open(self) -> bool:
        """True while a group-commit epoch is accepting transactions."""
        return self._group_open

    def group_begin(self) -> None:
        """Open a group-commit epoch."""
        if self._group_open:
            raise TransactionError("a group-commit epoch is already open")
        self._group_open = True
        self._group_txns = 0

    def group_append(
        self,
        dirty_pages: dict[int, bytes],
        pre_images: dict[int, bytes] | None = None,
    ) -> None:
        """Append one transaction to the open epoch."""
        if not self._group_open:
            raise TransactionError("no group-commit epoch is open")
        self.write_transaction(dirty_pages, pre_images=pre_images)
        self._group_txns += 1

    def group_close(self) -> int:
        """Make the epoch durable; returns the transactions it carried."""
        if not self._group_open:
            raise TransactionError("no group-commit epoch is open")
        self._group_open = False
        return self._group_txns

    # ------------------------------------------------------------------
    # shared policy
    # ------------------------------------------------------------------

    def should_checkpoint(self) -> bool:
        """SQLite's policy: checkpoint when the log reaches the threshold."""
        return self.frame_count() >= self.checkpoint_threshold

    def maybe_checkpoint(self) -> int:
        """Checkpoint if the policy says so; returns pages written (0 if
        no checkpoint ran)."""
        if self.should_checkpoint():
            return self.checkpoint()
        return 0

    def verify_log(self) -> RecoveryReport:
        """Read-only scrub: re-validate log integrity without modifying
        any backend state.

        Backends living on media that can decay at runtime override this
        to re-check their durable structures; the service layer uses the
        report to decide whether degraded read-only mode can be lifted.
        The default backend has nothing to scrub and reports clean.
        """
        return RecoveryReport()

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    #
    # Backends publish occupancy gauges and checkpoint histograms into
    # ``system.telemetry``.  Both helpers are pure observers on the
    # simulated clock: they never touch the CPU or storage models, so
    # instrumented backends spend zero simulated time (and change zero
    # behavior) on telemetry.

    def note_occupancy(self) -> None:
        """Publish current log occupancy (frames; log bytes if known)."""
        gauges = self._occupancy_gauges
        if gauges is None:
            # Registered here and not in __init__, so that a backend that
            # never commits adds nothing to the export.
            registry = self.system.telemetry
            log_bytes = None
            if self.log_bytes_in_use() is not None:
                log_bytes = registry.gauge("wal.log_bytes")
            gauges = self._occupancy_gauges = (registry.gauge("wal.frames"), log_bytes)
        frames, log_bytes = gauges
        frames.set(self.frame_count())
        if log_bytes is not None:
            log_bytes.set(self.log_bytes_in_use())

    def _note_checkpoint(self, started_ns: float, pages: int) -> None:
        """Record one finished checkpoint (duration, pages, occupancy)."""
        registry = self.system.telemetry
        registry.histogram("wal.checkpoint_ns").observe(
            int(self.system.clock.now_ns) - int(started_ns)
        )
        registry.counter("wal.checkpoints").inc()
        registry.gauge("wal.checkpoint_pages").set(pages)
        self.note_occupancy()
