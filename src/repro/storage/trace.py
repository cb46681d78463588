"""Block I/O trace recording.

Figure 8 of the paper is a blktrace plot of 10 insert transactions: block
address on the y-axis, time on the x-axis, with the points categorized as
EXT4 journal, ``.db-wal``, or ``.db`` traffic.  :class:`BlockTrace` records
exactly that, and the Figure 8 experiment renders it as series plus the
per-category byte totals the paper quotes (284 KB stock vs 172 KB optimized
journal+data traffic).
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple


class TraceEvent(NamedTuple):
    """One block-device operation.

    A NamedTuple rather than a dataclass: every timed block operation
    allocates one, and the tuple constructor is several times cheaper
    than a frozen dataclass ``__init__``.
    """

    time_ns: float
    op: str  # "write" | "read" | "flush"
    block: int
    length: int
    tag: str  # e.g. "journal", "file:test.db", "file:test.db-wal"


class BlockTrace:
    """Accumulates :class:`TraceEvent` records of the device it is
    installed on (``device.trace = BlockTrace()``)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def record(self, time_ns: float, op: str, block: int, length: int, tag: str) -> None:
        self.events.append(TraceEvent(time_ns, op, block, length, tag))

    def clear(self) -> None:
        """Drop all recorded events."""
        self.events.clear()

    # ------------------------------------------------------------------
    # queries used by the Figure 8 experiment
    # ------------------------------------------------------------------

    def writes(self, tag_prefix: str | None = None) -> list[TraceEvent]:
        """All write events, optionally filtered by tag prefix."""
        return [
            e
            for e in self.events
            if e.op == "write"
            and (tag_prefix is None or e.tag.startswith(tag_prefix))
        ]

    def bytes_by_tag(self) -> dict[str, int]:
        """Total bytes written per tag."""
        totals: Counter[str] = Counter()
        for event in self.events:
            if event.op == "write":
                totals[event.tag] += event.length
        return dict(totals)

    def total_write_bytes(self) -> int:
        """Total bytes written across all tags."""
        return sum(e.length for e in self.events if e.op == "write")

    def series(self) -> dict[str, list[tuple[float, int]]]:
        """Per-tag (time_sec, block_address) series — the Figure 8 axes."""
        out: dict[str, list[tuple[float, int]]] = {}
        for event in self.events:
            if event.op != "write":
                continue
            out.setdefault(event.tag, []).append(
                (event.time_ns / 1e9, event.block)
            )
        return out
