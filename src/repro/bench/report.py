"""ASCII report formatting for experiment output, and the one writer of
the tracked ``BENCH_*.json`` trajectory files.

Every experiment returns a :class:`Report`: a title, commentary lines, and
one or more tables.  The `__main__` CLI prints them; :mod:`repro.bench.docs`
renders the tables backed by a tracked ``BENCH_*.json`` into the docs.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Table:
    """One formatted table."""

    headers: list[str]
    rows: list[list[object]]
    title: str = ""

    def render(self) -> str:
        """Render with aligned columns."""
        cells = [[_fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
            for i, h in enumerate(self.headers)
        ]
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(line.rstrip() for line in lines)


@dataclass
class Report:
    """One experiment's output."""

    experiment: str
    title: str
    tables: list[Table] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Full printable report."""
        parts = [f"== {self.experiment}: {self.title} =="]
        for note in self.notes:
            parts.append(f"   {note}")
        for table in self.tables:
            parts.append("")
            parts.append(table.render())
        return "\n".join(parts)


def git_rev() -> str:
    """Short HEAD revision of this checkout, ``-dirty`` when the tree has
    uncommitted changes (the numbers then belong to HEAD plus that change).
    The tracked ``BENCH_*.json`` snapshots do not count: they are the
    output, and a run that rewrites one has not changed what it measures."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            check=True,
        ).stdout.strip()

    try:
        rev = git("rev-parse", "--short", "HEAD")
        dirty = git(
            "status", "--porcelain", "--", ":(top)", ":(top,exclude)BENCH_*.json"
        )
        return rev + "-dirty" if dirty else rev
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def write_snapshot(stem: str, doc: dict) -> str:
    """Write an experiment's snapshot, stamped with :func:`git_rev`, into
    the working directory; returns the file name.

    Only a full-size run refreshes the tracked ``BENCH_<stem>.json``; a
    ``--quick`` run (``doc["quick"]``) goes to the untracked
    ``BENCH_<stem>.quick.json`` beside it, so a smoke run never dirties
    the tree.
    """
    name = f"BENCH_{stem}.quick.json" if doc["quick"] else f"BENCH_{stem}.json"
    stamped = {**doc, "git_rev": git_rev()}  # before open() truncates the file
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(stamped, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return name


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)
