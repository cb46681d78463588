"""One salvage property for every log format.

Every log in this project is salvaged by the same rule: recovery keeps the
longest valid prefix of committed units and nothing past the first unit
that fails a check.  :func:`check_salvage` states the rule once, for any
format that describes itself as a :class:`SalvageFormat`:

1. write ``n`` units;
2. damage unit ``i`` on the medium (``torn``: the log ends inside it;
   ``flip``: one payload byte flipped; ``header``: one byte of its header
   flipped);
3. recover: exactly units ``0..i-1`` come back;
4. append ``k`` units byte-identical to the lost units ``i..i+k-1``;
5. recover again: exactly units ``0..i+k-1`` come back — the resubmitted
   bytes must not revive the stale units past them.

The damage targets bytes the format claims to check; which bytes those
are is the format's to say (``SalvageFormat.damage``).  A format joins by
adding one :class:`SalvageFormat` to a test's list: how to make an empty
log, append units, damage one, and recover what the log holds.

The rollback journal does not fit the five steps.  Its log holds the
undo images of one open transaction, not a run of committed units, and
its recovery consumes it: the valid prefix of records is written back to
the database file and the journal is truncated, so after step 3 there is
no log for step 4's resubmitted units to follow, and step 5 has nothing
to recover.  ``tests/wal/test_salvage.py::TestJournalSalvage`` tests its
prefix rule: a torn record rolls back exactly the records before it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

DAMAGE_KINDS = ("torn", "flip", "header")


@dataclass(frozen=True)
class SalvageFormat:
    """One log format, as the salvage property drives it.

    ``unit(j)`` is the ``j``-th unit (the same bytes every call);
    ``fresh()`` an empty log; ``append(log, units)`` writes units durably
    after what the log holds; ``damage(log, j, kind)`` damages unit ``j``
    on the medium (and cuts the power, where the format has any);
    ``recover(log)`` recovers and returns the units the log now holds, in
    order, comparable with ``unit(j)``; ``kinds`` are the damage kinds
    that apply to the format (its ``damage`` says why any is left out).
    """

    name: str
    unit: Callable[[int], Any]
    fresh: Callable[[], Any]
    append: Callable[[Any, list], None]
    damage: Callable[[Any, int, str], None]
    recover: Callable[[Any], list]
    kinds: tuple[str, ...] = DAMAGE_KINDS


def check_salvage(fmt: SalvageFormat, n: int, i: int, kind: str, k: int) -> None:
    """Run the five steps on ``fmt``; an assertion names the step that
    broke the rule."""
    assert 0 <= i < n and 0 <= k <= n - i and kind in fmt.kinds
    units = [fmt.unit(j) for j in range(n)]
    log = fmt.fresh()
    fmt.append(log, units)
    assert fmt.recover(log) == units, f"{fmt.name}: an undamaged log lost units"
    fmt.damage(log, i, kind)
    got = fmt.recover(log)
    assert got == units[:i], (
        f"{fmt.name}: unit {i} {kind}: recovered {len(got)} units, want {i}"
    )
    fmt.append(log, units[i : i + k])
    got = fmt.recover(log)
    assert got == units[: i + k], (
        f"{fmt.name}: unit {i} {kind}, {k} resubmitted: "
        f"recovered {len(got)} units, want {i + k}"
    )
