"""Shared machinery for the workload suite.

A workload is a pure description: seeded transaction generation, a
pure-Python fold model, SQL application, and canonical *state
snapshots*.  Everything the harnesses need — boundary states for crash
oracles, expected results for read checks, recovered-state matching —
derives from that description, so each workload module only says what
its operations mean.

State snapshots are the boundary states the torture driver
(:mod:`repro.torture.driver`) holds recovered databases to: boundary
``b`` for ``b < len(setup_sql())`` means "the first ``b`` setup
statements are visible" (``("setup", b)``); every later boundary is the
canonical row set after that many committed transactions
(``("rows", rows)``).  A crash between CREATE TABLE and CREATE INDEX
therefore recovers to a legitimate named state instead of confusing the
matcher.

Key-choice samplers follow YCSB: zipfian (theta 0.99 by default),
hotspot (a small hot set absorbs most accesses), uniform, and
read-latest (zipfian over recency).  All are driven by the caller's
``random.Random`` so workload shape is a function of the seed alone.
"""

from __future__ import annotations

import bisect
import random

#: RNG stream constants, distinct from the torture/chaos/fault streams
#: so workload shape never correlates with crash or fault placement.
_WORKLOAD_MUL = 0x9E3779B1
_WORKLOAD_ADD = 0x7F4A7C15

Op = tuple  # (kind, arg, payload-or-None)
Txn = tuple  # tuple[Op, ...]


def workload_rng(seed: int, salt: int = 0) -> random.Random:
    """The seeded RNG every workload generator derives from."""
    mixed = (seed * _WORKLOAD_MUL + _WORKLOAD_ADD + salt * 0x632BE59B) & 0xFFFFFFFF
    return random.Random(mixed)


def group_ops(rng: random.Random, ops, txn_size: int) -> tuple[Txn, ...]:
    """Deal ``ops`` out, in order, as transactions of 1..``txn_size`` ops."""
    txns: list[Txn] = []
    index = 0
    while index < len(ops):
        take = rng.randint(1, txn_size)
        txns.append(tuple(ops[index : index + take]))
        index += take
    return tuple(txns)


# ----------------------------------------------------------------------
# key-choice samplers (YCSB-style)
# ----------------------------------------------------------------------


#: YCSB's zipfian constant.
ZIPF_THETA = 0.99
#: Hotspot: this share of accesses ...
HOT_PROB = 0.8
#: ... hits this leading share of the ranks.
HOT_FRACTION = 0.2


class ZipfianSampler:
    """Zipfian ranks over ``0..n-1``: rank r is drawn with probability
    proportional to ``1/(r+1)**ZIPF_THETA``.  Built once per population
    size via a cumulative table + bisect; n stays small enough here that
    the rebuild cost on growth is irrelevant."""

    def __init__(self, n: int) -> None:
        self.n = 0
        self._cum: list[float] = []
        self.resize(n)

    def resize(self, n: int) -> None:
        if n == self.n:
            return
        self.n = n
        total = 0.0
        cum = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** ZIPF_THETA
            cum.append(total)
        self._cum = cum

    def sample(self, rng: random.Random) -> int:
        """A rank in ``0..n-1``, skewed toward 0."""
        if self.n <= 1:
            return 0
        point = rng.random() * self._cum[-1]
        return bisect.bisect_left(self._cum, point)


class HotspotSampler:
    """YCSB hotspot: ``HOT_PROB`` of accesses hit the first
    ``HOT_FRACTION`` of ranks, the rest spread uniformly."""

    def __init__(self, n: int) -> None:
        self.n = n

    def resize(self, n: int) -> None:
        self.n = n

    def sample(self, rng: random.Random) -> int:
        if self.n <= 1:
            return 0
        hot = max(1, int(self.n * HOT_FRACTION))
        if rng.random() < HOT_PROB:
            return rng.randrange(hot)
        return rng.randrange(self.n)


class UniformSampler:
    def __init__(self, n: int) -> None:
        self.n = n

    def resize(self, n: int) -> None:
        self.n = n

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.n) if self.n > 1 else 0


def make_sampler(kind: str, n: int):
    if kind == "zipfian":
        return ZipfianSampler(n)
    if kind == "hotspot":
        return HotspotSampler(n)
    if kind in ("uniform", "latest"):
        # "latest" is uniform-machinery: callers map the rank onto
        # recency order themselves (rank 0 = newest).
        return ZipfianSampler(n) if kind == "latest" else UniformSampler(n)
    raise ValueError(f"unknown sampler kind {kind!r}")


# ----------------------------------------------------------------------
# the workload contract
# ----------------------------------------------------------------------


class Workload:
    """What one workload family must provide.

    The model is any mutable object the workload understands; the
    harnesses only ever pass it back into the workload's own methods or
    snapshot it via :meth:`model_rows`.
    """

    name = "workload"
    table = "t"

    def setup_sql(self) -> tuple[str, ...]:
        """DDL statements, executed one per boundary before the txns."""
        raise NotImplementedError

    def generate_txns(self, seed: int, op_count: int) -> tuple[Txn, ...]:
        """Deterministic transaction script for ``seed``."""
        raise NotImplementedError

    def initial_model(self):
        raise NotImplementedError

    def fold_op(self, model, op: Op) -> None:
        """Apply one op to the pure model (mutating it)."""
        raise NotImplementedError

    def expected_read(self, model, op: Op):
        """Sorted expected rows if ``op`` is a read, else None.

        Called *before* :meth:`fold_op` on the same op."""
        raise NotImplementedError

    def apply_op(self, db, op: Op):
        """Run one op; returns the result rows for reads, else None."""
        raise NotImplementedError

    def model_rows(self, model) -> tuple:
        """Canonical sorted row tuple for boundary snapshots."""
        raise NotImplementedError

    def db_rows(self, db) -> tuple:
        """Canonical sorted row tuple of the live database."""
        return tuple(sorted(db.dump_table(self.table)))

    def setup_progress(self, db) -> int:
        """How many setup statements' effects are visible (crash during
        setup recovers to a partial-setup boundary)."""
        raise NotImplementedError

    def describe_mismatch(self, recovered, states, allowed) -> str | None:
        """Workload-specific diagnosis when the recovered state matches
        no allowed boundary; None falls back to the generic message."""
        return None


# ----------------------------------------------------------------------
# generic model/state machinery
# ----------------------------------------------------------------------


def model_states(workload: Workload, txns: tuple[Txn, ...]) -> list:
    """Canonical expected state at every boundary.

    ``states[b]`` for ``b < len(setup)`` is ``("setup", b)``;
    ``states[len(setup) + i]`` is ``("rows", rows)`` after ``i``
    committed transactions.
    """
    setup_n = len(workload.setup_sql())
    states: list = [("setup", b) for b in range(setup_n)]
    model = workload.initial_model()
    states.append(("rows", workload.model_rows(model)))
    for txn in txns:
        for op in txn:
            workload.fold_op(model, op)
        states.append(("rows", workload.model_rows(model)))
    return states


def db_state(workload: Workload, db) -> tuple:
    """Canonical recovered state, partial setup included."""
    done = workload.setup_progress(db)
    if done < len(workload.setup_sql()):
        return ("setup", done)
    return ("rows", workload.db_rows(db))


def _apply_ops(workload: Workload, db, txn: Txn, model) -> list[str]:
    """Run a transaction's ops in order; fold the model alongside and
    check reads.

    Returns read-check violation strings (empty on agreement).  The
    model is folded op by op so a read inside a transaction sees the
    transaction's own earlier writes, exactly like the engine.
    """
    violations: list[str] = []
    telemetry = db.system.telemetry
    clock = db.system.clock
    for op in txn:
        op_start = clock.now_ns
        actual = workload.apply_op(db, op)
        telemetry.histogram(f"workload.op.{op[0]}_ns").observe(
            int(clock.now_ns - op_start)
        )
        if model is not None:
            expected = workload.expected_read(model, op)
            if expected is not None and sorted(actual) != list(expected):
                violations.append(
                    f"read: {workload.name} op {op[0]!r} returned "
                    f"{len(actual)} row(s), expected {len(expected)}"
                )
            workload.fold_op(model, op)
    return violations


def apply_txn(workload: Workload, db, txn: Txn, model=None) -> list[str]:
    """Run one transaction (a single op autocommits); returns
    :func:`_apply_ops`'s read-check violations."""
    if len(txn) == 1:
        return _apply_ops(workload, db, txn, model)
    with db.transaction():
        return _apply_ops(workload, db, txn, model)


def apply_txn_grouped(workload: Workload, db, txn: Txn, model=None) -> list[str]:
    """Like :func:`apply_txn` but through the group-commit epoch: the
    transaction joins the open epoch and only becomes durable when the
    caller closes it with ``db.flush_group()``.  Even a single-op
    transaction goes through an explicit BEGIN/``group_commit`` pair —
    *no* transaction is individually durable until the epoch closes."""
    db.begin()
    try:
        violations = _apply_ops(workload, db, txn, model)
    except BaseException:
        if db.pager.in_transaction:
            db.rollback()
        raise
    db.group_commit()
    return violations
