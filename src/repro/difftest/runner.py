"""Lockstep stream execution across the four executors, with oracles.

One :func:`run_stream` call executes a statement stream against real
SQLite plus the repro engine on the NVWAL, optimized file-WAL, and
rollback-journal backends, and applies five oracles:

* **result** — every statement's rows / rowcount / error class must
  match SQLite's (ordered row-for-row when the statement pinned a total
  order; as a multiset otherwise, plus a sortedness check for partial
  ORDER BY).
* **txnstate** — all four executors agree on whether a transaction is
  open after every statement.
* **scheme** — outside a transaction, the three repro backends must
  agree *bit for bit* on stored row encodings (page layouts may differ
  across schemes; row payload bytes may not), and again after a forced
  checkpoint and after a power-fail + recovery cycle.
* **invariant** — B-tree ``check_invariants`` plus page accounting
  (every page claimed exactly once by the header, a tree, or the
  freelist) between transactions.
* **final / recovery** — after the stream (and after crash recovery)
  every backend's full logical content must equal SQLite's.

``sabotage="drop-residual-where"`` plants a wrong-result bug in the
NVWAL executor's access path (the range planner's key bounds *replace*
the residual filter instead of narrowing it), which both the SQLite
comparison and the scheme oracle must catch — the self-test for the
whole subsystem.
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass, replace
from functools import partial

from repro.config import tuna
from repro.db.database import Database
from repro.db.record import decode_row
from repro.db.sql.executor import Executor
from repro.difftest.grammar import Stmt, stmt_from_dict
from repro.difftest.oracles import (
    Outcome,
    ReproExecutor,
    SqliteOracle,
    compare_outcomes,
    rows_sorted,
)
from repro.errors import DatabaseError, ReproError
from repro.harness import field_lens, from_json, minimize, shrink_to_prefix
from repro.system import System
from repro.wal.filewal import FileWalBackend
from repro.wal.journal import RollbackJournalBackend
from repro.wal.nvwal import NvwalBackend

#: The three repro backends under test, in fixed comparison order.
BACKENDS = ("nvwal", "filewal", "journal")

DEFAULT_CHECKPOINT_THRESHOLD = 1000


@dataclass(frozen=True)
class Finding:
    """One divergence.  ``stmt_index`` is None for end-of-stream checks."""

    kind: str  # result | order | txnstate | scheme | invariant | final | recovery | crash
    stmt_index: int | None
    executor: str
    detail: str

    def format(self) -> str:
        where = "end" if self.stmt_index is None else f"stmt {self.stmt_index}"
        return f"{self.kind} @ {where} [{self.executor}]: {self.detail}"


class _SabotagedExecutor(Executor):
    """Planted wrong-result bug: when the planner extracts key bounds,
    they *replace* the residual WHERE filter instead of narrowing the
    scan — extra rows leak into every SELECT/UPDATE/DELETE whose
    predicate is wider than its key range."""

    def _matching_rows(self, plan, params, lifted):
        lo, hi, _exact = plan.key_range(params, lifted)
        residual = plan.predicate
        if lo is not None or hi is not None:
            residual = None  # the bug: bounds treated as the whole filter
        for key, payload in plan.tree.scan(lo, hi):
            values = decode_row(payload)
            if residual is None or residual(values, params, lifted):
                yield key, values


#: ``sabotage`` name -> the NVWAL executor that has the bug.
SABOTAGED_EXECUTORS = {"drop-residual-where": _SabotagedExecutor}


def build_database(
    backend: str,
    system: System | None = None,
    checkpoint_threshold: int = DEFAULT_CHECKPOINT_THRESHOLD,
) -> Database:
    """A repro Database on ``backend`` ("nvwal" | "filewal" | "journal").

    Pass the existing ``system`` to rebuild after a power failure (the
    crash-recovery path); omit it for a fresh machine.
    """
    if system is None:
        system = System(tuna(), seed=0)
    if backend == "nvwal":
        wal = NvwalBackend(system, checkpoint_threshold=checkpoint_threshold)
    elif backend == "filewal":
        wal = FileWalBackend(
            system, optimized=True, checkpoint_threshold=checkpoint_threshold
        )
    elif backend == "journal":
        wal = RollbackJournalBackend(system)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return Database(system, wal=wal)


def run_stream(
    stmts: list[Stmt],
    *,
    checkpoint_threshold: int = DEFAULT_CHECKPOINT_THRESHOLD,
    sabotage: str = "",
    integrity_every: int = 8,
    keep_going: bool = False,
) -> list[Finding]:
    """Execute ``stmts`` through all four executors; return findings.

    Deterministic for a given stream: simulated systems are seeded and
    the SQLite file lives in a throwaway temp directory.  Unless
    ``keep_going``, the run stops at the first statement with findings
    (later statements run on diverged state prove nothing) — but the
    end-of-stream checkpoint/recovery checks still run.
    """
    findings: list[Finding] = []
    with tempfile.TemporaryDirectory(prefix="difftest-") as tmp:
        oracle = SqliteOracle(os.path.join(tmp, "oracle.db"))
        try:
            executors = [
                ReproExecutor(
                    name, build_database(name, checkpoint_threshold=checkpoint_threshold)
                )
                for name in BACKENDS
            ]
            if sabotage:
                nvwal = executors[0]
                nvwal.db.executor = SABOTAGED_EXECUTORS[sabotage](nvwal.db)

            for index, stmt in enumerate(stmts):
                step = _run_statement(index, stmt, oracle, executors)
                findings.extend(step)
                if step and not keep_going:
                    break
                if (index + 1) % integrity_every == 0:
                    findings.extend(_check_integrity(index, executors))

            findings.extend(_finish(stmts, oracle, executors, sabotage))
        finally:
            oracle.close()
    return findings


def _run_statement(index, stmt, oracle, executors) -> list[Finding]:
    findings: list[Finding] = []
    expected = oracle.execute(stmt)
    if (
        stmt.order_index is not None
        and expected.status == "rows"
        and not rows_sorted(expected.rows, stmt.order_index, stmt.order_desc)
    ):
        # Sanity: the comparator itself must model SQLite's order.
        findings.append(
            Finding("order", index, oracle.label, "oracle rows not sorted")
        )
    for executor in executors:
        try:
            outcome = executor.execute(stmt)
        except Exception as exc:  # non-Repro escape = engine crash
            findings.append(
                Finding(
                    "crash", index, executor.label, f"{type(exc).__name__}: {exc}"
                )
            )
            continue
        mismatch = compare_outcomes(stmt.kind, expected, outcome, stmt.ordered)
        if mismatch:
            findings.append(Finding("result", index, executor.label, mismatch))
        if (
            stmt.order_index is not None
            and outcome.status == "rows"
            and not rows_sorted(outcome.rows, stmt.order_index, stmt.order_desc)
        ):
            findings.append(
                Finding(
                    "order", index, executor.label, "rows not in ORDER BY order"
                )
            )
    findings.extend(_check_txn_state(index, oracle, executors))
    if not findings and not oracle.in_transaction:
        findings.extend(_check_scheme_equivalence(index, executors))
    return findings


def _check_txn_state(index, oracle, executors) -> list[Finding]:
    out = []
    for executor in executors:
        if executor.in_transaction != oracle.in_transaction:
            out.append(
                Finding(
                    "txnstate",
                    index,
                    executor.label,
                    f"in_transaction={executor.in_transaction} but oracle "
                    f"{oracle.in_transaction}",
                )
            )
    return out


def _check_scheme_equivalence(index, executors) -> list[Finding]:
    """The three repro backends must agree bit-for-bit on schema and
    stored row encodings (run only between transactions)."""
    reference = executors[0]
    ref_schema = reference.db.schema_signature()
    ref_raw = reference.db.dump_all_raw()
    out = []
    for executor in executors[1:]:
        if executor.db.schema_signature() != ref_schema:
            out.append(
                Finding(
                    "scheme",
                    index,
                    executor.label,
                    f"schema differs from {reference.label}",
                )
            )
            continue
        raw = executor.db.dump_all_raw()
        if raw != ref_raw:
            tables = sorted(
                name
                for name in set(raw) | set(ref_raw)
                if raw.get(name) != ref_raw.get(name)
            )
            out.append(
                Finding(
                    "scheme",
                    index,
                    executor.label,
                    f"raw rows differ from {reference.label} in {tables}",
                )
            )
    return out


def _check_integrity(index, executors) -> list[Finding]:
    out = []
    for executor in executors:
        if executor.in_transaction:
            return out  # page accounting is defined between transactions
        try:
            executor.db.check_integrity()
        except DatabaseError as exc:
            out.append(Finding("invariant", index, executor.label, str(exc)))
    return out


def _finish(stmts, oracle, executors, sabotage) -> list[Finding]:
    """End-of-stream oracles: close any open transaction, compare final
    logical state with SQLite, then re-compare after a forced checkpoint
    and after a full power-fail + recovery cycle."""
    findings: list[Finding] = []
    if oracle.in_transaction or any(e.in_transaction for e in executors):
        # Minimized candidate streams may lose their COMMIT; close the
        # transaction in lockstep so the end-state checks are defined.
        commit = Stmt("COMMIT", kind="txn")
        oracle.execute(commit)
        for executor in executors:
            try:
                executor.execute(commit)
            except Exception as exc:
                findings.append(
                    Finding(
                        "crash", None, executor.label,
                        f"{type(exc).__name__}: {exc}",
                    )
                )

    expected = oracle.dump_logical()
    for executor in executors:
        try:
            if executor.dump_logical() != expected:
                findings.append(
                    Finding(
                        "final", None, executor.label,
                        "final logical state differs from sqlite",
                    )
                )
        except ReproError as exc:
            findings.append(Finding("final", None, executor.label, str(exc)))

    findings.extend(_check_scheme_equivalence(None, executors))
    findings.extend(_check_integrity(None, executors))

    # Checkpoint pass: flushing the WAL into the database file must not
    # change any answer.
    for executor in executors:
        try:
            executor.db.checkpoint()
        except ReproError as exc:
            findings.append(Finding("final", None, executor.label, str(exc)))
    findings.extend(_check_scheme_equivalence(None, executors))
    findings.extend(_check_integrity(None, executors))

    # Power-fail + recovery: rebuild each database over its crashed
    # system; recovered content must still match SQLite and each other.
    for executor in executors:
        system = executor.db.system
        system.power_fail()
        system.reboot()
        executor.db = build_database(
            executor.label,
            system=system,
            checkpoint_threshold=executor.db.wal.checkpoint_threshold,
        )
        if sabotage and executor.label == "nvwal":
            executor.db.executor = SABOTAGED_EXECUTORS[sabotage](executor.db)
        try:
            if executor.dump_logical() != expected:
                findings.append(
                    Finding(
                        "recovery", None, executor.label,
                        "post-recovery logical state differs from sqlite",
                    )
                )
            executor.db.check_integrity()
        except ReproError as exc:
            findings.append(Finding("recovery", None, executor.label, str(exc)))
    findings.extend(_check_scheme_equivalence(None, executors))
    return findings


# ----------------------------------------------------------------------
# statement-level reduction of failing streams
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Stream:
    """A statement stream as a :mod:`repro.harness` scenario: the
    statements and every parameter of the run that checks them."""

    seed: int
    stmts: tuple
    sabotage: str = ""
    checkpoint_threshold: int = DEFAULT_CHECKPOINT_THRESHOLD
    integrity_every: int = 8

    def findings(self) -> list[Finding]:
        return run_stream(
            list(self.stmts),
            checkpoint_threshold=self.checkpoint_threshold,
            sabotage=self.sabotage,
            integrity_every=self.integrity_every,
        )


stream_from_json = partial(
    from_json, Stream, stmts=lambda items: tuple(map(stmt_from_dict, items))
)


def _after_first_divergence(stream: Stream, still_fails, violations) -> Stream:
    """Pass: truncate everything after the first diverging statement (on
    a 100-statement stream this alone usually removes most of the work)."""
    indexed = [
        int(match.group(1))
        for match in (re.match(r"\S+ @ stmt (\d+) ", v) for v in violations)
        if match
    ]
    if not indexed:
        return stream
    kept = shrink_to_prefix(
        stream.stmts,
        lambda stmts: still_fails(replace(stream, stmts=tuple(stmts))),
        min(indexed),
    )
    return replace(stream, stmts=tuple(kept))


#: Cheapest first: the prefix cut, then chunked greedy deletion down to
#: single statements.  The runner auto-commits a dangling transaction
#: before its end-of-stream checks, so candidates that lose their COMMIT
#: (or BEGIN) stay runnable — an unbalanced transaction statement fails
#: identically in all four executors, which is not a divergence.
STREAM_PASSES = (_after_first_divergence, field_lens("stmts"))


def minimize_stream(stmts: list[Stmt], run=run_stream) -> list[Stmt]:
    """Shrink ``stmts`` while at least one original finding kind still
    fires (a reduction cannot drift from a wrong-result divergence to an
    unrelated error-class mismatch).  ``run`` maps a stream to findings;
    tests inject cheaper runners."""
    small = minimize(
        Stream(0, tuple(stmts)),
        lambda stream: [f.format() for f in run(list(stream.stmts))],
        STREAM_PASSES,
    )
    return list(small.stmts)
