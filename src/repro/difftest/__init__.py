"""Differential SQL fuzzer: cross-check the stack against real SQLite.

NVWAL's claim is that byte-granularity differential logging and lazy
synchronization change *performance*, never *semantics* (PAPER.md
Sections 3.2 and 4).  This package makes that claim continuously
testable: a seeded grammar generator (:mod:`repro.difftest.grammar`)
emits statement streams in the supported dialect, and a runner
(:mod:`repro.difftest.runner`) executes each stream through four
executors in lockstep —

* stdlib :mod:`sqlite3` in WAL mode, the ground-truth oracle;
* the repro :class:`~repro.db.database.Database` on the NVWAL,
  file-WAL, and rollback-journal backends.

Any divergence in result sets, rowcounts, or error class is a finding.
A scheme-equivalence oracle additionally requires the three repro
backends to agree bit-for-bit on stored row encodings after every
commit and after a checkpoint + power-fail recovery cycle, and B-tree
invariants plus page accounting are re-checked between transactions.

Failing streams are recorded as the harness kernel's ``{"scenario",
"violations"}`` trace documents and shrunk to the statements that
matter by :func:`repro.difftest.runner.minimize_stream` (two passes of
the shared :mod:`repro.harness` minimizer).  ``python -m
repro.difftest`` is the CLI; see EXPERIMENTS.md for triage workflow.
"""

from repro.difftest.grammar import Stmt, StreamGenerator
from repro.difftest.runner import Finding, Stream, minimize_stream, run_stream

__all__ = [
    "Finding",
    "Stmt",
    "Stream",
    "StreamGenerator",
    "minimize_stream",
    "run_stream",
]
