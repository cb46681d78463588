"""The torture driver: sweep every crash point, check every invariant.

One :class:`TortureScenario` is a fully reproducible experiment: a seed,
a scheme, a workload (any :class:`repro.workloads.core.Workload`, by
name) and its transaction script, a crash point (a primitive-CPU-op
index, as counted by the crash controller), optionally a second crash
point *inside recovery*, and optionally a :class:`FaultPlan`.  Scenarios
are plain data — they pickle across process pools and round-trip through
JSON trace files, which is what makes failing runs replayable and
minimizable.

The oracles generalize the paper's Section 4.3 case analysis:

* **committed-prefix durability / atomicity** — the recovered state must
  equal the fold model's state at *some* boundary the crash point
  allows: the last committed transaction or the in-flight one (power
  alone), down to the last completed checkpoint when media decay or an
  asynchronous-commit scheme may legitimately shed WAL tail state.
  Each setup statement (CREATE TABLE, then CREATE INDEX) is a boundary
  of its own, so a crash between them recovers to a legitimate
  partial-setup state; when no boundary matches, the workload names the
  broken guarantee (the queue tells double delivery from a lost message).
* **structural integrity** — :meth:`Database.check_integrity` on the
  recovered image, whatever boundary it landed on: B-tree invariants,
  secondary index agreeing row for row with its table, exact page
  accounting.
* **heap consistency** — live NVRAM allocations must be non-overlapping
  and in-bounds, and descriptor quarantine may only happen under media
  faults.
* **no leaks** — after a post-recovery checkpoint, no ``nvwal-blk``
  allocation may remain live.
* **recovery idempotence** — a second power cycle after the checkpoint
  must reproduce the same state, still structurally sound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import harness
from repro.config import tuna
from repro.db.database import Database
from repro.errors import DatabaseError, PowerFailure
from repro.faults import FaultPlan, IoFaultSpec, MediaFaultSpec
from repro.system import System
from repro.wal.base import SyncMode
from repro.wal.frames import commit_mark_value
from repro.wal.nvwal import SCHEMES, NvwalBackend
from repro.workloads.core import (
    Workload,
    apply_txn,
    apply_txn_grouped,
    db_state,
    model_states,
)
from repro.workloads.runner import make_workload

#: Small checkpoint threshold (in WAL frames) so a 30-op workload crosses
#: several checkpoints and the sweep exercises crash-during-checkpoint.
DEFAULT_TORTURE_THRESHOLD = 12

DB_NAME = "torture.db"

#: ``--faults`` kinds (see :func:`build_fault_plan`).
FAULT_KINDS = ("power", "media", "io")


class SabotagedNvwalBackend(NvwalBackend):
    """Deliberately broken backend for harness self-tests.

    The standalone commit mark is stored but never flushed or fenced —
    exactly the bug Algorithm 1's final persist barrier exists to prevent
    (an epoch-close mark still is).  The mark sits in a volatile cache
    line, so a crash after "commit" loses the transaction with roughly
    the landing probability.  A healthy torture run against this backend
    MUST produce durability violations; if it does not, the harness
    itself is broken.
    """

    def _mark(self, frame_addr, checksum, word_of, durable=True):
        # Injected bug: no dmb / cache_line_flush / persist_barrier.
        durable = durable and word_of is not commit_mark_value
        super()._mark(frame_addr, checksum, word_of, durable)


#: ``TortureScenario.sabotage`` -> the backend that has the bug.
BACKENDS = {"": NvwalBackend, "unflushed-mark": SabotagedNvwalBackend}


@dataclass(frozen=True)
class TortureScenario:
    """One reproducible crash experiment (picklable, JSON-serializable)."""

    seed: int
    scheme: str
    txns: tuple  # tuple of transactions; each a tuple of (kind, arg, payload) ops
    crash_point: int = 0  # 0: run to completion, then cut power
    recovery_crash_point: int | None = None
    plan: FaultPlan | None = None
    checkpoint_threshold: int = DEFAULT_TORTURE_THRESHOLD
    #: A planted bug by name (:data:`BACKENDS`); "" runs the real backend.
    sabotage: str = ""
    #: > 0: commit through the WAL's group-commit path, closing the
    #: shared epoch every ``group_epoch`` transactions.  Durability then
    #: arrives only at epoch closes, so the state oracle restricts the
    #: allowed boundaries to them: a crash inside an open epoch must
    #: lose the whole epoch, never a transaction from a closed one.
    group_epoch: int = 0
    #: Registry name of the workload that gives ``txns`` their meaning.
    workload: str = "mobi"


@dataclass(frozen=True)
class Profile:
    """Measured shape of a scenario's uncrashed run."""

    total_ops: int  # crash points available in the workload
    bounds: tuple  # bounds[b]: op count when boundary b completed
    ckpt_events: tuple  # (op count at completion, boundary checkpointed)


@dataclass(frozen=True)
class ScenarioOutcome:
    """What one scenario run produced."""

    violations: tuple
    crashed: bool = False
    crashed_in_recovery: bool = False
    matched_boundary: int | None = None
    #: Primitive CPU ops observed inside reboot + WAL recovery — the sweep
    #: space for ``recovery_crash_point`` (0 when recovery only performs
    #: failure-atomic heap-metadata updates, which cannot be interrupted).
    recovery_ops: int = 0


# ----------------------------------------------------------------------
# scenario construction helpers
# ----------------------------------------------------------------------


def build_fault_plan(seed: int, faults) -> FaultPlan | None:
    """The standard torture fault plan for a seed.

    ``power`` is implicit (every scenario cuts power); ``media`` adds
    NVRAM decay at each power loss, ``io`` adds transient eMMC command
    failures.  Rates are chosen so a *correct* stack must absorb them:
    transient errors stay below the retry budget, and media decay is
    recoverable by salvage + quarantine.
    """
    faults = set(faults)
    unknown = faults - set(FAULT_KINDS)
    if unknown:
        raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
    media = None
    io = None
    if "media" in faults:
        media = MediaFaultSpec(bit_flips=2, stuck_units=1, poison_units=1)
    if "io" in faults:
        io = IoFaultSpec(read_error_rate=0.02, write_error_rate=0.02)
    if media is None and io is None:
        return None
    return FaultPlan(seed=seed, media=media, io=io)


def make_scenario(
    seed: int,
    ops: int,
    scheme: str,
    faults=("power",),
    txn_size: int = 3,
    checkpoint_threshold: int = DEFAULT_TORTURE_THRESHOLD,
    sabotage: str = "",
    group_epoch: int = 0,
    workload: str = "mobi",
) -> TortureScenario:
    """Generate the base (no-crash-point) scenario for a seed."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick from {sorted(SCHEMES)}")
    return TortureScenario(
        seed=seed,
        scheme=scheme,
        txns=make_workload(workload, txn_size).generate_txns(seed, ops),
        plan=build_fault_plan(seed, faults),
        checkpoint_threshold=checkpoint_threshold,
        sabotage=sabotage,
        group_epoch=group_epoch,
        workload=workload,
    )


def _make_system(scenario: TortureScenario) -> System:
    system = System(tuna(), seed=scenario.seed)
    if scenario.plan is not None:
        system.inject_faults(scenario.plan)
    return system


def _make_db(system: System, scenario: TortureScenario) -> Database:
    wal = BACKENDS[scenario.sabotage](
        system,
        SCHEMES[scenario.scheme](),
        checkpoint_threshold=scenario.checkpoint_threshold,
    )
    return Database(system, wal=wal, name=DB_NAME)


# ----------------------------------------------------------------------
# profiling: measure the crash-point space and checkpoint schedule
# ----------------------------------------------------------------------


def _run_script(
    db: Database,
    workload: Workload,
    scenario: TortureScenario,
    boundary_done=lambda: None,
) -> None:
    """The full scripted run: every setup statement, then every
    transaction, calling ``boundary_done()`` as each completes.

    With ``group_epoch`` > 0 the transactions commit through the WAL's
    group-commit path instead: each joins the open epoch, and the epoch
    is closed (one flush + persist-barrier sequence) every
    ``group_epoch`` transactions and again after the last one.  The
    setup statements stay individually durable — they model the setup
    phase before the service's coalescer takes over.
    """
    for sql in workload.setup_sql():
        db.execute(sql)
        boundary_done()
    group = scenario.group_epoch
    for i, txn in enumerate(scenario.txns):
        if group > 0:
            apply_txn_grouped(workload, db, txn)
            if (i + 1) % group == 0:
                db.flush_group()
        else:
            apply_txn(workload, db, txn)
        boundary_done()
    if group > 0:
        db.flush_group()


def profile_scenario(scenario: TortureScenario) -> Profile:
    """Run the workload once, uncrashed, counting primitive CPU ops.

    Every run of the same scenario executes identically up to its crash
    point, so the measured transaction boundaries and checkpoint
    completions are valid for the whole sweep.
    """
    workload = make_workload(scenario.workload)
    system = _make_system(scenario)
    db = _make_db(system, scenario)
    crash = system.crash
    bounds = [0]
    last_boundary = len(workload.setup_sql()) + len(scenario.txns)
    ckpt_events: list[tuple[int, int]] = []
    wal_checkpoint = db.wal.checkpoint

    def tracked_checkpoint() -> int:
        written = wal_checkpoint()
        # The boundary in flight is the next to complete; a grouped run's
        # drain flush comes after the last one and belongs to it.
        ckpt_events.append((crash.ops_counted, min(len(bounds), last_boundary)))
        return written

    db.wal.checkpoint = tracked_checkpoint
    with crash.counting():
        _run_script(
            db, workload, scenario, lambda: bounds.append(crash.ops_counted)
        )
    if scenario.group_epoch > 0:
        # The drain flush belongs to the last boundary: a crash before it
        # completes must not count that epoch as committed.
        bounds[-1] = crash.ops_counted
    return Profile(
        total_ops=crash.ops_counted,
        bounds=tuple(bounds),
        ckpt_events=tuple(ckpt_events),
    )


# ----------------------------------------------------------------------
# running one scenario
# ----------------------------------------------------------------------


def _run_until_crash(scenario: TortureScenario) -> tuple[System, bool]:
    """Execute the workload, crashing at ``crash_point`` if reachable."""
    system = _make_system(scenario)
    db = _make_db(system, scenario)
    crashed = False
    if scenario.crash_point > 0:
        system.crash.arm(scenario.crash_point)
    try:
        _run_script(db, make_workload(scenario.workload), scenario)
    except PowerFailure:
        crashed = True
    if not crashed and scenario.crash_point > 0:
        system.crash.disarm()
    return system, crashed


def run_scenario(
    scenario: TortureScenario, profile: Profile | None = None
) -> ScenarioOutcome:
    """Run one scenario end to end and check every oracle.

    Any exception other than the injected :class:`PowerFailure` is itself
    an invariant violation (recovery code must degrade, not crash), so
    the harness converts it into an ``error:`` finding instead of dying.
    Profiling is inside the ``try``: a script the engine refuses (the
    minimizer can delete the ``delete`` between two inserts of one key)
    is an ``error:`` finding too, not a traceback.
    """
    try:
        if profile is None:
            profile = profile_scenario(scenario)
        return _run_scenario_checked(scenario, profile)
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        return ScenarioOutcome(
            violations=(
                f"error: unhandled {type(exc).__name__} escaped the "
                f"crash/recovery path: {exc}",
            )
        )


def _run_scenario_checked(
    scenario: TortureScenario, profile: Profile
) -> ScenarioOutcome:
    workload = make_workload(scenario.workload)
    states = model_states(workload, scenario.txns)
    system, crashed = _run_until_crash(scenario)
    # The machine goes down even on a clean run: recovery must also cope
    # with a power cut in the idle state after the last commit.
    system.power_fail()

    crashed_in_recovery = False
    recovery_ops = 0
    if crashed and scenario.recovery_crash_point:
        try:
            system.crash.arm(scenario.recovery_crash_point)
            system.reboot()
            db = _make_db(system, scenario)
            system.crash.disarm()
        except PowerFailure:
            crashed_in_recovery = True
            system.reboot()
            db = _make_db(system, scenario)
    else:
        # Count recovery's own primitive ops while we are here: the sweep
        # driver uses the measurement to pick crash points whose recovery
        # is worth crashing *into*.
        with system.crash.counting():
            system.reboot()
            db = _make_db(system, scenario)
        recovery_ops = system.crash.ops_counted

    violations: list[str] = []
    allowed = _allowed_boundaries(
        scenario, profile, crashed, len(workload.setup_sql())
    )
    recovered = db_state(workload, db)
    matched = next(
        (b for b in sorted(allowed, reverse=True) if recovered == states[b]), None
    )
    if matched is None:
        violations.append(
            workload.describe_mismatch(recovered, states, allowed)
            or f"state: recovered {workload.name} state matches no allowed "
            f"boundary {sorted(allowed)} — a committed transaction was "
            "lost, torn, or resurrected"
        )
    violations.extend(_check_integrity(db))
    violations.extend(_check_heap(system, scenario))
    violations.extend(
        _check_leaks_and_idempotence(system, db, scenario, workload, recovered, matched)
    )
    return ScenarioOutcome(
        violations=tuple(violations),
        crashed=crashed,
        crashed_in_recovery=crashed_in_recovery,
        matched_boundary=matched,
        recovery_ops=recovery_ops,
    )


def _close_boundaries(group_epoch: int, last_boundary: int, setup_n: int) -> list[int]:
    """Model boundaries that coincide with an epoch close under group
    commit: the pre-setup state, each individually-durable setup
    statement, every ``group_epoch``-th transaction, and the final drain
    flush."""
    closes = [
        *range(setup_n + 1),
        *range(setup_n + group_epoch, last_boundary, group_epoch),
    ]
    if last_boundary > setup_n:
        closes.append(last_boundary)
    return closes


def _allowed_boundaries(
    scenario: TortureScenario, profile: Profile, crashed: bool, setup_n: int
) -> set[int]:
    """Which model boundaries a recovered database may legitimately show."""
    last_boundary = len(profile.bounds) - 1
    if scenario.group_epoch > 0:
        # Group commit quantizes durability to epoch closes: recovery
        # replays the longest valid prefix of *whole* epochs.  A crash
        # inside an open epoch loses every transaction in it; a crash
        # during the close sequence may land the whole epoch atomically
        # (the next close boundary) or none of it — never a part.
        candidates = _close_boundaries(scenario.group_epoch, last_boundary, setup_n)
    else:
        candidates = list(range(last_boundary + 1))
    if crashed:
        k = scenario.crash_point
        committed = max(b for b in candidates if profile.bounds[b] <= k - 1)
        # the in-flight transaction (or epoch) may land
        high = next((b for b in candidates if b > committed), committed)
    else:
        committed = high = last_boundary
    floor = committed
    # Media decay and asynchronous (checksum) commit may legitimately shed
    # the WAL tail — but never below the last completed checkpoint, whose
    # pages are fsynced into the database file.
    relaxed = (
        scenario.plan is not None and scenario.plan.media is not None
    ) or SCHEMES[scenario.scheme]().sync is SyncMode.CHECKSUM
    if relaxed:
        cutoff = scenario.crash_point - 1 if crashed else profile.total_ops
        floor = max(
            (b for ops_done, b in profile.ckpt_events if ops_done <= cutoff),
            default=0,
        )
    return {b for b in candidates if floor <= b <= high}


def _check_integrity(db: Database) -> list[str]:
    """The recovered image must be structurally sound whatever boundary
    it landed on: B-tree invariants, index/table agreement, and exact
    page accounting (freelist + live pages + overflow == all pages)."""
    try:
        db.check_integrity()
    except DatabaseError as exc:
        return [f"integrity: {exc}"]
    return []


def _check_heap(system: System, scenario: TortureScenario) -> list[str]:
    """Tri-state heap consistency: in-bounds, non-overlapping, and no
    quarantine unless media decay could have caused it."""
    violations = []
    heapo = system.heapo
    allocs = sorted(heapo.live_allocations(), key=lambda a: a.addr)
    cursor = heapo.heap_start
    for alloc in allocs:
        if alloc.addr < cursor:
            violations.append(
                f"heap: allocation {alloc.name!r} at {alloc.addr:#x} overlaps "
                "the previous live allocation"
            )
        if alloc.addr + alloc.size > system.nvram.size:
            violations.append(
                f"heap: allocation {alloc.name!r} extends past the device end"
            )
        cursor = max(cursor, alloc.addr + alloc.size)
    media = scenario.plan is not None and scenario.plan.media is not None
    if heapo.quarantined_slots() and not media:
        violations.append(
            "heap: descriptor quarantine without media faults — attach "
            f"rejected slots {heapo.quarantined_slots()} on a clean device"
        )
    return violations


def _check_leaks_and_idempotence(
    system: System,
    db: Database,
    scenario: TortureScenario,
    workload: Workload,
    recovered: tuple,
    matched: int | None,
) -> list[str]:
    """Checkpoint the recovered database, then prove nothing leaked and a
    second power cycle reproduces the same (still sound) state."""
    try:
        db.checkpoint()
    except Exception as exc:  # noqa: BLE001
        return [
            f"error: checkpoint after recovery raised "
            f"{type(exc).__name__}: {exc}"
        ]
    leaks = [a for a in system.heapo.live_allocations() if a.name == "nvwal-blk"]
    violations = []
    if leaks:
        violations.append(
            f"leak: {len(leaks)} nvwal-blk block(s) still live after a "
            "post-recovery checkpoint"
        )
    if matched is None:
        return violations  # state already wrong; idempotence is meaningless
    try:
        system.power_fail()
        system.reboot()
        db2 = _make_db(system, scenario)
        if db_state(workload, db2) != recovered:
            violations.append(
                "idempotence: a second power cycle after the checkpoint "
                f"does not reproduce boundary {matched}"
            )
        violations.extend(_check_integrity(db2))
    except Exception as exc:  # noqa: BLE001
        violations.append(
            f"error: second recovery raised {type(exc).__name__}: {exc}"
        )
    return violations


# ----------------------------------------------------------------------
# per-seed sweep (module-level and picklable for parallel_map)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SeedTask:
    """Everything one seed's sweep needs, in picklable form."""

    seed: int
    ops: int
    scheme: str
    faults: tuple = ("power",)
    txn_size: int = 3
    stride: int = 1
    recovery_points: int = 2
    checkpoint_threshold: int = DEFAULT_TORTURE_THRESHOLD
    sabotage: str = ""
    group_epoch: int = 0
    workload: str = "mobi"


def run_seed(task: SeedTask) -> dict:
    """Sweep every crash point for one seed; returns a JSON-able summary.

    Phase 1 arms the crash controller at op 1, 1+stride, ... across the
    whole workload (checkpoints included), plus the no-crash power cut,
    and measures how many primitive ops each crash's *recovery* performs.
    Phase 2 takes the ``recovery_points`` crash points with the richest
    recoveries (chain truncation, root recreation — most recoveries are
    pure failure-atomic metadata and have nothing to interrupt) and
    sweeps every op inside them — crash during recovery, Section 4.3's
    hardest case.
    """
    base = make_scenario(
        task.seed,
        task.ops,
        harness.rotated(task.scheme, task.seed),
        faults=task.faults,
        txn_size=task.txn_size,
        checkpoint_threshold=task.checkpoint_threshold,
        sabotage=task.sabotage,
        group_epoch=task.group_epoch,
        workload=task.workload,
    )
    profile = profile_scenario(base)
    runs = 0
    crashes = 0
    failures: list[dict] = []

    def record(scenario: TortureScenario, outcome: ScenarioOutcome) -> None:
        nonlocal runs, crashes
        runs += 1
        crashes += int(outcome.crashed)
        if outcome.violations:
            failures.append(
                {
                    "scenario": scenario_to_dict(scenario),
                    "violations": list(outcome.violations),
                }
            )

    recovery_depth: list[tuple[int, int]] = []  # (-ops, crash point)
    for k in [0, *range(1, profile.total_ops + 1, task.stride)]:
        scenario = replace(base, crash_point=k)
        outcome = run_scenario(scenario, profile)
        record(scenario, outcome)
        if k > 0 and outcome.crashed and outcome.recovery_ops > 0:
            recovery_depth.append((-outcome.recovery_ops, k))

    recovery_runs = 0
    for neg_ops, k in sorted(recovery_depth)[: task.recovery_points]:
        crashed_scenario = replace(base, crash_point=k)
        for r in range(1, -neg_ops + 1):
            scenario = replace(crashed_scenario, recovery_crash_point=r)
            record(scenario, run_scenario(scenario, profile))
            recovery_runs += 1

    return {
        "workload": task.workload,
        "seed": task.seed,
        "scheme": base.scheme,
        "total_ops": profile.total_ops,
        "boundaries": len(profile.bounds) - 1,
        "checkpoints": len(profile.ckpt_events),
        "runs": runs,
        "crashes": crashes,
        "recovery_runs": recovery_runs,
        "failures": failures,
    }


# ----------------------------------------------------------------------
# trace (de)serialization
# ----------------------------------------------------------------------

scenario_to_dict = harness.to_json


def scenario_from_dict(data: dict) -> TortureScenario:
    # Traces are outside input: one in the retired ``workloads torture``
    # schema, which regenerated its script from (seed, ops), would decode
    # to an empty script and "pass"; refuse it instead.
    if "ops" in data and "txns" not in data:
        raise ValueError(
            "trace field 'txns' is missing: this trace carries 'ops' and "
            "expects its script to be regenerated, but scenarios now carry "
            "their transactions explicitly; re-record it"
        )
    return harness.from_json(TortureScenario, data, plan=FaultPlan.from_json)
