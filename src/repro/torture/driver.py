"""The torture driver: sweep every crash point, check every invariant.

One :class:`TortureScenario` is a fully reproducible experiment: a seed,
a scheme, a scripted workload, a crash point (a primitive-CPU-op index,
as counted by the crash controller), optionally a second crash point
*inside recovery*, and optionally a :class:`FaultPlan`.  Scenarios are
plain data — they pickle across process pools and round-trip through
JSON trace files, which is what makes failing runs replayable and
minimizable.

The oracles generalize the paper's Section 4.3 case analysis:

* **committed-prefix durability / atomicity** — the recovered table must
  equal the model state at *some* transaction boundary the crash point
  allows: the last committed transaction or the in-flight one (power
  alone), down to the last completed checkpoint when media decay or an
  asynchronous-commit scheme may legitimately shed WAL tail state.
* **heap consistency** — live NVRAM allocations must be non-overlapping
  and in-bounds, and descriptor quarantine may only happen under media
  faults.
* **no leaks** — after a post-recovery checkpoint, no ``nvwal-blk``
  allocation may remain live.
* **recovery idempotence** — a second power cycle after the checkpoint
  must reproduce the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from repro import harness
from repro.config import tuna
from repro.db.database import Database
from repro.errors import PowerFailure
from repro.faults import FaultPlan, IoFaultSpec, MediaFaultSpec
from repro.system import System
from repro.torture.workload import (
    DDL,
    NO_TABLE,
    TABLE,
    apply_txn,
    apply_txn_grouped,
    generate_txns,
    model_states,
    run_workload,
)
from repro.wal.base import SyncMode
from repro.wal.frames import commit_mark_value
from repro.wal.nvwal import SCHEMES, NvwalBackend

#: Small checkpoint threshold (in WAL frames) so a 30-op workload crosses
#: several checkpoints and the sweep exercises crash-during-checkpoint.
DEFAULT_TORTURE_THRESHOLD = 12

DB_NAME = "torture.db"

#: Default per-seed scheme rotation (the three the crash matrix covers).
ROTATION = ("uh_ls_diff", "ls", "eager")


def add_scheme_flag(parser, rotation=ROTATION) -> None:
    """The ``--scheme`` flag every harness CLI shares."""
    parser.add_argument(
        "--scheme",
        default="rotate",
        choices=["rotate", *sorted(SCHEMES)],
        help="NVWAL scheme; 'rotate' cycles %s by seed" % (rotation,),
    )


def comma_list(flag: str) -> tuple:
    """A ``--faults a,b``-style flag as a sorted, de-duplicated tuple."""
    return tuple(sorted({item.strip() for item in flag.split(",") if item.strip()}))


def rotated(name: str, seed: int, rotation=ROTATION) -> str:
    """Resolve a ``rotate``-able flag: ``rotate`` cycles ``rotation`` by seed."""
    return rotation[seed % len(rotation)] if name == "rotate" else name


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


@dataclass(frozen=True)
class TortureScenario:
    """One reproducible crash experiment (picklable, JSON-serializable)."""

    seed: int
    scheme: str
    txns: tuple  # tuple of transactions; each a tuple of (kind, k, v) ops
    crash_point: int = 0  # 0: run to completion, then cut power
    recovery_crash_point: int | None = None
    plan: FaultPlan | None = None
    checkpoint_threshold: int = DEFAULT_TORTURE_THRESHOLD
    sabotage: bool = False
    #: > 0: commit through the WAL's group-commit path, closing the
    #: shared epoch every ``group_epoch`` transactions.  Durability then
    #: arrives only at epoch closes, so the state oracle restricts the
    #: allowed boundaries to them: a crash inside an open epoch must
    #: lose the whole epoch, never a transaction from a closed one.
    group_epoch: int = 0


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
    unknown = faults - {"power", "media", "io"}
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
    sabotage: bool = False,
    group_epoch: int = 0,
) -> TortureScenario:
    """Generate the base (no-crash-point) scenario for a seed."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick from {sorted(SCHEMES)}")
    return TortureScenario(
        seed=seed,
        scheme=scheme,
        txns=generate_txns(seed, ops, txn_size),
        plan=build_fault_plan(seed, faults),
        checkpoint_threshold=checkpoint_threshold,
        sabotage=sabotage,
        group_epoch=group_epoch,
    )


def _make_system(scenario: TortureScenario) -> System:
    system = System(tuna(), seed=scenario.seed)
    if scenario.plan is not None:
        system.inject_faults(scenario.plan)
    return system


def _make_db(system: System, scenario: TortureScenario) -> Database:
    backend_cls = SabotagedNvwalBackend if scenario.sabotage else NvwalBackend
    wal = backend_cls(
        system,
        SCHEMES[scenario.scheme](),
        checkpoint_threshold=scenario.checkpoint_threshold,
    )
    return Database(system, wal=wal, name=DB_NAME)


# ----------------------------------------------------------------------
# profiling: measure the crash-point space and checkpoint schedule
# ----------------------------------------------------------------------


def profile_scenario(scenario: TortureScenario) -> Profile:
    """Run the workload once, uncrashed, counting primitive CPU ops.

    Every run of the same scenario executes identically up to its crash
    point, so the measured transaction boundaries and checkpoint
    completions are valid for the whole sweep.
    """
    system = _make_system(scenario)
    db = _make_db(system, scenario)
    counter = [0]

    def hook(_op: str) -> None:
        counter[0] += 1

    system.cpu.crash_hook = hook
    bounds = [0]
    boundary = [1]
    ckpt_events: list[tuple[int, int]] = []
    wal_checkpoint = db.wal.checkpoint

    def tracked_checkpoint() -> int:
        written = wal_checkpoint()
        ckpt_events.append((counter[0], boundary[0]))
        return written

    db.wal.checkpoint = tracked_checkpoint
    db.execute(DDL)
    bounds.append(counter[0])
    group = scenario.group_epoch
    for i, txn in enumerate(scenario.txns):
        boundary[0] = i + 2
        if group > 0:
            apply_txn_grouped(db, txn)
            if (i + 1) % group == 0:
                db.flush_group()
        else:
            apply_txn(db, txn)
        bounds.append(counter[0])
    if group > 0:
        # The drain flush belongs to the last boundary: a crash before it
        # completes must not count that epoch as committed.
        db.flush_group()
        bounds[-1] = counter[0]
    system.cpu.crash_hook = None
    return Profile(
        total_ops=counter[0],
        bounds=tuple(bounds),
        ckpt_events=tuple(ckpt_events),
    )


def measure_recovery_ops(scenario: TortureScenario) -> int:
    """Primitive ops spent recovering from this scenario's crash.

    Runs the scenario to its crash point, cuts power, then counts the
    ops in reboot + database recovery — the sweep space for
    ``recovery_crash_point``.  Returns 0 if the crash point is past the
    end of the workload.
    """
    system, crashed = _run_until_crash(scenario)
    if not crashed:
        return 0
    system.power_fail()

    def do_recovery() -> None:
        system.reboot()
        _make_db(system, scenario)

    return system.crash.count_ops(do_recovery)


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
        run_workload(db, scenario.txns, group_epoch=scenario.group_epoch)
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
    """
    if profile is None:
        profile = profile_scenario(scenario)
    try:
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
    states = model_states(scenario.txns)
    last_boundary = len(states) - 1
    system, crashed = _run_until_crash(scenario)
    # The machine goes down even on a clean run: recovery must also cope
    # with a power cut in the idle state after the last commit.
    system.power_fail()

    crashed_in_recovery = False
    recovery_ops = 0
    if crashed and scenario.recovery_crash_point:
        try:
            system.reboot(arm_after_ops=scenario.recovery_crash_point)
            db = _make_db(system, scenario)
            system.crash.disarm()
        except PowerFailure:
            crashed_in_recovery = True
            system.power_fail()
            system.reboot()
            db = _make_db(system, scenario)
    else:
        # Count recovery's own primitive ops while we are here: the sweep
        # driver uses the measurement to pick crash points whose recovery
        # is worth crashing *into*.
        counter = [0]

        def hook(_op: str) -> None:
            counter[0] += 1

        system.cpu.crash_hook = hook
        try:
            system.reboot()
            db = _make_db(system, scenario)
        finally:
            system.cpu.crash_hook = None
        recovery_ops = counter[0]

    violations: list[str] = []
    allowed = _allowed_boundaries(scenario, profile, crashed, last_boundary)
    matched, state_violations = _match_state(db, states, allowed)
    violations.extend(state_violations)
    violations.extend(_check_heap(system, scenario))
    violations.extend(_check_leaks_and_idempotence(system, db, scenario, states, matched))
    return ScenarioOutcome(
        violations=tuple(violations),
        crashed=crashed,
        crashed_in_recovery=crashed_in_recovery,
        matched_boundary=matched,
        recovery_ops=recovery_ops,
    )


def _close_boundaries(group_epoch: int, last_boundary: int) -> list[int]:
    """Model boundaries that coincide with an epoch close under group
    commit: the pre-DDL state, the individually-durable DDL, every
    ``group_epoch``-th transaction, and the final drain flush."""
    closes = [0]
    if last_boundary >= 1:
        closes.append(1)
    b = 1 + group_epoch
    while b < last_boundary:
        closes.append(b)
        b += group_epoch
    if last_boundary > 1:
        closes.append(last_boundary)
    return closes


def _allowed_boundaries(
    scenario: TortureScenario, profile: Profile, crashed: bool, last_boundary: int
) -> set[int]:
    """Which model boundaries a recovered database may legitimately show."""
    if scenario.group_epoch > 0:
        # Group commit quantizes durability to epoch closes: recovery
        # replays the longest valid prefix of *whole* epochs.  A crash
        # inside an open epoch loses every transaction in it; a crash
        # during the close sequence may land the whole epoch atomically
        # (the next close boundary) or none of it — never a part.
        closes = _close_boundaries(scenario.group_epoch, last_boundary)
        if crashed:
            k = scenario.crash_point
            committed = max(b for b in closes if profile.bounds[b] <= k - 1)
            pending = [b for b in closes if b > committed]
            high = pending[0] if pending else committed
        else:
            committed = high = last_boundary
        allowed = {b for b in closes if committed <= b <= high}
    else:
        if crashed:
            k = scenario.crash_point
            committed = max(
                b for b, ops in enumerate(profile.bounds) if ops <= k - 1
            )
            high = min(committed + 1, last_boundary)  # the in-flight txn may land
        else:
            committed = high = last_boundary
        allowed = set(range(committed, high + 1))
    # Media decay and asynchronous (checksum) commit may legitimately shed
    # the WAL tail — but never below the last completed checkpoint, whose
    # pages are fsynced into the database file.
    relaxed = (
        scenario.plan is not None and scenario.plan.media is not None
    ) or SCHEMES[scenario.scheme]().sync is SyncMode.CHECKSUM
    if relaxed:
        floor = 0
        cutoff = scenario.crash_point - 1 if crashed else profile.total_ops
        for ops_at_completion, boundary in profile.ckpt_events:
            if ops_at_completion <= cutoff:
                floor = max(floor, boundary)
        if scenario.group_epoch > 0:
            closes = _close_boundaries(scenario.group_epoch, last_boundary)
            return {b for b in closes if floor <= b <= high}
        return set(range(floor, high + 1))
    return allowed


def _match_state(db: Database, states: list, allowed: set[int]):
    """Committed-prefix durability + atomicity oracle."""
    if not db.table_exists(TABLE):
        if 0 in allowed and states[0] is NO_TABLE:
            return 0, []
        return None, [
            "state: table missing after recovery although the DDL "
            f"transaction must have survived (allowed boundaries {sorted(allowed)})"
        ]
    rows = sorted(db.dump_table(TABLE))
    for b in sorted(allowed, reverse=True):
        if b > 0 and rows == states[b]:
            return b, []
    return None, [
        f"state: recovered table ({len(rows)} rows) matches no allowed "
        f"transaction boundary {sorted(allowed)} — a committed transaction "
        "was lost, torn, or resurrected"
    ]


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
    states: list,
    matched: int | None,
) -> list[str]:
    """Checkpoint the recovered database, then prove nothing leaked and a
    second power cycle reproduces the same table."""
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
        if matched == 0:
            stable = not db2.table_exists(TABLE)
        else:
            stable = (
                db2.table_exists(TABLE)
                and sorted(db2.dump_table(TABLE)) == states[matched]
            )
        if not stable:
            violations.append(
                "idempotence: a second power cycle after the checkpoint "
                f"does not reproduce boundary {matched}"
            )
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
    sabotage: bool = False
    group_epoch: int = 0


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
        rotated(task.scheme, task.seed),
        faults=task.faults,
        txn_size=task.txn_size,
        checkpoint_threshold=task.checkpoint_threshold,
        sabotage=task.sabotage,
        group_epoch=task.group_epoch,
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
scenario_from_dict = partial(
    harness.from_json, TortureScenario, plan=FaultPlan.from_json
)
