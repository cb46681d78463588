"""DatabaseService semantics: admission, deadlines, degradation, healing."""

from __future__ import annotations

import pytest

from repro import System, tuna
from repro.errors import (
    BusyError,
    CircuitOpenError,
    DeadlineExceeded,
    IoError,
    MediaError,
    ReadOnlyError,
)
from repro.faults import BlockIoFaultInjector, IoFaultSpec, MediaFaultSpec, NvramFaultInjector
from repro.service.sched import Scheduler
from repro.service.server import (
    BUSY_POLL_NS,
    BUSY_TIMEOUT_NS,
    READ_ONLY,
    READ_WRITE,
    TXN_OP_PAUSE_NS,
    DatabaseService,
    ServiceConfig,
)
from repro.workloads.mobi import TABLE
from tests.conftest import make_nvwal_db


def make_service(system=None, config=None, service_cls=DatabaseService, **db_kwargs):
    system = system or System(tuna(), seed=0)
    db_kwargs.setdefault("checkpoint_threshold", 1000)
    db = make_nvwal_db(system, name="svc.db", **db_kwargs)
    db.execute(f"CREATE TABLE {TABLE} (k INTEGER PRIMARY KEY, v TEXT)")
    return system, db, service_cls(db, config or ServiceConfig(), seed=0)


def drive(gen, clock=None):
    """Run a service generator to completion, advancing ``clock`` by each
    yielded sleep (without that, busy polling would spin forever)."""
    while True:
        try:
            delay = next(gen)
            if clock is not None:
                clock.advance(max(0, delay))
        except StopIteration as stop:
            return stop.value


class TestWritePath:
    def test_single_txn_commits_and_acks(self):
        acks = []
        system, db, service = make_service()
        service.on_ack = lambda sid, ops: acks.append((sid, tuple(ops)))
        ops = (("insert", 1, "a"), ("insert", 2, "b"))
        applied = drive(service.submit_txn("c0", ops))
        assert applied == 2
        assert acks == [("c0", ops)]
        assert sorted(db.dump_table(TABLE)) == [(1, "a"), (2, "b")]
        assert service.stats.txns_acked == 1

    def test_insert_acts_as_upsert_on_resubmission(self):
        _system, db, service = make_service()
        ops = (("insert", 1, "first"),)
        drive(service.submit_txn("c0", ops))
        drive(service.submit_txn("c0", (("insert", 1, "second"),)))
        assert db.dump_table(TABLE) == [(1, "second")]

    def test_concurrent_writers_interleave_with_busy_waits(self):
        system, db, service = make_service()
        sched = Scheduler(system.clock)
        results = {}

        def client(sid, key):
            ops = tuple(("insert", key + i, f"{sid}.{i}") for i in range(3))
            results[sid] = yield from service.submit_txn(sid, ops)

        sched.spawn("a", client("a", 10))
        sched.spawn("b", client("b", 20))
        sched.run()
        assert results == {"a": 3, "b": 3}
        # The multi-op txn pauses mean the second writer really waited.
        assert service.stats.busy_waits > 0
        assert len(db.dump_table(TABLE)) == 6

    def test_busy_timeout_when_writer_never_releases(self):
        system, _db, service = make_service()
        service.db.begin(owner="hog")
        gen = service.submit_txn("victim", (("insert", 1, "x"),))
        with pytest.raises(BusyError):
            drive(gen, clock=system.clock)
        assert service.stats.busy_timeouts == 1
        waited = system.clock.now_ns
        assert waited >= BUSY_TIMEOUT_NS - BUSY_POLL_NS

    def test_past_deadline_rejected_before_any_work(self):
        system, db, service = make_service()
        system.clock.advance(1_000_000)
        gen = service.submit_txn(
            "c0", (("insert", 1, "x"),), deadline_ns=system.clock.now_ns - 1
        )
        with pytest.raises(DeadlineExceeded):
            drive(gen)
        assert db.dump_table(TABLE) == []
        assert service.stats.deadline_misses == 1

    def test_rollback_on_failure_releases_writer_slot(self):
        _system, db, service = make_service()
        with pytest.raises(Exception):
            drive(service.submit_txn("c0", (("frobnicate", 1, "x"),)))
        assert not db.in_transaction  # slot released for the next writer
        drive(service.submit_txn("c1", (("insert", 1, "y"),)))
        assert db.dump_table(TABLE) == [(1, "y")]


class TestDurableCommitVsCheckpoint:
    def test_checkpoint_failure_after_durable_commit_still_acks(self):
        """IoError in the auto-checkpoint is not the client's problem."""
        system, db, service = make_service(checkpoint_threshold=1)
        system.blockdev.fault_injector = BlockIoFaultInjector(
            IoFaultSpec(write_error_rate=1.0, max_consecutive=100), seed=0
        )
        applied = drive(service.submit_txn("c0", (("insert", 1, "x"),)))
        assert applied == 1
        assert service.stats.checkpoint_failures == 1
        assert not db.in_transaction
        assert db.dump_table(TABLE) == [(1, "x")]


class TestSabotage:
    def test_ack_before_commit_orders_ack_first(self):
        """The planted bug is a subclass beside the chaos driver."""
        from repro.service.chaos import _AckEarlyService

        events = []
        _system, _db, service = make_service(service_cls=_AckEarlyService)
        service.on_ack = lambda sid, ops: events.append("ack")
        inner_commit = service.db.commit
        service.db.commit = lambda owner=None: (
            events.append("commit"), inner_commit(owner=owner))[1]
        drive(service.submit_txn("c0", (("insert", 1, "x"),)))
        assert events == ["ack", "commit"]

    def test_default_orders_commit_first(self):
        events = []
        _system, _db, service = make_service()
        service.on_ack = lambda sid, ops: events.append("ack")
        inner_commit = service.db.commit
        service.db.commit = lambda owner=None: (
            events.append("commit"), inner_commit(owner=owner))[1]
        drive(service.submit_txn("c0", (("insert", 1, "x"),)))
        assert events == ["commit", "ack"]


class TestReadPath:
    def test_read_sees_committed_state_not_inflight_writer(self):
        system, db, service = make_service()
        drive(service.submit_txn("c0", (("insert", 1, "committed"),)))
        sched = Scheduler(system.clock)
        seen = {}

        def writer():
            yield from service.submit_txn(
                "w", (("insert", 2, "dirty"), ("insert", 3, "dirty"))
            )

        def reader():
            yield TXN_OP_PAUSE_NS // 2  # land mid-writer-txn
            seen["rows"] = yield from service.submit_read(
                "r", f"SELECT k, v FROM {TABLE}"
            )

        sched.spawn("w", writer())
        sched.spawn("r", reader())
        sched.run()
        assert sorted(seen["rows"]) == [(1, "committed")]
        # And the writer still committed everything afterwards.
        assert len(db.dump_table(TABLE)) == 3

    def test_reads_served_while_degraded(self):
        _system, _db, service = make_service()
        drive(service.submit_txn("c0", (("insert", 1, "x"),)))
        service._demote("quarantine")
        rows = drive(service.submit_read("r", f"SELECT k, v FROM {TABLE}"))
        assert rows == [(1, "x")]
        with pytest.raises(ReadOnlyError):
            drive(service.submit_txn("c0", (("insert", 2, "y"),)))
        assert service.stats.rejected_read_only == 1


class TestDegradationAndHealing:
    def _poison_log(self, system):
        """Decay NVRAM at runtime (a storm: no power loss involved)."""
        injector = NvramFaultInjector(MediaFaultSpec(poison_units=64), seed=3)
        injector.on_power_loss(system.nvram)
        system.nvram.fault_injector = injector

    def test_media_failures_trip_breaker_and_demote(self):
        config = ServiceConfig(breaker_threshold=1)
        system, _db, service = make_service(config=config)
        for i in range(4):
            drive(service.submit_txn("c0", ((("insert"), i, "x"),)))
        self._poison_log(system)
        maint = service.maintenance()
        next(maint)  # first tick: scrub detects the decayed log
        next(maint)
        assert service.mode == READ_ONLY
        assert service.demotion_reason == "breaker"
        assert service.stats.demotions == 1
        with pytest.raises(CircuitOpenError):
            drive(service.submit_txn("c0", (("insert", 9, "y"),)))
        assert service.stats.rejected_breaker_open == 1

    def test_maintenance_repairs_and_repromotes(self):
        config = ServiceConfig(breaker_threshold=1, breaker_cooldown_ns=1)
        system, db, service = make_service(config=config)
        for i in range(4):
            drive(service.submit_txn("c0", (("insert", i, "x"),)))
        self._poison_log(system)
        maint = service.maintenance()
        next(maint)
        next(maint)  # demote
        assert service.mode == READ_ONLY
        # Next tick: after the cooldown elapses on the simulated clock,
        # repair runs: checkpoint drains the poisoned log blocks, the
        # re-scrub is clean, and the service promotes.
        system.clock.advance(config.breaker_cooldown_ns)
        next(maint)
        assert service.mode == READ_WRITE
        assert service.stats.promotions == 1
        assert db.wal.frame_count() == 0  # log drained by the repair
        drive(service.submit_txn("c0", (("insert", 9, "y"),)))
        assert (9, "y") in db.dump_table(TABLE)

    def test_each_stats_field_equals_its_telemetry_counter(self):
        """A ``ServiceStats`` field with a ``service.<field>`` counter
        moves with it — on the deadline path and on a scrub's media
        failure too, which once bumped only the field."""
        config = ServiceConfig(breaker_threshold=1, breaker_cooldown_ns=1)
        system, _db, service = make_service(config=config)
        for i in range(4):
            drive(service.submit_txn("c0", (("insert", i, "x"),)))
        system.clock.advance(1_000_000)
        with pytest.raises(DeadlineExceeded):
            drive(service.submit_txn(
                "c0", (("insert", 9, "x"),), deadline_ns=system.clock.now_ns - 1
            ))
        self._poison_log(system)
        maint = service.maintenance()
        next(maint)
        next(maint)  # the scrub finds the decay: media failure, demotion
        system.clock.advance(config.breaker_cooldown_ns)
        next(maint)  # repair and re-promotion
        stats = service.stats.as_dict()
        counters = {
            name.removeprefix("service."): value
            for name, value in system.telemetry.snapshot()["counters"].items()
            if name.removeprefix("service.") in stats
        }
        assert counters == {name: stats[name] for name in counters}
        assert {name for name, value in counters.items() if value} == {
            "txns_acked", "deadline_misses", "media_failures", "demotions",
            "promotions",
        }

    def test_quarantine_growth_demotes(self):
        _system, _db, service = make_service()
        service._seen_quarantine = 0
        service.system.heapo.quarantined_slots = lambda: [1]  # one bad slot
        with pytest.raises(ReadOnlyError):
            drive(service.submit_txn("c0", (("insert", 1, "x"),)))
        assert service.mode == READ_ONLY
        assert service.demotion_reason == "quarantine"


class TestIoRetry:
    def test_transient_commit_failure_retries_to_success(self):
        """An IoError that escapes the filesystem's bounded retries rolls
        the txn back and the service-level backoff retry lands it."""
        system, db, service = make_service(checkpoint_threshold=1)

        class OneShot:
            fired = False

            def before_op(self, kind, pno):
                if kind == "write" and not self.fired:
                    self.fired = True
                    err = IoError("transient write failure (service-level)")
                    err.retryable = True
                    raise err

            def filter_read(self, pno, data):
                return data

        # Bypass ext4's own retry loop by failing exactly once per streak
        # longer than its budget: simulate with a direct commit failure.
        inner_commit = db.commit
        state = {"calls": 0}

        def flaky_commit(owner=None):
            state["calls"] += 1
            if state["calls"] == 1:
                err = IoError("transient commit failure")
                err.retryable = True
                raise err
            return inner_commit(owner=owner)

        db.commit = flaky_commit
        applied = drive(service.submit_txn("c0", (("insert", 1, "x"),)))
        assert applied == 1
        assert state["calls"] == 2
        assert service.stats.io_retries == 1
        assert db.dump_table(TABLE) == [(1, "x")]

    def test_retry_budget_exhausted_reraises(self):
        _system, db, service = make_service()

        def always_fail(owner=None):
            err = IoError("persistent io failure")
            err.retryable = True
            raise err

        db.commit = always_fail
        with pytest.raises(IoError):
            drive(service.submit_txn("c0", (("insert", 1, "x"),)))
        assert not db.in_transaction


class TestMediaErrorPath:
    def test_media_error_in_commit_demotes_and_raises(self):
        config = ServiceConfig(breaker_threshold=1)
        _system, db, service = make_service(config=config)

        def poisoned_commit(owner=None):
            raise MediaError("log block unreadable")

        db.commit = poisoned_commit
        with pytest.raises(MediaError):
            drive(service.submit_txn("c0", (("insert", 1, "x"),)))
        assert service.mode == READ_ONLY
        assert service.demotion_reason == "breaker"
        assert service.stats.media_failures == 1
