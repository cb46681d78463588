"""Session-facing transaction semantics: reentrant BEGIN, the busy
path, owner tracking, snapshot reads, and the checkpoint-wedge
regression surfaced while wiring the concurrent service layer."""

import pytest

from repro.errors import BusyError, DatabaseError, IoError, TransactionError
from repro.faults import FaultPlan, IoFaultSpec
from tests.conftest import make_nvwal_db


class TestReentrantBegin:
    def test_reentrant_begin_leaves_transaction_usable(self, db):
        """A rejected nested BEGIN must not corrupt the open transaction."""
        db.begin()
        db.execute("INSERT INTO kv VALUES (1, 'x')")
        with pytest.raises(TransactionError):
            db.begin()
        # The original transaction is untouched and still commits.
        db.execute("INSERT INTO kv VALUES (2, 'y')")
        db.commit()
        assert db.row_count("kv") == 2
        # And the session is reusable afterwards.
        with db.transaction():
            db.execute("INSERT INTO kv VALUES (3, 'z')")
        assert db.row_count("kv") == 3

    def test_reentrant_begin_via_sql(self, db):
        db.execute("BEGIN")
        with pytest.raises(TransactionError):
            db.execute("BEGIN")
        db.execute("INSERT INTO kv VALUES (1, 'x')")
        db.execute("COMMIT")
        assert db.row_count("kv") == 1

    def test_same_owner_reentrant_begin_rejected(self, db):
        db.begin(owner="a")
        with pytest.raises(TransactionError):
            db.begin(owner="a")
        db.rollback(owner="a")
        assert not db.in_transaction


class TestBusyPath:
    def test_foreign_owner_gets_busy_error(self, db):
        db.begin(owner="a")
        with pytest.raises(BusyError) as exc_info:
            db.begin(owner="b")
        assert exc_info.value.retryable is True
        # Holder is unaffected.
        db.execute("INSERT INTO kv VALUES (1, 'x')")
        db.commit(owner="a")
        assert db.row_count("kv") == 1


class TestOwnerTracking:
    def test_commit_by_wrong_owner_rejected(self, db):
        db.begin(owner="a")
        with pytest.raises(TransactionError):
            db.commit(owner="b")
        with pytest.raises(TransactionError):
            db.rollback(owner="b")
        db.rollback(owner="a")
        assert not db.in_transaction

    def test_ownerless_calls_keep_working(self, db):
        """Legacy single-session code never passes owners."""
        db.begin(owner="a")
        db.execute("INSERT INTO kv VALUES (1, 'x')")
        db.commit()  # owner=None skips the check
        assert db.row_count("kv") == 1


class TestCheckpointWedgeRegression:
    def test_checkpoint_io_error_does_not_wedge_session(self, system):
        """Minimized regression: an IoError escaping the auto-checkpoint
        used to fire *inside* commit, leaving ``_in_explicit_txn`` set
        with no pager transaction — every later BEGIN then failed with
        "transaction already in progress" and the session was dead.

        The checkpoint now runs after transaction state is clean, so the
        commit lands, the checkpoint failure surfaces as a retryable
        IoError, and the session stays usable.
        """
        db = make_nvwal_db(system, checkpoint_threshold=1)
        db.execute("CREATE TABLE kv (key INTEGER PRIMARY KEY, value TEXT)")
        db.checkpoint()
        # Every device write now fails more times in a row than the
        # filesystem's bounded retry budget, so checkpoints cannot land.
        system.inject_faults(
            FaultPlan(
                seed=7,
                io=IoFaultSpec(write_error_rate=1.0, max_consecutive=16),
            )
        )
        db.begin()
        db.execute("INSERT INTO kv VALUES (1, 'x')")
        with pytest.raises(IoError):
            db.commit()
        # The transaction committed (it lives in the WAL); only the
        # checkpoint failed.  The session must not be wedged.
        assert not db.in_transaction
        assert db.row_count("kv") == 1
        system.blockdev.fault_injector = None
        with db.transaction():
            db.execute("INSERT INTO kv VALUES (2, 'y')")
        assert db.row_count("kv") == 2
        # The auto-checkpoint retried on the next commit and drained the log.
        assert db.wal.frame_count() == 0


class TestSnapshotReads:
    def test_snapshot_hides_inflight_writes(self, db):
        db.execute("INSERT INTO kv VALUES (1, 'x')")
        db.begin(owner="w")
        db.execute("UPDATE kv SET value = 'dirty' WHERE key = 1")
        db.execute("INSERT INTO kv VALUES (2, 'y')")
        # The writer sees its own changes; snapshot readers do not.
        assert db.query("SELECT value FROM kv WHERE key = 1") == [("dirty",)]
        assert db.snapshot_query("SELECT value FROM kv WHERE key = 1") == [
            ("x",)
        ]
        assert db.snapshot_query("SELECT key FROM kv") == [(1,)]
        db.commit(owner="w")
        assert db.snapshot_query("SELECT key FROM kv") == [(1,), (2,)]

    def test_snapshot_hides_inflight_schema_change(self, db):
        db.begin(owner="w")
        db.execute("CREATE TABLE t2 (key INTEGER PRIMARY KEY, v TEXT)")
        assert db.table_exists("t2")
        with db.snapshot_view():
            assert not db.table_exists("t2")
        assert db.table_exists("t2")
        db.rollback(owner="w")
        assert not db.table_exists("t2")

    def test_writes_forbidden_during_snapshot_view(self, db):
        db.begin(owner="w")
        with db.snapshot_view():
            with pytest.raises(DatabaseError):
                db.execute("INSERT INTO kv VALUES (1, 'x')")
        # The writer's transaction survives the rejected write.
        db.execute("INSERT INTO kv VALUES (1, 'x')")
        db.commit(owner="w")
        assert db.row_count("kv") == 1

    def test_snapshot_query_requires_select(self, db):
        from repro.errors import SqlError

        with pytest.raises(SqlError):
            db.snapshot_query("INSERT INTO kv VALUES (1, 'x')")

    def test_nested_snapshot_view_rejected(self, db):
        with db.snapshot_view():
            with pytest.raises(DatabaseError):
                db.pager.push_snapshot()
