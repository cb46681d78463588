"""Tests for the Database facade: transactions, catalog, lifecycle."""

import pytest

from repro.errors import PowerFailure, TableError, TransactionError
from tests.conftest import make_nvwal_db


class TestTransactions:
    def test_autocommit_persists(self, db):
        db.execute("INSERT INTO kv VALUES (1, 'x')")
        assert db.query("SELECT value FROM kv WHERE key = 1") == [("x",)]

    def test_read_only_transactions_make_no_wal_call(self, db, monkeypatch):
        """A transaction that dirtied no page is not handed to the WAL;
        it still charges its commit."""
        calls = []
        write = db.wal.write_transaction
        monkeypatch.setattr(
            db.wal, "write_transaction",
            lambda dirty, **kw: (calls.append(sorted(dirty)), write(dirty, **kw)),
        )
        db.execute("INSERT INTO kv VALUES (1, 'x')")
        assert len(calls) == 1
        clock = db.system.clock.now_ns
        assert db.execute("SELECT value FROM kv WHERE key = 1") == [("x",)]
        db.begin()
        db.execute("SELECT key FROM kv")
        db.commit()
        assert len(calls) == 1
        costs = db.system.config.db_costs
        assert db.system.clock.now_ns > clock + 2 * costs.txn_base_ns

    def test_explicit_commit(self, db):
        db.begin()
        db.execute("INSERT INTO kv VALUES (1, 'x')")
        db.commit()
        assert db.row_count("kv") == 1

    def test_rollback_discards(self, db):
        db.begin()
        db.execute("INSERT INTO kv VALUES (1, 'x')")
        db.rollback()
        assert db.row_count("kv") == 0

    def test_sql_level_transaction_control(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO kv VALUES (1, 'x')")
        db.execute("ROLLBACK")
        assert db.row_count("kv") == 0
        db.execute("BEGIN TRANSACTION")
        db.execute("INSERT INTO kv VALUES (1, 'x')")
        db.execute("COMMIT")
        assert db.row_count("kv") == 1

    def test_context_manager_commits(self, db):
        with db.transaction():
            db.execute("INSERT INTO kv VALUES (1, 'x')")
        assert db.row_count("kv") == 1

    def test_context_manager_rolls_back_on_error(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.execute("INSERT INTO kv VALUES (1, 'x')")
                raise RuntimeError("boom")
        assert db.row_count("kv") == 0

    def test_nested_begin_rejected(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()
        db.rollback()

    def test_commit_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.commit()

    def test_rollback_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.rollback()

    def test_failed_autocommit_statement_rolls_back(self, db):
        db.execute("INSERT INTO kv VALUES (1, 'x')")
        with pytest.raises(Exception):
            db.execute("INSERT INTO kv VALUES (1, 'dup')")
        assert db.row_count("kv") == 1
        db.execute("INSERT INTO kv VALUES (2, 'y')")  # engine still usable

    def test_checkpoint_inside_txn_rejected(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.checkpoint()
        db.rollback()

    def test_multi_statement_txn_atomicity(self, db):
        with db.transaction():
            for i in range(10):
                db.execute("INSERT INTO kv VALUES (?, 'v')", (i,))
        assert db.row_count("kv") == 10


class TestCatalog:
    def test_create_and_list(self, db):
        db.execute("CREATE TABLE other (a INTEGER)")
        assert db.table_names() == ["kv", "other"]

    def test_create_duplicate_rejected(self, db):
        with pytest.raises(TableError):
            db.execute("CREATE TABLE kv (a INTEGER)")

    def test_if_not_exists_tolerates_duplicate(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS kv (a INTEGER)")
        # schema unchanged
        assert [c.name for c in db.table("kv").columns] == ["key", "value"]

    def test_drop_table(self, db):
        db.execute("DROP TABLE kv")
        assert db.table_names() == []
        with pytest.raises(TableError):
            db.query("SELECT * FROM kv")

    def test_drop_frees_pages(self, db):
        for i in range(200):
            db.execute("INSERT INTO kv VALUES (?, ?)", (i, "x" * 100))
        db.execute("DROP TABLE kv")
        assert db.pager.freelist_head != 0

    def test_create_rolled_back(self, db):
        db.begin()
        db.execute("CREATE TABLE temp (a INTEGER)")
        db.rollback()
        assert not db.table_exists("temp")

    def test_multiple_primary_keys_rejected(self, db):
        with pytest.raises(TableError):
            db.execute(
                "CREATE TABLE bad (a INTEGER PRIMARY KEY, b INTEGER PRIMARY KEY)"
            )

    def test_non_integer_primary_key_rejected(self, db):
        with pytest.raises(TableError):
            db.execute("CREATE TABLE bad (a TEXT PRIMARY KEY)")

    def test_many_tables(self, db):
        for i in range(10):
            db.execute(f"CREATE TABLE t{i} (a INTEGER PRIMARY KEY, b TEXT)")
            db.execute(f"INSERT INTO t{i} VALUES (1, 'tbl{i}')")
        for i in range(10):
            assert db.query(f"SELECT b FROM t{i}") == [(f"tbl{i}",)]


class TestLifecycle:
    def test_reopen_same_system(self, system, db):
        db.execute("INSERT INTO kv VALUES (1, 'persisted')")
        db.checkpoint()
        db2 = make_nvwal_db(system)
        assert db2.query("SELECT value FROM kv WHERE key = 1") == [("persisted",)]

    def test_dump_table(self, db):
        db.execute("INSERT INTO kv VALUES (2, 'b')")
        db.execute("INSERT INTO kv VALUES (1, 'a')")
        assert db.dump_table("kv") == [(1, "a"), (2, "b")]

    def test_power_failure_inside_transaction_rolls_back_volatile(self, system, db):
        db.execute("INSERT INTO kv VALUES (1, 'safe')")
        system.crash.arm(after_ops=1, op_filter=lambda op: op == "memcpy")
        with pytest.raises(PowerFailure):
            with db.transaction():
                for i in range(2, 100):
                    db.execute("INSERT INTO kv VALUES (?, 'lost')", (i,))
        system.reboot()
        db2 = make_nvwal_db(system)
        assert db2.dump_table("kv") == [(1, "safe")]

    def test_statement_cost_charged(self, system, db):
        before = system.clock.now_ns
        db.query("SELECT COUNT(*) FROM kv")
        assert (
            system.clock.now_ns - before
            >= system.config.db_costs.statement_ns
        )


class TestExecuteMany:
    def test_executemany_single_transaction(self, db):
        n = db.executemany(
            "INSERT INTO kv VALUES (?, ?)", [(i, f"v{i}") for i in range(20)]
        )
        assert n == 20
        assert db.row_count("kv") == 20

    def test_executemany_atomic_on_failure(self, db):
        db.execute("INSERT INTO kv VALUES (5, 'existing')")
        with pytest.raises(Exception):
            db.executemany(
                "INSERT INTO kv VALUES (?, ?)",
                [(4, "a"), (5, "duplicate"), (6, "c")],
            )
        # the whole batch rolled back
        assert db.dump_table("kv") == [(5, "existing")]

    def test_executemany_inside_open_transaction(self, db):
        db.begin()
        db.executemany("INSERT INTO kv VALUES (?, ?)", [(1, "a"), (2, "b")])
        db.rollback()
        assert db.row_count("kv") == 0
