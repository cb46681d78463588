"""Simulated-cost pin for the DB front end — this layer's ``cost_matrix.json``.

A fixed script of ~200 statements (every access path, every statement
kind, overflow values, a secondary index, and the statements that must
fail) runs on ``tuna(500)`` + ``uh_ls_diff``.  ``plan_pins.json`` holds,
as the tree-walking executor of commit 88ae32c produced them: the page
visits of every statement, the simulated clock at the end, and a digest of
every page image.  A plan that drops, adds or reorders a page visit — on
a succeeding *or* a failing statement — fails here, not in a benchmark run.

Regenerate only for a change that is *meant* to move simulated cost::

    PYTHONPATH=src python -c "import json; \\
        from tests.db.sql.test_plan_pins import fingerprint; \\
        print(json.dumps(fingerprint(), indent=1))" > tests/db/sql/plan_pins.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro import Database, System, tuna
from repro.db.pager import Pager
from repro.wal.nvwal import NvwalBackend, NvwalScheme

PINS = Path(__file__).with_name("plan_pins.json")

_BIG = 2**63


def _value(i: int, size: int = 100) -> str:
    return (f"v{i:05d}-" * (size // 7 + 1))[:size]


def script() -> list[tuple[str, tuple]]:
    """The pinned statements, in order."""
    s: list[tuple[str, tuple]] = [
        ("CREATE TABLE kv (key INTEGER PRIMARY KEY, value TEXT)", ()),
        ("CREATE TABLE p (id INTEGER PRIMARY KEY, name TEXT, age INTEGER)", ()),
        ("CREATE TABLE log (msg TEXT)", ()),
        ("BEGIN", ()),
    ]
    # Enough 100-byte rows for several leaves under one interior root.
    s += [
        ("INSERT INTO kv VALUES (?, ?)", (k, _value(k)))
        for k in range(10, 1210, 10)
    ]
    s += [("COMMIT", ())]
    s += [
        ("INSERT INTO p VALUES (?, ?, ?)", (i, f"name{i % 7}", 20 + (i * 7) % 40))
        for i in range(1, 13)
    ]
    s += [("INSERT INTO p VALUES (13, 'nobody', NULL), (14, NULL, 33)", ())]
    # -- point / range / full-scan SELECT, param and literal keys ----------
    s += [("SELECT value FROM kv WHERE key = ?", (k,)) for k in (10, 500, 505, 1200, 9999)]
    s += [(f"SELECT value FROM kv WHERE key = {k}", ()) for k in (20, 640, 645, 1190)]
    s += [("SELECT value FROM kv WHERE ? = key", (300,))]
    s += [
        ("SELECT key FROM kv WHERE key >= ? AND key <= ?", bounds)
        for bounds in ((100, 200), (395, 805), (1195, 5000), (700, 600))
    ]
    s += [
        ("SELECT key FROM kv WHERE key > 1100 AND key < 1150", ()),
        ("SELECT key FROM kv WHERE key BETWEEN 40 AND 90 AND value != ?", (_value(50),)),
        ("SELECT key FROM kv WHERE key >= ? AND key = ?", (100, 400)),
        ("SELECT key FROM kv WHERE key = -?", (-70,)),
        ("SELECT key FROM kv WHERE key = ? OR key = ?", (10, 20)),
        ("SELECT key FROM kv WHERE value = ?", (_value(730),)),
        ("SELECT key FROM kv WHERE NOT (key < 1180)", ()),
        ("SELECT * FROM kv WHERE key <= 20", ()),
        ("SELECT key, value FROM kv", ()),
        ("SELECT name FROM p WHERE age IS NULL", ()),
        ("SELECT id FROM p WHERE age / 0 IS NULL AND id < 4", ()),
        ("SELECT id FROM p WHERE age * 2 - 1 > 80 OR name = 'nobody'", ()),
    ]
    # -- aggregates, ORDER BY, LIMIT ------------------------------------------
    s += [
        ("SELECT COUNT(*) FROM kv", ()),
        ("SELECT COUNT(*) FROM kv WHERE key > ?", (600,)),
        ("SELECT COUNT(age) FROM p", ()),
        ("SELECT SUM(age) FROM p WHERE id <= ?", (6,)),
        ("SELECT MIN(age) FROM p", ()),
        ("SELECT MAX(name) FROM p", ()),
        ("SELECT AVG(age) FROM p WHERE id > 100", ()),
        ("SELECT id, name FROM p ORDER BY age DESC LIMIT 3", ()),
        ("SELECT id FROM p ORDER BY name LIMIT 5", ()),
        ("SELECT key FROM kv WHERE key < 100 ORDER BY value DESC", ()),
        ("SELECT id FROM p LIMIT 0", ()),
    ]
    # -- INSERT / OR REPLACE ----------------------------------------------------
    s += [
        ("INSERT INTO kv VALUES (?, ?)", (15, _value(15))),
        ("INSERT INTO kv VALUES (?, ?)", (15, "duplicate")),
        ("INSERT OR REPLACE INTO kv VALUES (?, ?)", (15, _value(16))),
        ("INSERT OR REPLACE INTO kv VALUES (?, ?)", (25, _value(25, 40))),
        ("INSERT OR REPLACE INTO kv VALUES (?, ?)", (500, _value(1, 900))),
        ("INSERT INTO kv (value, key) VALUES (?, ?)", ("listed", 35)),
        ("INSERT INTO kv (value) VALUES ('auto-key')", ()),
        ("INSERT INTO kv VALUES (NULL, 'auto-key-2')", ()),
        ("INSERT INTO p (id, age) VALUES (20, 50), (21, 51)", ()),
        ("INSERT INTO log VALUES ('first')", ()),
        ("INSERT INTO log VALUES (?), (?)", ("second", "third")),
        ("SELECT msg FROM log", ()),
    ]
    # -- UPDATE: in place, size-changing, key-changing -----------------------
    s += [
        ("UPDATE kv SET value = ? WHERE key = ?", (_value(77), 100)),
        ("UPDATE kv SET value = ? WHERE key = ?", ("short", 110)),
        ("UPDATE kv SET value = ? WHERE key = ?", (_value(3, 700), 120)),
        ("UPDATE kv SET value = ? WHERE key = ?", ("missing", 125)),
        ("UPDATE kv SET value = 'range' WHERE key >= 130 AND key <= 160", ()),
        ("UPDATE p SET age = age + 1 WHERE age < ?", (30,)),
        ("UPDATE p SET id = id + 1000 WHERE id = ?", (3,)),
        ("UPDATE p SET id = ?, name = ? WHERE id = ?", (2000, "moved", 4)),
        ("UPDATE p SET name = name WHERE id = 5", ()),
        ("UPDATE kv SET key = key + 5 WHERE key = 1200", ()),
        ("UPDATE log SET msg = 'all'", ()),
    ]
    # -- overflow-sized values ---------------------------------------------------
    s += [
        ("INSERT INTO kv VALUES (?, ?)", (5000, _value(5000, 3000))),
        ("INSERT INTO kv VALUES (?, ?)", (5001, _value(5001, 9000))),
        ("SELECT value FROM kv WHERE key = ?", (5000,)),
        ("SELECT COUNT(*) FROM kv WHERE key >= 5000", ()),
        ("UPDATE kv SET value = ? WHERE key = ?", (_value(1, 4000), 5000)),
        ("UPDATE kv SET value = ? WHERE key = ?", ("inline again", 5001)),
        ("INSERT OR REPLACE INTO kv VALUES (?, ?)", (5000, _value(2, 2500))),
        ("INSERT INTO kv VALUES (?, ?)", (5000, _value(3, 2500))),
        ("DELETE FROM kv WHERE key = ?", (5000,)),
    ]
    # -- a secondary index ------------------------------------------------------
    s += [
        ("CREATE INDEX p_age ON p (age)", ()),
        ("CREATE INDEX IF NOT EXISTS p_age ON p (age)", ()),
        ("SELECT id FROM p WHERE age = ?", (33,)),
        ("SELECT id FROM p WHERE age = 33 AND name IS NULL", ()),
        ("SELECT id FROM p WHERE age > ? AND age <= ?", (40, 55)),
        ("SELECT id FROM p WHERE age = ?", (None,)),
        ("SELECT id FROM p WHERE age = 33 AND id = 14", ()),
        ("SELECT COUNT(*) FROM p WHERE ? < age", (50,)),
        ("UPDATE p SET age = ? WHERE age = ?", (34, 33)),
        ("UPDATE p SET name = 'same-age' WHERE age = 34", ()),
        ("UPDATE p SET id = id + 1 WHERE age = 34", ()),
        ("INSERT INTO p VALUES (30, 'thirty', 34)", ()),
        ("INSERT OR REPLACE INTO p VALUES (30, 'thirty', 35)", ()),
        ("INSERT OR REPLACE INTO p VALUES (31, 'new', 35)", ()),
        ("DELETE FROM p WHERE age = ?", (35,)),
        ("DELETE FROM p WHERE age >= 55", ()),
        ("SELECT id, age FROM p ORDER BY age", ()),
        ("DROP INDEX p_age", ()),
        ("DROP INDEX IF EXISTS p_age", ()),
        ("SELECT id FROM p WHERE age = ?", (34,)),
    ]
    # -- DELETE -------------------------------------------------------------------
    s += [
        ("DELETE FROM kv WHERE key = ?", (10,)),
        ("DELETE FROM kv WHERE key = ?", (11,)),
        ("DELETE FROM kv WHERE key >= ? AND key <= ?", (200, 560)),
        ("DELETE FROM kv WHERE value = 'range'", ()),
        ("DELETE FROM log", ()),
    ]
    # -- explicit transactions ------------------------------------------------
    s += [
        ("BEGIN", ()),
        ("INSERT INTO kv VALUES (?, ?)", (7000, "in txn")),
        ("CREATE TABLE scratch (a INTEGER PRIMARY KEY, b TEXT)", ()),
        ("INSERT INTO scratch VALUES (1, 'x')", ()),
        ("SELECT b FROM scratch WHERE a = 1", ()),
        ("ROLLBACK", ()),
        ("SELECT b FROM scratch WHERE a = 1", ()),
        ("BEGIN", ()),
        ("CREATE TABLE scratch (b TEXT, a INTEGER PRIMARY KEY)", ()),
        ("INSERT INTO scratch VALUES ('y', 1)", ()),
        ("SELECT b FROM scratch WHERE a = 1", ()),
        ("COMMIT", ()),
        ("DROP TABLE scratch", ()),
        ("CHECKPOINT", ()),
    ]
    # -- statements that must fail: same pages visited before they do ------
    s += [
        ("SELECT value FROM kv WHERE nope = 1", ()),
        ("SELECT value FROM kv WHERE key = ?", ()),
        ("SELECT value FROM kv WHERE key = ? AND nope = ?", (1,)),
        ("SELECT nope FROM kv WHERE key < 100", ()),
        ("SELECT key FROM kv ORDER BY nope", ()),
        ("SELECT SUM(nope) FROM kv", ()),
        # Returned [(14,)] at 88ae32c (a bug) and raises now; inside a
        # transaction neither outcome commits, so the cost is comparable.
        ("BEGIN", ()),
        ("SELECT COUNT(*) FROM p ORDER BY nope", ()),
        ("COMMIT", ()),
        ("SELECT key FROM kv WHERE value + 1 > 0", ()),
        ("SELECT key FROM nowhere", ()),
        ("UPDATE kv SET nope = 1", ()),
        ("UPDATE kv SET value = ? WHERE key = ?", ("one",)),
        ("UPDATE kv SET value = 5 WHERE key = 600", ()),
        ("UPDATE p SET id = 'text' WHERE id = 1", ()),
        ("UPDATE p SET id = 6 WHERE id = 1", ()),
        ("DELETE FROM kv WHERE nope = 1", ()),
        ("INSERT INTO kv VALUES (1)", ()),
        ("INSERT INTO kv VALUES (601, 'ok'), (602, nope)", ()),
        ("INSERT INTO kv (key, nope) VALUES (1, 'x')", ()),
        ("INSERT INTO kv VALUES ('text', 'x')", ()),
        ("INSERT INTO p VALUES (99999999999999999999, 'x', 1)", ()),
        ("INSERT INTO p VALUES (?, 'x', 1)", (_BIG,)),
        ("UPDATE p SET age = ? WHERE id = 1", (_BIG,)),
        ("UPDATE p SET age = age * 9223372036854775807 * 4 WHERE id = 1", ()),
        ("SELECT id, name, age FROM p", ()),
    ]
    return s


def fingerprint() -> dict:
    """Run the script; return what must not move."""
    system = System(tuna(500), seed=0)
    db = Database(system, wal=NvwalBackend(system, NvwalScheme.uh_ls_diff()))
    visits = [0]
    charged = Pager.get_page

    def counting_get_page(self, pno):
        visits[0] += 1
        return charged(self, pno)

    per_statement = []
    Pager.get_page = counting_get_page
    try:
        for sql, params in script():
            before = visits[0]
            try:
                db.execute(sql, params)
            except Exception:  # noqa: BLE001 - failing statements are part of the pin
                pass
            per_statement.append(visits[0] - before)
    finally:
        Pager.get_page = charged
    db.check_integrity()
    pages = hashlib.sha256()
    for pno in range(1, db.pager.n_pages + 1):
        pages.update(db.pager.page_image(pno))
    return {
        "statements": len(per_statement),
        "clock_ns": repr(system.clock.now_ns),
        "page_visits": sum(per_statement),
        "page_visits_per_statement": per_statement,
        "pages_sha256": pages.hexdigest(),
    }


def test_simulated_cost_of_the_front_end_is_pinned():
    want = json.loads(PINS.read_text())
    got = fingerprint()
    statements = script()
    moved = [
        (i, statements[i][0], w, g)
        for i, (w, g) in enumerate(
            zip(want["page_visits_per_statement"], got["page_visits_per_statement"])
        )
        if w != g
    ]
    assert not moved, f"page visits moved (index, sql, pinned, now): {moved[:5]}"
    assert got == want
