"""All WAL backends must produce identical logical database contents.

The scheme matrix only changes *how* durability is achieved; the data an
application reads back must be byte-for-byte the same.  This runs one mixed
workload through every NVWAL scheme and both file WALs, across a clean
reopen, and compares table dumps.

What each scheme *costs* is pinned too: :func:`test_simulated_cost_is_pinned`
holds the simulated clock, every ``Stats`` counter and the NVRAM media of
one seeded workload to recorded values for every scheme x persistency model
x {solo, grouped} cell (``cost_matrix.json``), so a refactor of the commit
path cannot move a flush, a barrier or a byte without a cell failing.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro import System, nexus5, tuna
from repro.nvram.persistency import PersistencyModel
from repro.wal.nvwal import SCHEMES, NvwalScheme
from tests.conftest import make_file_db, make_nvwal_db


def mixed_workload(db) -> None:
    db.execute(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT, qty INTEGER)"
    )
    for i in range(60):
        db.execute("INSERT INTO items VALUES (?, ?, ?)", (i, f"item{i}", i * 2))
    db.execute("UPDATE items SET qty = qty + 100 WHERE id < 20")
    db.execute("DELETE FROM items WHERE id >= 50")
    with db.transaction():
        for i in range(100, 110):
            db.execute("INSERT INTO items VALUES (?, 'batch', 0)", (i,))
    db.execute("UPDATE items SET name = 'renamed' WHERE id = 5")


def reference_dump():
    system = System(tuna(), seed=0)
    db = make_nvwal_db(system)
    mixed_workload(db)
    return db.dump_table("items")


REFERENCE = None


def get_reference():
    global REFERENCE
    if REFERENCE is None:
        REFERENCE = reference_dump()
    return REFERENCE


@pytest.mark.parametrize(
    "scheme",
    NvwalScheme.all_figure7() + [NvwalScheme.eager()],
    ids=lambda s: s.name,
)
def test_nvwal_schemes_equivalent(scheme):
    system = System(tuna(), seed=1)
    db = make_nvwal_db(system, scheme)
    mixed_workload(db)
    assert db.dump_table("items") == get_reference()
    # and across checkpoint + reopen
    db.checkpoint()
    db2 = make_nvwal_db(system, scheme)
    assert db2.dump_table("items") == get_reference()


@pytest.mark.parametrize("optimized", [False, True], ids=["stock", "optimized"])
def test_file_wal_equivalent(optimized):
    system = System(nexus5(), seed=1)
    db = make_file_db(system, optimized)
    mixed_workload(db)
    assert db.dump_table("items") == get_reference()
    db.checkpoint()
    db2 = make_file_db(system, optimized)
    assert db2.dump_table("items") == get_reference()


def test_nvwal_and_filewal_agree_after_crash_recovery():
    dumps = []
    for maker in (make_nvwal_db, make_file_db):
        system = System(tuna(), seed=2)
        db = maker(system)
        mixed_workload(db)
        system.power_fail()
        system.reboot()
        db2 = maker(system)
        dumps.append(db2.dump_table("items"))
    assert dumps[0] == dumps[1] == get_reference()


# ---------------------------------------------------------------------------
# simulated cost, cell by cell
# ---------------------------------------------------------------------------

COST_MATRIX = Path(__file__).with_name("cost_matrix.json")

#: Transactions per grouped epoch ("grouped" cells); 0 commits solo.
EPOCH = 4

COST_CELLS = [
    (name, model, epoch)
    for name in sorted(SCHEMES)
    for model in PersistencyModel
    for epoch in (0, EPOCH)
]


def cell_id(name: str, model: PersistencyModel, epoch: int) -> str:
    return f"{name}/{model.value}/{'epoch%d' % epoch if epoch else 'solo'}"


def cost_fingerprint(name: str, model: PersistencyModel, epoch: int) -> dict:
    """Run the pinned workload in one cell and fingerprint what it cost.

    140 seeded single-statement transactions (inserts with 20-600 byte
    values, then updates that rewrite a few of them) against a 40-frame
    checkpoint threshold: the log is checkpointed at least twice and
    chains several NVRAM blocks between checkpoints in every scheme.
    """
    system = System(tuna(), seed=5)
    scheme = SCHEMES[name]().with_persistency(model)
    db = make_nvwal_db(system, scheme, checkpoint_threshold=40)
    rng = random.Random(2016)
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    for i in range(140):
        if i < 90:
            sql = "INSERT INTO t VALUES (?, ?)"
            params = (i, "x" * rng.randrange(20, 600))
        else:
            sql = "UPDATE t SET v = ? WHERE k = ?"
            params = ("y" * rng.randrange(20, 600), rng.randrange(90))
        if epoch:
            db.begin()
            db.execute(sql, params)
            db.group_commit()
            if i % epoch == epoch - 1:
                db.flush_group()
        else:
            db.execute(sql, params)
    db.flush_group()
    stats = system.stats
    return {
        "checkpoints": db.wal._checkpoint_id - 1,
        "now_ns": repr(system.clock.now_ns),
        "counters": dict(sorted(stats.counters.items())),
        "time_ns": {k: repr(v) for k, v in sorted(stats.time_ns.items())},
        "nvram_sha256": hashlib.sha256(system.nvram.durable_image()).hexdigest(),
    }


@pytest.mark.parametrize(
    "name, model, epoch", COST_CELLS, ids=[cell_id(*cell) for cell in COST_CELLS]
)
def test_simulated_cost_is_pinned(name, model, epoch):
    pinned = json.loads(COST_MATRIX.read_text())[cell_id(name, model, epoch)]
    assert pinned["checkpoints"] >= 2
    chained = pinned["counters"]["nvmalloc_calls"] + pinned["counters"].get(
        "nv_pre_malloc_calls", 0
    )
    assert chained >= 3 * pinned["checkpoints"]  # several blocks per generation
    assert cost_fingerprint(name, model, epoch) == pinned
