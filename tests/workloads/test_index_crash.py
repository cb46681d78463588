"""Crash consistency of secondary-index maintenance (satellite of the
workload suite).

Power is cut at *every checkpoint boundary* — the exact primitive op
where a checkpoint completed, plus its two neighbours — while an
index-maintaining workload (YCSB mixes mutate an indexed ``grp``
column; the time series deletes through an indexed ``source`` column)
is running, across the paper's three scheme families:

* **E**  — eager flush-per-insert (``eager``);
* **LS** — log-structured byte-diff NVWAL (``uh_ls_diff``);
* **CS** — checksum-committed NVWAL (``uh_cs_diff``), whose recovery
  may shed the unchecksummed tail but never a checkpointed page.

After each recovery the secondary index is compared **row for row**
against a full table scan — not just through ``check_integrity`` (which
the torture oracle already applies) but explicitly here, entry by
entry, so an index/table divergence cannot hide behind a state-boundary
relaxation.
"""

from dataclasses import replace

import pytest

from repro.db.index import IndexTree
from repro.torture.driver import (
    _make_db,
    _run_until_crash,
    make_scenario,
    profile_scenario,
    run_scenario,
)

SCHEME_FAMILIES = ["eager", "uh_ls_diff", "uh_cs_diff"]

# Indexed column per workload table (matches each workload's CREATE INDEX).
_INDEXED = {"ycsb-a": ("ycsb", "ycsb_grp", 1), "timeseries": ("ts", "ts_source", 1)}


def _checkpoint_crash_points(profile):
    """Every checkpoint-completion op count, with both neighbours."""
    points = set()
    for ops_at, _boundary in profile.ckpt_events:
        for k in (ops_at - 1, ops_at, ops_at + 1):
            if 1 <= k <= profile.total_ops:
                points.add(k)
    return sorted(points)


def _recover_after_crash(scenario):
    """Run the scenario to its crash point, power-cycle, reopen."""
    system, _crashed = _run_until_crash(scenario)
    system.power_fail()
    system.reboot()
    return _make_db(system, scenario)


def _assert_index_matches_scan(db, table, index_name, column_pos):
    """The recovered index must hold exactly one entry per table row."""
    if not db.index_exists(index_name):
        # Crash landed before CREATE INDEX committed: legitimate, but
        # then the table must not have committed rows referencing it.
        return
    info = db.index(index_name)
    entries = sorted(IndexTree(db.pager, info.root).entries())
    expected = sorted(
        (row[column_pos], row[0]) for row in db.dump_table(table)
    )
    assert entries == expected, (
        f"recovered {index_name} diverges from a {table} scan: "
        f"{len(entries)} entries vs {len(expected)} rows"
    )


@pytest.mark.parametrize("scheme", SCHEME_FAMILIES)
@pytest.mark.parametrize("workload", sorted(_INDEXED))
def test_index_agrees_at_every_checkpoint_boundary(scheme, workload):
    base = make_scenario(
        0, 30, scheme, checkpoint_threshold=10, workload=workload
    )
    profile = profile_scenario(base)
    points = _checkpoint_crash_points(profile)
    assert points, "sweep is vacuous: no checkpoint ever completed"
    table, index_name, column_pos = _INDEXED[workload]
    for k in points:
        scenario = replace(base, crash_point=k)
        # Full boundary oracle (state match + integrity + idempotence)...
        outcome = run_scenario(scenario, profile)
        assert outcome.violations == (), (scheme, k, outcome.violations)
        # ...plus the explicit row-for-row index/table comparison.
        db = _recover_after_crash(scenario)
        _assert_index_matches_scan(db, table, index_name, column_pos)


@pytest.mark.workloads
@pytest.mark.parametrize("scheme", SCHEME_FAMILIES)
def test_index_agrees_at_every_crash_point(scheme):
    """Deep variant: every primitive op, not just checkpoint edges."""
    base = make_scenario(
        1, 20, scheme, checkpoint_threshold=10, workload="ycsb-a"
    )
    profile = profile_scenario(base)
    table, index_name, column_pos = _INDEXED["ycsb-a"]
    for k in range(1, profile.total_ops + 1, 2):
        scenario = replace(base, crash_point=k)
        outcome = run_scenario(scenario, profile)
        assert outcome.violations == (), (scheme, k, outcome.violations)
        db = _recover_after_crash(scenario)
        _assert_index_matches_scan(db, table, index_name, column_pos)
