"""Replication chaos harness: determinism, oracle, sabotage, shrink."""

from __future__ import annotations

import json

import pytest

from repro import harness
from repro.bench.harness import parallel_map
from repro.replication.chaos import (
    ReplicationTask,
    make_scenario,
    run_replication_chaos,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.replication.cli import HARNESS
from repro.service.chaos import run_task


def minimize(scenario):
    return harness.minimize(scenario, HARNESS.run, HARNESS.passes)


def small_scenario(seed=0, **kw):
    kw.setdefault("sessions", 2)
    kw.setdefault("txns", 10)
    kw.setdefault("scheme", "uh_ls_diff")
    kw.setdefault("mode", "semisync")
    return make_scenario(seed, **kw)


class TestDeterminism:
    def test_same_scenario_same_outcome(self):
        scenario = small_scenario(writer_kill=True, follower_kills=1)
        a = run_replication_chaos(scenario)
        b = run_replication_chaos(scenario)
        assert a.violations == b.violations
        assert a.summary == b.summary

    def test_results_invariant_under_jobs(self):
        tasks = [
            ReplicationTask(seed=s, sessions=2, txns=10, writer_kill=True)
            for s in range(2)
        ]
        serial = parallel_map(run_task, tasks, jobs=1)
        parallel = parallel_map(run_task, tasks, jobs=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_scenario_round_trips_through_json(self):
        scenario = small_scenario(writer_kill=True, follower_kills=2)
        data = json.loads(json.dumps(scenario_to_dict(scenario)))
        assert scenario_from_dict(data) == scenario


class TestOracle:
    def test_clean_storm_has_no_violations(self):
        for mode in ("sync", "semisync", "async"):
            outcome = run_replication_chaos(small_scenario(mode=mode))
            assert outcome.violations == ()
            assert outcome.summary["acked"] == 10
            assert outcome.summary["follower_reads"] > 0

    def test_failover_storm_has_no_violations(self):
        outcome = run_replication_chaos(
            small_scenario(seed=1, writer_kill=True, follower_kills=1)
        )
        assert outcome.violations == ()
        assert outcome.summary["promotions"] == 1
        assert outcome.summary["failover_ms"] is not None

    def test_acked_work_survives_failover(self):
        outcome = run_replication_chaos(
            small_scenario(seed=2, writer_kill=True)
        )
        assert outcome.violations == ()
        # every enqueued txn is eventually acked (resubmission included)
        assert outcome.summary["acked"] >= 10


class TestArchive:
    def test_archive_summary_reports_cold_store_activity(self):
        outcome = run_replication_chaos(
            small_scenario(txns=14, writer_kill=True)
        )
        assert outcome.violations == ()
        archive = outcome.summary["archive"]
        assert archive is not None
        assert archive["head"] > 0
        assert archive["peak_log_entries"] > 0

    def test_archive_io_faults_are_absorbed(self):
        outcome = run_replication_chaos(
            small_scenario(seed=3, txns=14, faults=("archive",))
        )
        assert outcome.violations == ()
        assert outcome.summary["archive"]["io_faults"] > 0

    @pytest.mark.parametrize(
        "field, value", [("archive", False), ("sabotage", True), ("sabotage", False)]
    )
    def test_trace_from_a_removed_mode_is_rejected(self, field, value):
        """A trace recorded with the cold store off, or with the legacy
        bool sabotage form, asks for a mode that no longer exists: it
        must be refused by name, not replayed in a different mode."""
        data = scenario_to_dict(small_scenario())
        assert HARNESS.load({"scenario": dict(data)}) == small_scenario()
        data[field] = value
        with pytest.raises(ValueError, match=field):
            HARNESS.load({"scenario": data})
        with pytest.raises(ValueError, match="sabotage"):
            small_scenario(sabotage=True)


class TestSabotage:
    def test_torn_segment_is_caught(self):
        outcome = run_replication_chaos(small_scenario(sabotage="torn"))
        assert any(
            v.startswith("replica-divergence") for v in outcome.violations
        )

    def test_premature_gc_is_caught(self):
        outcome = run_replication_chaos(
            small_scenario(txns=14, sabotage="gc", writer_kill=True)
        )
        assert any(
            v.startswith("gc-premature") for v in outcome.violations
        )

    def test_gc_sabotage_minimizes_and_keeps_the_archive(self):
        scenario = small_scenario(txns=14, sabotage="gc", writer_kill=True)
        small = minimize(scenario)
        first = run_replication_chaos(small)
        second = run_replication_chaos(small)
        assert first.violations and first.violations == second.violations
        assert any(v.startswith("gc-premature") for v in first.violations)

    def test_sabotage_violation_minimizes_and_replays(self):
        scenario = small_scenario(sabotage="torn")
        small = minimize(scenario)
        first = run_replication_chaos(small)
        second = run_replication_chaos(small)
        assert first.violations
        assert first.violations == second.violations
        ops = sum(len(t) for st in small.streams for t in st)
        assert ops <= sum(
            len(t) for st in scenario.streams for t in st
        )


class TestShrink:
    def test_minimize_preserves_failure_class(self):
        scenario = small_scenario(sabotage="torn")
        target = {
            v.split(":", 1)[0]
            for v in run_replication_chaos(scenario).violations
        }
        small = minimize(scenario)
        got = {
            v.split(":", 1)[0]
            for v in run_replication_chaos(small).violations
        }
        assert got & target
