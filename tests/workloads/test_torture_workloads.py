"""Crash-point sweeps over the workload suite, on the one torture driver.

Tier-1 keeps a handful of targeted sweeps; the ``workloads``-marked
tests run the deep per-scheme matrices (select with
``pytest -m workloads``).
"""

import json
from dataclasses import replace

import pytest

from repro import harness
from repro.torture import (
    SeedTask,
    make_scenario,
    profile_scenario,
    run_scenario,
    run_seed,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.torture.__main__ import HARNESS


class TestScenarioPlumbing:
    def test_dict_round_trip(self):
        scenario = replace(
            make_scenario(3, 20, "uh_cs_diff", workload="queue"), crash_point=7
        )
        assert any(op[0] == "deq" for txn in scenario.txns for op in txn)
        wire = json.loads(json.dumps(scenario_to_dict(scenario)))
        assert scenario_from_dict(wire) == scenario

    def test_nested_payloads_round_trip(self):
        # ycsb inserts carry a (grp, payload) tuple, timeseries a float.
        for workload in ("ycsb-a", "timeseries"):
            scenario = make_scenario(1, 6, "eager", workload=workload)
            wire = json.loads(json.dumps(scenario_to_dict(scenario)))
            assert scenario_from_dict(wire) == scenario

    def test_regenerate_from_ops_schema_is_refused_by_field_name(self):
        # The retired `workloads torture` trace schema: (seed, ops), no
        # script.  Decoding it field by field would "pass" an empty one.
        old = {
            "checkpoint_threshold": 12, "crash_point": 400, "ops": 12,
            "scheme": "uh_ls_diff", "seed": 0, "workload": "queue",
        }
        with pytest.raises(ValueError, match="'txns'"):
            scenario_from_dict(old)

    def test_profile_counts_boundaries(self):
        scenario = make_scenario(0, 20, "eager", workload="ycsb-a")
        workload_setup = 2  # CREATE TABLE + CREATE INDEX
        profile = profile_scenario(scenario)
        assert profile.total_ops > 0
        assert len(profile.bounds) == 1 + workload_setup + len(scenario.txns)
        assert profile.bounds == tuple(sorted(profile.bounds))

    def test_small_threshold_triggers_checkpoints(self):
        scenario = make_scenario(
            0, 40, "uh_ls_diff", checkpoint_threshold=8, workload="timeseries"
        )
        assert len(profile_scenario(scenario).ckpt_events) >= 2


def sweep(workload, **task):
    task.setdefault("recovery_points", 0)
    return run_seed(SeedTask(workload=workload, **task))


class TestTier1Sweeps:
    """Small but complete sweeps: every primitive op crash point."""

    def test_queue_sweep_clean(self):
        summary = sweep("queue", seed=0, ops=10, scheme="uh_ls_diff", stride=7)
        assert summary["failures"] == []
        assert summary["crashes"] > 0

    def test_ycsb_setup_crash_points(self):
        """Crashing between CREATE TABLE and CREATE INDEX must recover
        to a legitimate partial-setup state."""
        base = make_scenario(0, 6, "uh_ls_diff", workload="ycsb-a")
        profile = profile_scenario(base)
        setup_end = profile.bounds[2]  # after CREATE INDEX
        matched = set()
        for k in range(1, setup_end + 1, 3):
            outcome = run_scenario(replace(base, crash_point=k), profile)
            assert outcome.violations == (), (k, outcome.violations)
            matched.add(outcome.matched_boundary)
        assert {0, 1} <= matched  # both partial-setup states were reached

    def test_checksum_scheme_shed_is_tolerated(self):
        summary = sweep("queue", seed=1, ops=8, scheme="uh_cs_diff", stride=9)
        assert summary["failures"] == []


class TestMergedDriverCoverage:
    """Combinations only the merged driver reaches: the suite workloads
    under the planted bug, group epochs, fault plans and crashes inside
    recovery."""

    def test_planted_bug_is_named_by_the_queue_oracle(self):
        summary = sweep(
            "queue", seed=0, ops=10, scheme="uh_ls_diff", stride=24, sabotage="unflushed-mark"
        )
        assert summary["failures"], "sabotage went undetected"
        first = summary["failures"][0]
        assert harness.failure_classes(first["violations"]) == {"queue"}
        assert "lost message" in first["violations"][0]

        scenario = scenario_from_dict(first["scenario"])
        small = harness.minimize(scenario, HARNESS.run, HARNESS.passes)
        violations, deterministic = harness.replay_twice(HARNESS.run, small)
        assert deterministic
        assert harness.failure_classes(violations) == {"queue"}
        assert sum(map(len, small.txns)) < sum(map(len, scenario.txns))

    @pytest.mark.parametrize(
        "scheme, stride", [("uh_ls_diff", 7), ("uh_cs_diff", 2)]
    )
    def test_indexed_workload_under_group_epochs(self, scheme, stride):
        # Two setup boundaries ahead of the first epoch.
        summary = sweep(
            "ycsb-a", seed=0, ops=8, scheme=scheme, stride=stride, group_epoch=3
        )
        assert summary["failures"] == []
        assert summary["crashes"] > 0

    def test_open_epoch_is_lost_whole_after_two_setup_boundaries(self):
        group = 3
        base = make_scenario(0, 8, "ls", group_epoch=group, workload="ycsb-a")
        profile = profile_scenario(base)
        # ycsb-a: boundaries 1, 2 are setup; the first epoch closes at 5.
        inside = profile.bounds[4]
        outcome = run_scenario(replace(base, crash_point=inside), profile)
        assert outcome.violations == ()
        assert outcome.matched_boundary == 2
        closed = run_scenario(
            replace(base, crash_point=profile.bounds[5] + 1), profile
        )
        assert closed.violations == ()
        assert closed.matched_boundary == 5

    def test_indexed_workload_under_media_faults(self):
        summary = sweep(
            "ycsb-a", seed=0, ops=8, scheme="uh_ls_diff", stride=9,
            faults=("media", "power"),
        )
        assert summary["failures"] == []
        assert summary["crashes"] > 0

    def test_timeseries_crash_inside_recovery(self):
        summary = sweep(
            "timeseries", seed=0, ops=16, scheme="uh_ls_diff", stride=7,
            recovery_points=2, checkpoint_threshold=8,
        )
        assert summary["failures"] == []
        assert summary["recovery_runs"] > 0


@pytest.mark.workloads
class TestDeepSweeps:
    """Full crash matrices — deselected from tier-1 by the addopts
    marker filter; the ``workloads`` leg of CI's harness-smoke job and
    `pytest -m workloads` run them."""

    @pytest.mark.parametrize("scheme", ["eager", "uh_ls_diff", "uh_cs_diff"])
    def test_queue_every_crash_point(self, scheme):
        summary = sweep("queue", seed=0, ops=18, scheme=scheme)
        assert summary["failures"] == []
        assert summary["runs"] == summary["total_ops"] + 1

    @pytest.mark.parametrize(
        "workload", ["ycsb-a", "ycsb-f", "timeseries"]
    )
    def test_indexed_workloads_stride_sweep(self, workload):
        summary = sweep(workload, seed=1, ops=24, scheme="uh_ls_diff", stride=3)
        assert summary["failures"] == []
        assert summary["checkpoints"] >= 1
