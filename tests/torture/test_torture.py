"""Smoke tests for the torture harness itself.

The harness is trustworthy only if a clean stack sweeps clean, a planted
bug is caught and survives minimization, and every scenario replays
bit-identically — these tests pin all three properties at a size small
enough for the regular suite.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import harness
from repro.torture import (
    SeedTask,
    TortureScenario,
    build_fault_plan,
    make_scenario,
    profile_scenario,
    run_scenario,
    run_seed,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.torture.__main__ import HARNESS, main
from repro.torture.driver import _close_boundaries
from repro.workloads.core import model_states
from repro.workloads.mobi import MobiWorkload, generate_txns


def minimize(scenario):
    return harness.minimize(scenario, HARNESS.run, HARNESS.passes)


def violation_codes(outcome):
    return harness.failure_classes(outcome.violations)

# Sized to run in tier-1; the marker lets `pytest -m torture` select the
# crash-consistency tests on their own.
pytestmark = pytest.mark.torture


class TestWorkload:
    def test_generated_workload_is_deterministic(self):
        assert generate_txns(7, 12) == generate_txns(7, 12)
        assert sum(len(t) for t in generate_txns(7, 12)) == 12

    def test_model_states_has_one_state_per_boundary(self):
        txns = generate_txns(3, 6)
        states = model_states(MobiWorkload(), txns)
        assert states[0] == ("setup", 0)  # before the DDL: no table
        assert states[1] == ("rows", ())  # after the DDL: empty table
        assert len(states) == len(txns) + 2


class TestModelClosedUnderDeletion:
    """The minimizer deletes ops, so the model and the driver must stay
    right on any subset of a generated script."""

    def test_update_of_a_missing_key_is_a_no_op(self):
        # nested_lens can drop an insert ahead of its update; SQL then
        # updates nothing, and so must the model.
        scenario = TortureScenario(
            seed=0, scheme="uh_ls_diff", txns=((("update", 3, "x"),),)
        )
        assert run_scenario(scenario).violations == ()

    def test_a_script_the_engine_refuses_is_an_error_finding(self):
        # What is left when the delete between two inserts of a reused
        # key is dropped: the profile run itself raises DuplicateKey.
        scenario = TortureScenario(
            seed=0,
            scheme="uh_ls_diff",
            txns=((("insert", 3, "a"),), (("insert", 3, "b"),)),
        )
        assert violation_codes(run_scenario(scenario)) == {"error"}

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 7),
        keep=st.lists(st.booleans(), min_size=12, max_size=12),
        crash_point=st.integers(0, 400),
    )
    def test_no_subset_of_a_generated_script_is_a_state_finding(
        self, seed, keep, crash_point
    ):
        kept = iter(keep)
        txns = tuple(
            tuple(op for op in txn if next(kept)) for txn in generate_txns(seed, 12)
        )
        scenario = TortureScenario(
            seed=seed,
            scheme="uh_ls_diff",
            txns=tuple(txn for txn in txns if txn),
            crash_point=crash_point,
        )
        assert violation_codes(run_scenario(scenario)) <= {"error"}


class TestScenarioSerialization:
    def test_roundtrips_through_json(self):
        scenario = make_scenario(
            seed=5, ops=6, scheme="ls", faults=("media", "power", "io"),
            group_epoch=4,
        )
        scenario = dataclasses.replace(
            scenario, crash_point=40, recovery_crash_point=2
        )
        wire = json.loads(json.dumps(scenario_to_dict(scenario)))
        assert scenario_from_dict(wire) == scenario

    def test_old_traces_default_to_per_txn_durability(self):
        wire = scenario_to_dict(make_scenario(seed=1, ops=2, scheme="eager"))
        del wire["group_epoch"]
        assert scenario_from_dict(wire).group_epoch == 0

    def test_power_only_plan_is_none(self):
        assert build_fault_plan(0, ("power",)) is None
        assert make_scenario(seed=0, ops=2, scheme="eager").plan is None

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            build_fault_plan(0, ("power", "gamma-rays"))


class TestCleanSweep:
    def test_tiny_sweep_is_clean_and_deterministic(self):
        """A correct stack survives a small all-faults sweep with zero
        violations, and the whole result dict is reproducible."""
        task = SeedTask(
            seed=0,
            ops=3,
            scheme="uh_ls_diff",
            faults=("media", "power"),
            stride=16,
            recovery_points=1,
        )
        first = run_seed(task)
        assert first["failures"] == []
        assert first["runs"] > 10
        assert run_seed(task) == first

    def test_clean_scenario_has_no_violations(self):
        scenario = make_scenario(seed=1, ops=4, scheme="eager")
        outcome = run_scenario(scenario)
        assert outcome.violations == ()
        assert not outcome.crashed


class TestGroupCommit:
    """Group-commit crash semantics: durability is quantized to epochs.

    A power failure inside an open epoch must lose the *whole* epoch —
    and nothing from any closed one — across the synchronous (E, LS) and
    asynchronous (CS) commit schemes.
    """

    @pytest.mark.parametrize("scheme", ["eager", "ls", "cs_diff"])
    def test_crash_inside_open_epoch_loses_whole_epoch(self, scheme):
        group = 3
        base = make_scenario(seed=2, ops=12, scheme=scheme, group_epoch=group)
        profile = profile_scenario(base)
        last = len(base.txns) + 1
        closes = set(_close_boundaries(group, last, 1))
        mids = [b for b in range(2, last) if b not in closes]
        assert mids, "workload too small to place a crash inside an epoch"
        for b in mids:
            # Crash right after the transaction at boundary ``b`` joined
            # the epoch: the epoch is still open, so no close mark exists
            # and recovery must drop back to a whole-epoch boundary.
            scenario = dataclasses.replace(base, crash_point=profile.bounds[b])
            outcome = run_scenario(scenario, profile)
            assert outcome.violations == ()
            assert outcome.crashed
            assert outcome.matched_boundary in closes
            assert outcome.matched_boundary < b  # the open epoch is gone

    def test_closed_epochs_survive_the_crash(self):
        """Crashing after a close completes must keep every transaction
        of that epoch (E/LS: exactly the closed prefix)."""
        group = 3
        base = make_scenario(seed=2, ops=12, scheme="ls", group_epoch=group)
        profile = profile_scenario(base)
        last = len(base.txns) + 1
        closes = [b for b in _close_boundaries(group, last, 1) if 0 < b < last]
        for b in closes:
            scenario = dataclasses.replace(
                base, crash_point=profile.bounds[b] + 1
            )
            outcome = run_scenario(scenario, profile)
            assert outcome.violations == ()
            assert outcome.matched_boundary >= b

    def test_group_sweep_is_clean_and_deterministic(self):
        task = SeedTask(
            seed=0,
            ops=6,
            scheme="uh_ls_diff",
            stride=12,
            recovery_points=1,
            group_epoch=2,
        )
        first = run_seed(task)
        assert first["failures"] == []
        assert first["crashes"] > 0
        assert run_seed(task) == first


class TestSabotage:
    def test_planted_bug_is_caught_minimized_and_replayable(self):
        """The sabotaged backend (commit mark never flushed) must produce
        a durability violation; minimization must keep the violation class
        and the shrunk scenario must replay identically."""
        # seed 1 exposes the lost commit mark on the always-swept
        # crash_point=0 run (the mark's cache line loses the landing
        # lottery at the final power cut)
        task = SeedTask(
            seed=1,
            ops=2,
            scheme="uh_ls_diff",
            stride=24,
            recovery_points=0,
            sabotage="unflushed-mark",
        )
        result = run_seed(task)
        assert result["failures"], "sabotage went undetected"

        scenario = scenario_from_dict(result["failures"][0]["scenario"])
        codes = violation_codes(run_scenario(scenario))
        small = minimize(scenario)
        first = run_scenario(small)
        assert violation_codes(first) & codes
        assert first.violations == run_scenario(small).violations
        # the minimized workload is no larger than the original
        assert sum(len(t) for t in small.txns) <= sum(
            len(t) for t in scenario.txns
        )


class TestCli:
    def test_clean_cli_run_exits_zero(self, tmp_path, capsys):
        rc = main(
            [
                "--seeds", "1",
                "--ops", "2",
                "--stride", "24",
                "--recovery-points", "0",
                "--trace-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 violating scenario(s)" in out
        assert "result digest: sha256:" in out

    def test_sabotage_cli_writes_replayable_trace(self, tmp_path, capsys):
        rc = main(
            [
                "--seeds", "2",
                "--ops", "2",
                "--scheme", "uh_ls_diff",
                "--stride", "24",
                "--recovery-points", "0",
                "--sabotage",
                "--trace-dir", str(tmp_path),
            ]
        )
        assert rc == 0, capsys.readouterr().out
        trace = os.path.join(str(tmp_path), "minimized-1.json")
        assert os.path.exists(trace)
        rc = main(["--replay", trace])
        out = capsys.readouterr().out
        assert rc == 1  # the trace still fails, deterministically
        assert "deterministic across replays" in out
