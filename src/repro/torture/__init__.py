"""Crash-consistency torture harness (``python -m repro.torture``).

Sweeps every crash point of a seeded workload — the insert/update/delete
mix by default, any :mod:`repro.workloads` family by name — including
crashes inside recovery and checkpointing, layers media/IO fault plans on
top, checks recovery invariants (committed-prefix durability, atomicity,
structural integrity, heap tri-state consistency, no leaked log blocks,
recovery idempotence), and records failing scenarios as replayable,
auto-minimized JSON traces.
"""

from repro.torture.driver import (
    Profile,
    SabotagedNvwalBackend,
    ScenarioOutcome,
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

__all__ = [
    "Profile",
    "SabotagedNvwalBackend",
    "ScenarioOutcome",
    "SeedTask",
    "TortureScenario",
    "build_fault_plan",
    "make_scenario",
    "profile_scenario",
    "run_scenario",
    "run_seed",
    "scenario_from_dict",
    "scenario_to_dict",
]
