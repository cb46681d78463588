"""The harness kernel, driven by a toy harness — and the real CLIs pinned
to the digests they printed before they moved onto it."""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, replace
from functools import partial, reduce
from operator import getitem

import pytest

from repro import harness


@dataclass(frozen=True)
class Toy:
    """Fails with ``pair`` when 3 and 7 are both present (in ``items`` or
    anywhere in ``streams``), with ``big`` when ``items`` is long."""

    seed: int = 0
    items: tuple = ()
    streams: tuple = ()
    noise: bool = True


def toy_run(scenario: Toy) -> list[str]:
    present = set(scenario.items) | {
        op for stream in scenario.streams for txn in stream for op in txn
    }
    violations = []
    if {3, 7} <= present:
        violations.append("pair: 3 and 7 are both present")
    if len(scenario.items) > 20:
        violations.append(f"big @ {len(scenario.items)} items: too long")
    return violations


toy_from_json = partial(harness.from_json, Toy)


@dataclass(frozen=True)
class ToyTask:
    seed: int
    size: int = 5


def toy_task(task: ToyTask) -> dict:
    seed = task.seed
    scenario = Toy(seed=seed, items=tuple(range(seed, seed + task.size)))
    return {
        "seed": seed,
        "scenario": harness.to_json(scenario),
        "violations": toy_run(scenario),
    }


class ToyHarness(harness.Harness):
    prog = "toy"
    description = "toy harness"
    trace_dir = "toy-traces"
    seeds = 3
    sabotage = {"nothing": "plant nothing"}
    task_type = ToyTask
    run_task = staticmethod(toy_task)
    run = staticmethod(toy_run)
    from_json = staticmethod(toy_from_json)
    passes = (
        harness.structural(lambda s: [replace(s, noise=False)]),
        harness.field_lens("items"),
    )

    def add_arguments(self, parser) -> None:
        parser.add_argument("--size", type=int, default=5)

    def tasks(self, args) -> list:
        if args.size < 0:
            raise ValueError("--size must not be negative")
        return super().tasks(args)

    def format_result(self, result: dict) -> str:
        return f"seed {result['seed']}: {len(result['violations'])} violation(s)"


TOY = ToyHarness()


class TestCodec:
    def test_scenario_round_trips_and_tolerates_field_drift(self):
        scenario = Toy(seed=3, items=(1, 2), streams=(((3, 7),), ()), noise=False)
        wire = json.loads(json.dumps(harness.to_json(scenario)))
        assert wire["streams"] == [[[3, 7]], []]
        assert toy_from_json(wire) == scenario
        # a removed field is ignored, an added one takes its default
        del wire["noise"]
        wire["retired"] = 1
        assert toy_from_json(wire) == replace(scenario, noise=True)


class TestMinimize:
    def test_failure_class_is_the_leading_code_word(self):
        assert harness.failure_classes(
            ["ack-lost: gone", "result @ stmt 3 [nvwal]: rows differ", "state:x"]
        ) == {"ack-lost", "result", "state"}

    def test_structural_candidates_are_tried_in_declared_order(self):
        tried = []

        def run(scenario):
            tried.append(scenario.items)
            return toy_run(scenario)

        def candidates(scenario):
            yield replace(scenario, items=(3,))  # passes: refused
            yield replace(scenario, items=(3, 7))  # first hit wins
            yield replace(scenario, items=(7, 3))  # never reached

        start = Toy(items=(1, 3, 5, 7))
        small = harness.minimize(start, run, [harness.structural(candidates)])
        assert small.items == (3, 7)
        assert tried == [(1, 3, 5, 7), (3,), (3, 7)]

    def test_class_drifting_candidate_is_refused(self):
        start = Toy(items=(3, 7))
        drift = harness.structural(
            lambda s: [replace(s, items=tuple(range(100, 130)))]  # only "big"
        )
        assert harness.minimize(start, toy_run, [drift]) == start

    def test_a_pass_sees_what_the_unshrunk_scenario_reported(self):
        seen = []

        def spy(scenario, still_fails, violations):
            seen.append((scenario.items, violations))
            return scenario

        start = Toy(items=tuple(range(12)))
        harness.minimize(start, toy_run, [harness.field_lens("items"), spy])
        assert seen == [((3, 7), ["pair: 3 and 7 are both present"])]

    def test_lens_and_passes_compose_in_order(self):
        start = Toy(items=tuple(range(12)))
        small = harness.minimize(start, toy_run, TOY.passes)
        assert small == Toy(items=(3, 7), noise=False)

    def test_nested_lens_reaches_a_one_minimal_result(self):
        streams = (
            ((1, 2, 3), (4,)),
            ((5,), (7, 6)),
            ((8, 9),),
        )
        lens = harness.nested_lens("streams", (1, 0, 1))
        small = harness.minimize(Toy(streams=streams), toy_run, [lens])
        assert small.streams == (((3,),), ((7,),))
        # 1-minimal: dropping any one remaining session fixes the failure.
        for i in range(len(small.streams)):
            rest = small.streams[:i] + small.streams[i + 1 :]
            assert not toy_run(replace(small, streams=rest))

    def test_nested_lens_prunes_sessions_left_empty(self):
        # Failing needs an odd session count: no single session can go,
        # but once two are emptied txn by txn both can be pruned together.
        def run(scenario):
            return toy_run(scenario) if len(scenario.streams) % 2 else []

        streams = (((1,),), ((2,),), ((3, 7),))
        lens = harness.nested_lens("streams", (1, 0, 1))
        small = harness.minimize(Toy(streams=streams), run, [lens])
        assert small.streams == (((3, 7),),)


def _passing_torture():
    from repro.torture import make_scenario
    from repro.torture.__main__ import HARNESS

    return HARNESS, make_scenario(seed=1, ops=2, scheme="eager")


def _passing_service():
    from repro.service.chaos import make_scenario
    from repro.service.cli import HARNESS

    return HARNESS, make_scenario(0, sessions=1, txns=2)


def _passing_replication():
    from repro.replication.chaos import make_scenario
    from repro.replication.cli import HARNESS

    return HARNESS, make_scenario(0, sessions=2, txns=4)


@pytest.mark.parametrize(
    "passing",
    [_passing_torture, _passing_service, _passing_replication],
    ids=["torture", "service", "replication"],
)
def test_minimize_rejects_a_passing_scenario(passing):
    """One behaviour for every harness (the fourth, difftest, is pinned by
    ``tests/difftest/test_reduce.py::test_requires_a_failing_stream``)."""
    spec, scenario = passing()
    assert list(spec.run(scenario)) == []
    with pytest.raises(ValueError):
        harness.minimize(scenario, spec.run, spec.passes)


def test_difftest_sabotage_repro_is_a_kernel_document_of_at_most_five_statements(
    tmp_path, capsys
):
    """The difftest self-test's own bound holds on the kernel's documents,
    and ``--no-minimize`` cannot skip it."""
    from repro.difftest.__main__ import HARNESS, DiffTask, main, run_diff_seed

    sweep = ["--seeds", "4", "--stmts", "60", "--sabotage", "--no-minimize"]
    assert main([*sweep, "--trace-dir", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["minimized-3.json"]
    document = json.loads((tmp_path / "minimized-3.json").read_text())
    assert set(document) == {"scenario", "violations"}
    scenario = document["scenario"]
    assert (scenario["seed"], scenario["sabotage"]) == (3, "drop-residual-where")
    assert 1 <= len(scenario["stmts"]) <= 5
    assert main(["--replay", str(tmp_path / "minimized-3.json")]) == 1
    assert document["violations"][0] in capsys.readouterr().out

    # A raw failure document is the whole generated stream and its run.
    task = DiffTask(3, 60, 3, 1000, 8, "drop-residual-where")
    result = run_diff_seed(task)
    [raw] = HARNESS.failures(task, result)
    stream = HARNESS.load(json.loads(json.dumps(raw)))
    assert stream == task.stream()
    assert len(stream.stmts) == result["statements"]
    assert harness.failure_classes(raw["violations"]) == {"result"}
    assert HARNESS.run(stream) == raw["violations"]


#: Flags a replay command might carry; none may change what it replays.
REPLAY_FLAGS = [
    [],
    ["--sabotage"],
    ["--checkpoint-threshold", "1", "--integrity-every", "1"],
    ["--sabotage", "drop-residual-where", "--checkpoint-threshold", "1000"],
]


@pytest.mark.parametrize("sabotage, status", [("", 0), ("drop-residual-where", 1)])
def test_difftest_replay_takes_nothing_from_the_command_line(
    sabotage, status, tmp_path, capsys
):
    """A repro records the run it reproduces: a stream the planted bug
    trips replays clean without it and failing with it, whatever the
    replay command passes."""
    from repro.difftest.__main__ import main
    from repro.difftest.grammar import Stmt
    from repro.difftest.runner import Stream

    stream = Stream(
        seed=0,
        stmts=(
            Stmt("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)", kind="ddl"),
            Stmt("INSERT INTO t VALUES (1, 7), (2, 9)", kind="write"),
            Stmt("SELECT * FROM t WHERE k >= 1 AND v = 9", kind="select"),
        ),
        sabotage=sabotage,
        checkpoint_threshold=2,
        integrity_every=3,
    )
    trace = harness.write_trace(
        str(tmp_path), "t.json", {"scenario": harness.to_json(stream)}
    )
    outputs = set()
    for flags in REPLAY_FLAGS:
        assert main([*flags, "--replay", trace]) == status, flags
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def _digest_line(out: str) -> str:
    return re.search(r"^result digest: sha256:([0-9a-f]{64})$", out, re.M).group(1)


class TestMain:
    def test_clean_sweep_exits_zero_and_writes_nothing(self, tmp_path, capsys):
        rc = harness.main(TOY, ["--size", "5", "--trace-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 violating scenario(s)" in out
        assert list(tmp_path.iterdir()) == []

    def test_failing_sweep_exits_one_with_raw_and_minimized_traces(
        self, tmp_path, capsys
    ):
        rc = harness.main(TOY, ["--size", "8", "--trace-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        # seeds 0..2 hold 3 and 7; every one is a raw trace, the first is
        # minimized to the pair.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "minimized-0.json",
            "trace-0-0.json",
            "trace-1-1.json",
            "trace-2-2.json",
        ]
        trace = json.loads((tmp_path / "minimized-0.json").read_text())
        assert trace["scenario"]["items"] == [3, 7]
        assert trace["violations"] == ["pair: 3 and 7 are both present"]
        assert "minimized trace replays deterministically" in out
        rc = harness.main(TOY, ["--replay", str(tmp_path / "minimized-0.json")])
        assert rc == 1
        assert "deterministic across replays" in capsys.readouterr().out

    def test_no_minimize_writes_raw_traces_only(self, tmp_path):
        args = ["--size", "8", "--no-minimize", "--trace-dir", str(tmp_path)]
        assert harness.main(TOY, args) == 1
        assert not (tmp_path / "minimized-0.json").exists()
        assert (tmp_path / "trace-0-0.json").exists()

    def test_sabotage_verdict(self, tmp_path, capsys):
        base = ["--sabotage", "--trace-dir", str(tmp_path)]
        assert harness.main(TOY, [*base, "--size", "5"]) == 1
        assert "went undetected" in capsys.readouterr().out
        assert harness.main(TOY, [*base, "--size", "8"]) == 0
        assert (tmp_path / "minimized-0.json").exists()
        # The self-test is the minimized replay: --no-minimize cannot skip it.
        (tmp_path / "minimized-0.json").unlink()
        assert harness.main(TOY, [*base, "--size", "8", "--no-minimize"]) == 0
        assert (tmp_path / "minimized-0.json").exists()
        assert not (tmp_path / "trace-0-0.json").exists()

    def test_senseless_flags_exit_two(self, capsys):
        assert harness.main(TOY, ["--size", "-1"]) == 2
        assert "--size must not be negative" in capsys.readouterr().out

    def test_replay_flags_a_non_deterministic_run(self, tmp_path, capsys):
        class Flaky(ToyHarness):
            calls = itertools.count()

            def run(self, scenario):
                return [f"flaky: call {next(self.calls)}"]

        path = harness.write_trace(
            str(tmp_path), "t.json", {"scenario": harness.to_json(Toy(items=(1,)))}
        )
        assert harness.main(Flaky(), ["--replay", path]) == 1
        assert "NOT deterministic" in capsys.readouterr().out
        # ... and a passing trace replays to exit status 0.
        assert harness.main(TOY, ["--replay", path]) == 0

    def test_digest_is_invariant_under_jobs(self, tmp_path, capsys):
        sweep = ["--seeds", "4", "--size", "9", "--no-minimize"]
        sweep += ["--trace-dir", str(tmp_path)]
        harness.main(TOY, sweep)
        serial = _digest_line(capsys.readouterr().out)
        harness.main(TOY, [*sweep, "--jobs", "2"])
        assert _digest_line(capsys.readouterr().out) == serial
        assert serial == harness.digest(
            [toy_task(ToyTask(seed, 9)) for seed in range(4)]
        )


@pytest.mark.parametrize(
    "module, argv",
    [
        ("repro.service.cli", ["--sessions", "0"]),
        ("repro.replication.cli", ["--sessions", "0"]),
        # unrecoverable by construction: nothing to fail over to
        ("repro.replication.cli", ["--followers", "0", "--writer-kill"]),
    ],
)
def test_senseless_cli_flags_exit_two(module, argv, tmp_path, capsys):
    """Status 2 and a message — not a traceback, not a recorded finding."""
    import importlib

    main = importlib.import_module(module).main
    assert main([*argv, "--seeds", "1", "--trace-dir", str(tmp_path)]) == 2
    assert "--" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_no_planted_bug_in_product_modules():
    """A planted bug is a subclass beside its driver (``service/chaos.py``,
    ``replication/chaos.py``); these modules must not grow the switches back."""
    from pathlib import Path

    import repro

    for module in (
        "service/server.py",
        "replication/ship.py",
        "replication/node.py",
        "replication/cluster.py",
        "archive/store.py",
    ):
        text = (Path(repro.__file__).parent / module).read_text()
        for word in ("sabotage", "lenient", "ack_before_commit", "limit_override"):
            assert word not in text, f"{word!r} is back in src/repro/{module}"


#: Small-scale sweeps of every CLI and the digest each printed at commit
#: 101c559, before the CLIs moved onto the kernel.  Replication's moved
#: with the deletion of ``scenario.archive`` and
#: ``archive.reseeds_from_snapshot`` from its results (parent: 7e104536…).
#: The two torture pins moved when the workload sweep became the torture
#: sweep and every record got both ``workload`` and ``recovery_runs``
#: (parents: 7597cf0e…cab28 and bbabcbe1…97758); service chaos's when
#: planted bugs got names and its ``deadline_misses`` counter stopped
#: undercounting (parent: 51f59346…c4b), and again when NVWAL recovery
#: stopped reading base pages it overwrites: shorter recoveries move one
#: record's ``telemetry.digest`` (parent: a053a6f8…a9c).  ``MOVED`` proves
#: nothing else did.  Service chaos's and replication's moved once more
#: when never-set scenario values became constants; each is the parent's
#: (22c2da52…0a7, 0f238c83…bef) digest over its records with exactly the
#: removed keys dropped: ``scenario.storm_interval_ns``; and seven
#: ``scenario`` keys plus three of ``scenario.plan.ship``.  Torture's moved
#: again when NVWAL recovery began to checkpoint after a chain walk cut
#: short by corruption: one recovery of seed 1 (``ls``) now runs a
#: checkpoint, so its recovery-crash sweep crashes at 14 more points
#: (parent: 705a4c25…b167).
CLI_DIGESTS = {
    "torture": (
        "repro.torture.__main__",
        ["--seeds", "2", "--ops", "20", "--jobs", "2"],
        "27bf30033f8df12e0f781d46abcdd79c51794839c346d03e961f9ceabedbbd99",
    ),
    "service-chaos": (
        "repro.service.cli",
        ["--seeds", "2", "--sessions", "3", "--txns", "12"],
        "bf042b88df00669e6b5e4444b38dd992176ab800d88ad8044eee5f9859d6f034",
    ),
    "replication": (
        "repro.replication.cli",
        ["--seeds", "2", "--sessions", "3", "--txns", "12", "--writer-kill"],
        "06626cb699f86e7b98ae83ead4c89746a4b2b921213e9c35ddff6b005585b12e",
    ),
    "workloads-run": (
        "repro.workloads.__main__",
        ["run", "--seeds", "1", "--ops", "30"],
        "a4f1b3fd933290456e8ba1f2e4cf903e45f01874acd5f7dce5ae8b12fa285bba",
    ),
    "workloads-torture": (
        "repro.torture.__main__",
        ["--workload", "queue", "--seeds", "1", "--ops", "12",
         "--recovery-points", "0"],
        "0118994c6fd4495ced8396db6e3519d67890aa2c5ee137e8ada17b2877f23b6b",
    ),
    "difftest": (
        "repro.difftest.__main__",
        ["--seeds", "2", "--stmts", "40"],
        "c7e6aa9b4eca687614b85151193f2bae35058b5cd9c69982fcdb16f1741cc079",
    ),
}


#: What moved in each moved pin's records — key paths — and the digest
#: of the parent's records without them.  The two torture pins' records
#: gained one key each; the digest is what the same sweep printed at
#: 689c061 (``workloads-torture`` as ``python -m repro.workloads torture
#: --workload queue --seeds 1 --ops 12``, on the driver deleted since).
#: Torture's three run counters moved with the checkpoint after a cut
#: chain walk; its digest is the parent's (afc1954) records without them
#: and without ``workload``, and those records without ``workload`` alone
#: digested to 689c061's 7597cf0e…cab28.
#: Service chaos's ``scenario.sabotage`` went from ``false`` to ``""``,
#: and two telemetry counters (with the export digest over them) now
#: count what ``stats`` always did; the digest is e6b34e0's records
#: with those four dropped, and with ``scenario.storm_interval_ns``,
#: which the current records no longer carry.
MOVED = {
    "torture": (
        [("workload",), ("crashes",), ("runs",), ("recovery_runs",)],
        "ad6d81811f1701eb3ad3d0d40f4a79db5c71155ae1a90e8b5bb0380caa689377",
    ),
    "workloads-torture": (
        [("recovery_runs",)],
        "bbabcbe1830c890d1f33a8711156f0a1751f8aa879110dda79c0971ada997758",
    ),
    "service-chaos": (
        [
            ("scenario", "sabotage"),
            ("telemetry", "digest"),
            ("telemetry", "counters", "service.deadline_misses"),
            ("telemetry", "counters", "service.media_failures"),
        ],
        "5309a33e130d9f4232f117fe568f81fd96ab13d44467170af739396094cb4ddc",
    ),
}


@pytest.mark.parametrize("name", list(CLI_DIGESTS))
def test_cli_digest_is_pinned(name, capsys, monkeypatch):
    import importlib

    digest, digested = harness.digest, []
    monkeypatch.setattr(
        harness, "digest", lambda results: digested.append(results) or digest(results)
    )
    module, argv, expected = CLI_DIGESTS[name]
    assert importlib.import_module(module).main(argv) == 0
    assert _digest_line(capsys.readouterr().out) == expected
    if name in MOVED:
        paths, parent = MOVED[name]
        [records] = digested
        for record, (*keys, last) in itertools.product(records, paths):
            assert reduce(getitem, keys, record).pop(last) is not None
        assert digest(records) == parent


#: One committed trace per harness (CI replays the same files): module,
#: argv prefix, path under tests/, and the exit status a replay must
#: have — 1 for the recorded sabotage failures, 0 for passing scenarios.
COMMITTED_TRACES = {
    "torture": ("repro.torture.__main__", [], "torture/traces/unflushed_commit_mark.json", 1),
    "service-chaos": ("repro.service.cli", [], "service/traces/group_commit_ack_early.json", 1),
    "replication": ("repro.replication.cli", [], "replication/traces/premature_gc.json", 1),
    "workloads-torture": (
        "repro.torture.__main__", [], "workloads/traces/queue_crash_point_400.json", 0,
    ),
    "workloads-sabotage": (
        "repro.torture.__main__", [], "workloads/traces/queue_unflushed_commit_mark.json", 1,
    ),
    "difftest": ("repro.difftest.__main__", [], "difftest/corpus/order-by-nulls-first.json", 0),
}


@pytest.mark.parametrize("name", list(COMMITTED_TRACES))
def test_committed_trace_replays(name, capsys):
    import importlib
    from pathlib import Path

    module, prefix, path, status = COMMITTED_TRACES[name]
    trace = Path(__file__).parent / path
    main = importlib.import_module(module).main
    assert main([*prefix, "--replay", str(trace)]) == status
    out = capsys.readouterr().out
    assert "NOT deterministic" not in out
    recorded = json.loads(trace.read_text()).get("violations", [])
    for violation in recorded:
        assert violation in out


@pytest.mark.parametrize("name", list(COMMITTED_TRACES))
@pytest.mark.parametrize("value", [True, False, "no-such-bug"])
def test_a_trace_naming_no_planted_bug_of_its_harness_is_refused(
    name, value, tmp_path, capsys
):
    """``sabotage`` is a name from the harness's registry or ""; anything
    else — the bools of the retired switch included — is refused by
    field name, not replayed as some other run."""
    import importlib
    from pathlib import Path

    module, prefix, path, _status = COMMITTED_TRACES[name]
    document = json.loads((Path(__file__).parent / path).read_text())
    document["scenario"]["sabotage"] = value
    trace = harness.write_trace(str(tmp_path), "t.json", document)
    main = importlib.import_module(module).main
    assert main([*prefix, "--replay", trace]) == 2
    assert "trace field 'sabotage'" in capsys.readouterr().out


#: Every harness CLI with its registry, and the smallest sweep that
#: catches each planted bug in it (seed, sessions, statements).
HARNESS_CLIS = {
    "torture": "repro.torture.__main__",
    "service-chaos": "repro.service.cli",
    "replication": "repro.replication.cli",
    "difftest": "repro.difftest.__main__",
}
SELF_TEST_SIZES = {
    ("torture", "unflushed-mark"): [
        "--seeds", "2", "--ops", "2", "--scheme", "uh_ls_diff", "--stride", "24",
        "--recovery-points", "0",
    ],
    ("service-chaos", "ack-early"): [
        "--seeds", "3", "--sessions", "3", "--txns", "12", "--power-cycles", "1",
    ],
    ("replication", "torn"): [
        "--seeds", "1", "--sessions", "2", "--txns", "10", "--scheme", "uh_ls_diff",
        "--mode", "semisync",
    ],
    ("replication", "gc"): [
        "--seeds", "1", "--sessions", "2", "--txns", "14", "--scheme", "uh_ls_diff",
        "--mode", "semisync", "--writer-kill",
    ],
    ("difftest", "drop-residual-where"): ["--seeds", "4", "--stmts", "60"],
}


def _planted_bugs():
    import importlib

    return [
        (name, bug)
        for name, module in HARNESS_CLIS.items()
        for bug in importlib.import_module(module).HARNESS.sabotage
    ]


@pytest.mark.parametrize("name, bug", _planted_bugs())
def test_every_planted_bug_is_caught_minimized_and_replayed(
    name, bug, tmp_path, capsys
):
    """The diagonal of the kill matrix: each harness's self-test, by
    name, over the registries themselves."""
    import importlib

    main = importlib.import_module(HARNESS_CLIS[name]).main
    argv = [*SELF_TEST_SIZES[name, bug], "--sabotage", bug]
    assert main([*argv, "--trace-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "minimized trace replays deterministically" in out
    [trace] = tmp_path.glob("minimized-*.json")
    assert json.loads(trace.read_text())["scenario"]["sabotage"] == bug
    assert main(["--replay", str(trace)]) == 1
    assert "deterministic across replays" in capsys.readouterr().out
