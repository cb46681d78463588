"""The command ``BENCHMARK.json`` names, and ``--compare``."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

from nvbench import compare, spec

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "nvbench" / "run.py"


def run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "nvbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, check=False)


def result_line(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_trace_0_prints_every_end_to_end_metric():
    out = result_line(run_cli("--workload", "flash-wal", "--seed", "3",
                              "--seconds", "0.1", "--trace", "0", "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m.name for m in spec.END_TO_END]
    for metric in spec.END_TO_END:
        assert out["metrics"][metric.name]["unit"] == metric.unit
        assert out["metrics"][metric.name]["value"] > 0


def test_trace_1_prints_every_per_layer_metric_and_writes_the_trace():
    out = result_line(run_cli("--workload", "serve-repl", "--seed", "3",
                              "--seconds", "0.1", "--trace", "1", "--smoke"))
    assert out["correct"] is True
    assert list(out["metrics"]) == [m.name for m in spec.PER_LAYER]
    values = {name: m["value"] for name, m in out["metrics"].items()}
    for layer in ("service", "replication", "archive"):
        assert values[f"{layer}.host_self_us_per_op"] > 0
    assert values["replication.segment_bytes_per_txn"] > 0
    trace = json.loads((ROOT / "nvbench" / "out" / "trace-serve-repl.json").read_text())
    assert {"name", "start_ns", "end_ns", "parent", "op"} <= set(trace["spans"][0])
    ops = {span["op"] for span in trace["spans"]}
    assert ops >= set(range(20)) and -1 in ops  # requests from 0, and daemon work


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "nvbench", tmp_path / "nvbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_cli("--workload", "mobi-lazy", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def fake_results(host_ops=(1000.0, 1010.0, 990.0), sim=2000.0, failed=0.0) -> dict:
    """A results document whose host_ops_per_s, with each round left out
    in turn, reads ``host_ops``."""

    def workload():
        end_to_end = {m.name: sim for m in spec.END_TO_END}
        end_to_end["host_ops_per_s"] = sorted(host_ops)[1]
        return {
            "end_to_end": end_to_end,
            spec.FAILED_OP_SHARE: failed,
            "resampled": {"host_ops_per_s": list(host_ops),
                          "host_recovery_ms": [sim] * 3,
                          "host_peak_rss_mb": [sim] * 3, "setup_s": [sim] * 3},
            "rounds": [{"counts": {"wal.checkpoints": 10}}],
        }

    return {"provenance": {"comparable": True, "seed": 1, "scale": 0.5,
                           "git_rev": "abc", "git_dirty": False},
            "workloads": {name: workload() for name in spec.WORKLOADS}}


def verdicts(a, b, metric):
    rows, regressions, unresolved = compare.compare(a, b)
    return [row[4] for row in rows if row[1] == metric], regressions, unresolved


def test_compare_accepts_identical_runs():
    rows, regressions, unresolved = compare.compare(fake_results(), fake_results())
    assert regressions == 0 and unresolved == 0
    assert {row[4] for row in rows} == {compare.OK}


def test_compare_holds_sim_exact_and_host_to_its_bound():
    base = fake_results()
    moved = fake_results(sim=2000.0001)
    assert verdicts(base, moved, "sim_ops_per_s")[0] == [compare.REGRESSION] * 5
    slower = fake_results(host_ops=(700.0, 707.0, 693.0))
    assert verdicts(base, slower, "host_ops_per_s")[0] == [compare.REGRESSION] * 5
    slightly = fake_results(host_ops=(950.0, 960.0, 940.0))
    assert verdicts(base, slightly, "host_ops_per_s")[0] == [compare.OK] * 5
    failing = fake_results(failed=0.001)
    assert verdicts(base, failing, spec.FAILED_OP_SHARE)[0] == [compare.REGRESSION] * 5
    counted = copy.deepcopy(base)
    counted["workloads"]["kv-read"]["rounds"][0]["counts"]["wal.checkpoints"] = 11
    assert verdicts(base, counted, "exact counts")[1] == 1


def test_compare_marks_a_wide_spread_unresolved_unless_every_round_is_better():
    base = fake_results()
    noisy = fake_results(host_ops=(700.0, 1000.0, 1300.0))
    assert verdicts(base, noisy, "host_ops_per_s")[0] == [compare.UNRESOLVED] * 5
    faster = fake_results(host_ops=(1500.0, 2000.0, 2600.0))
    assert verdicts(base, faster, "host_ops_per_s")[0] == [compare.BETTER] * 5


def test_compare_refuses_smoke_results(tmp_path):
    smoke = fake_results()
    smoke["provenance"]["comparable"] = False
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(fake_results()))
    b.write_text(json.dumps(smoke))
    done = run_cli("--compare", str(a), str(b))
    assert done.returncode == 2 and "not comparable" in done.stderr
    b.write_text(json.dumps(fake_results(host_ops=(700.0, 707.0, 693.0))))
    done = run_cli("--compare", str(a), str(b))
    assert done.returncode == 1 and "REGRESSION" in done.stdout
