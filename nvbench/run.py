#!/usr/bin/env python3
"""nvbench: five workloads, two clocks, one layer ledger.

Three ways in:

* ``python3 nvbench/run.py --workload W --seed N --seconds S --trace 0|1``
  — one workload, the form ``BENCHMARK.json`` names.  Runs rounds of the
  workload (each in a fresh child process) until their measured phases add
  up to ``S`` seconds, prints ``workload metric value unit`` lines and, as
  the last line, one JSON object with ``correct``, ``attempted``,
  ``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
  the per-layer metrics (from two more, traced rounds) with ``--trace 1``.
* ``python3 nvbench/run.py --seed 2016`` — every workload, round-robin
  ``A B C D E`` x 5 rounds, then the traced rounds; prints everything and
  writes ``nvbench/out/results.json`` and ``nvbench/out/trace-<W>.json``.
* ``python3 nvbench/run.py --compare a.json b.json`` — two result files
  of the same seed, each metric held to its bound.

``sim_*`` is the modelled hardware's clock: deterministic, and must repeat
exactly.  ``host_*`` is what the simulator itself costs on this machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Import nvbench as a package from the checkout root, not as loose modules
# from this directory (trace.py would shadow the standard library's).
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from nvbench import spec  # noqa: E402

OUT_DIR = HERE / "out"


# ---------------------------------------------------------------------------
# child: one round
# ---------------------------------------------------------------------------


def child_main(args) -> int:
    from nvbench import rounds

    workload = spec.WORKLOADS[args.child].scaled(args.scale)
    out = rounds.run_round(
        workload, args.seed, int(spec.RECOVERY_OPS * args.scale), args.mode,
        args.spawned_ns, spec.TRACE_SPAN_OPS,
    )
    print(json.dumps(out))
    return 0


def spawn_round(name: str, seed: int, scale: float, mode: str) -> dict:
    """Run one round in a fresh process and return what it printed."""
    # The child's set-up time starts here (rounds.monotonic_ns reads the
    # same system-wide clock); the parent itself never imports the program.
    cmd = [sys.executable, str(HERE / "run.py"), "--child", name,
           "--seed", str(seed), "--scale", repr(scale), "--mode", mode,
           "--spawned-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(
            f"round of {name} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _same(tally: dict, what: str, reference, other) -> None:
    tally["attempted"] += 1
    if reference != other:
        tally["failed"] += 1
        tally["reasons"].append(f"{what} differs between rounds of one seed")


def quiet_ns(rounds: list[dict], what: str = "op_ns") -> int:
    """Host ns of the measured phase with the neighbours' bursts taken out.

    The rounds replay identical inputs, so every op ran once per round.
    On a shared host interference only ever adds time, so an op costs
    what its fastest run took, and the phase the sum over its ops.  The
    median of whole rounds cannot do this: a burst rarely lasts a round,
    but in a bad minute most rounds catch one (README, "Steadiness").
    ``what="ref_ns"`` does the same for the interleaved reference calls.
    """
    return sum(map(min, zip(*(r["host"][what] for r in rounds))))


def host_speed(rounds: list[dict]) -> float:
    """How fast the host ran during these rounds' measured phases, 1.0
    being the quiet sandbox: nominal over measured cost of the reference
    calls interleaved with the ops, each at its fastest run."""
    calls = len(rounds[0]["host"]["ref_ns"])
    return spec.REFERENCE_WORK_NS * calls / quiet_ns(rounds, "ref_ns")


def host_figures(plain: list[dict]) -> dict:
    """The four host-clock end-to-end figures from a set of rounds.

    Ops, recovery and set-up are each taken at their fastest run (see
    :func:`quiet_ns`; the recovery cycles of a round recover within a few
    percent of each other, so they count as runs of one piece of work).
    That removes bursts but not a minute in which the host as a whole
    runs at 0.6x; ``host_ops_per_s`` is therefore also divided by
    :func:`host_speed`.  Memory is not timing and stays a median.
    """
    ops = len(plain[0]["host"]["op_ns"])
    return {
        "host_ops_per_s": ops / (quiet_ns(plain) / 1e9) / host_speed(plain),
        "host_recovery_ms": min(ms for r in plain for ms in r["host"]["host_recovery_ms"]),
        "host_peak_rss_mb": statistics.median(
            r["host"]["host_peak_rss_mb"] for r in plain),
        "setup_s": min(r["host"]["setup_s"] for r in plain),
    }


def aggregate(plain: list[dict], traced: list[dict] = (),
              telemetry_off: list[dict] = ()) -> dict:
    """Fold the rounds of one workload into its metrics.

    Simulated values and counts come from the first round and must be
    identical in every other one — traced and telemetry-off rounds
    included — or the difference is a failed check.  Host values come
    from the untraced rounds.
    """
    first = plain[0]
    tally = {"attempted": 0, "failed": 0, "reasons": []}
    for other in plain[1:]:
        _same(tally, "sim", first["sim"], other["sim"])
        _same(tally, "counts", first["counts"], other["counts"])
    for other in traced:
        _same(tally, "sim (traced round)", first["sim"], other["sim"])
        _same(tally, "counts (traced round)", first["counts"], other["counts"])
    for other in telemetry_off:
        _same(tally, "sim (telemetry off)", first["sim"], other["sim"])
    for one in (*plain, *traced, *telemetry_off):
        tally["attempted"] += one["attempted"]
        tally["failed"] += one["failed"]
        tally["reasons"] += one["reasons"]

    end_to_end = {**first["sim"], **host_figures(plain)}
    # The same figures with each round left out in turn: the run-to-run
    # spread ``--compare`` weighs a difference against.
    subsets = ([plain[:i] + plain[i + 1:] for i in range(len(plain))]
               if len(plain) > 2 else [plain])
    resampled = [host_figures(some) for some in subsets]
    out = {
        "end_to_end": end_to_end,
        spec.FAILED_OP_SHARE: tally["failed"] / tally["attempted"],
        **tally,
        "latency_samples": first["counts"]["latency_samples"],
        "host_ops_per_s_round_median": statistics.median(
            r["host"]["host_ops_per_s"] for r in plain),
        "host_speed": host_speed(plain),
        "resampled": {key: [one[key] for one in resampled] for key in resampled[0]},
        "rounds": plain,
    }
    if traced:
        out["per_layer"] = _per_layer(plain, traced, telemetry_off)
        out["traced_rounds"] = traced
        out["telemetry_off_rounds"] = list(telemetry_off)
    for one in (*plain, *traced, *telemetry_off):
        del one["host"]["op_ns"], one["host"]["ref_ns"]  # 10^4..10^5 numbers, folded above
        one.get("traced", {}).pop("spans", None)  # kept in out/trace-*.json
    return out


def _per_layer(plain: list[dict], traced: list[dict], telemetry_off: list[dict]) -> dict:
    counts, trace = plain[0]["counts"], traced[0]["traced"]
    ops, txns = trace["ops"], counts["write_txns"]
    values = {}
    for layer in spec.LAYERS:
        rows = [t["traced"]["layers"].get(layer, {"calls": 0, "self_ns": 0})
                for t in traced]
        values[f"{layer}.calls_per_op"] = rows[0]["calls"] / ops
        # Each traced round's total, at the speed the host ran that round
        # (mean cost of its reference calls); the lower of the rounds.
        values[f"{layer}.host_self_us_per_op"] = min(
            row["self_ns"] * spec.REFERENCE_WORK_NS / statistics.mean(t["host"]["ref_ns"])
            for row, t in zip(rows, traced)) / 1e3 / ops
    values.update({k: v for k, v in counts.items() if "." in k})
    values["db.pager.page_visits_per_op"] = trace["page_visits"] / ops
    values["db.pager.dirty_pages_per_txn"] = trace["counters"]["dirty_pages"] / txns
    values["replication.segment_bytes_per_txn"] = (
        trace["counters"].get("segment_bytes", 0) / txns)
    # Like against like: both sides op by op at their fastest run and at
    # the host speed of their own rounds, over as many rounds (the untraced
    # ones that ran last, nearest in time).
    def against_plain(special: list[dict]) -> float:
        like = plain[-len(special):]
        return (quiet_ns(special) * host_speed(special)
                / (quiet_ns(like) * host_speed(like)))

    values["trace.host_overhead_share"] = against_plain(traced) - 1.0
    values["trace.host_covered_share"] = max(
        t["traced"]["covered_share"] for t in traced)
    values["telemetry.host_overhead_share"] = (
        1.0 - against_plain(telemetry_off) if telemetry_off else 0.0)
    # Metrics of layers the workload never enters read 0.
    return {m.name: values.get(m.name, 0.0) for m in spec.PER_LAYER}


# ---------------------------------------------------------------------------
# running and printing
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, scale: float, seconds: float,
                 trace: bool) -> dict:
    """The rounds of one invocation for one workload.

    Untraced: at least ``MIN_ROUNDS``, then until the measured phases add
    up to ``seconds``.  Traced: a fixed ``TRACE_PLAIN_ROUNDS`` untraced
    rounds, then the traced (and telemetry-off) ones.
    """
    plain, measured = [], 0.0
    while (len(plain) < spec.TRACE_PLAIN_ROUNDS if trace
           else len(plain) < spec.MIN_ROUNDS or measured < seconds):
        plain.append(spawn_round(name, seed, scale, "plain"))
        measured += plain[-1]["host"]["measured_s"]
    if not trace:
        return aggregate(plain)
    return aggregate(plain, *trace_rounds(name, seed, scale))


def trace_rounds(name: str, seed: int, scale: float):
    """The traced rounds, and on serve-repl the telemetry-off rounds."""
    traced = [spawn_round(name, seed, scale, "traced")
              for _ in range(spec.SPECIAL_ROUNDS)]
    write_trace_file(name, traced[0])
    telemetry_off = []
    if spec.WORKLOADS[name].kind == "serve":
        telemetry_off = [spawn_round(name, seed, scale, "telemetry-off")
                         for _ in range(spec.SPECIAL_ROUNDS)]
    return traced, telemetry_off


def write_trace_file(name: str, traced: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    trace = traced["traced"]
    doc = {"workload": name, "seed": traced["seed"],
           "clock": "host perf_counter_ns, relative to the measured phase's start",
           "layers": trace["layers"], "functions": trace["functions"],
           "spans": trace["spans"]}
    (OUT_DIR / f"trace-{name}.json").write_text(json.dumps(doc))


def metric_lines(name: str, result: dict, section: str, defs) -> list[str]:
    lines = []
    for metric in defs:
        value = result[section][metric.name]
        lines.append(f"{name} {metric.name} {value:.6g} {metric.unit}")
    return lines


def print_workload(name: str, result: dict) -> None:
    print("\n".join(metric_lines(name, result, "end_to_end", spec.END_TO_END)))
    print(f"{name} {spec.FAILED_OP_SHARE} {result[spec.FAILED_OP_SHARE]:.6g} "
          f"failed/attempted ({result['failed']}/{result['attempted']})")
    print(f"{name} sim_op_latency_samples {result['latency_samples']} count")
    print(f"{name} host_ops_per_s_round_median "
          f"{result['host_ops_per_s_round_median']:.6g} ops/s "
          f"(plain wall clock, {len(result['rounds'])} rounds; "
          f"host speed {result['host_speed']:.3f})")
    if "per_layer" in result:
        print("\n".join(metric_lines(name, result, "per_layer", spec.PER_LAYER)))
    for reason in result["reasons"][:10]:
        print(f"{name} FAILED: {reason}")


def contract_main(args) -> int:
    """One workload, as ``BENCHMARK.json``'s command runs it."""
    scale = spec.SMOKE_SCALE if args.smoke else spec.SCALE
    result = run_workload(args.workload, args.seed, scale, args.seconds,
                          bool(args.trace))
    print_workload(args.workload, result)
    section, defs = (("per_layer", spec.PER_LAYER) if args.trace
                     else ("end_to_end", spec.END_TO_END))
    metrics = {m.name: {"value": result[section][m.name], "unit": m.unit}
               for m in defs}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def provenance(seed: int, scale: float, smoke: bool) -> dict:
    def git(*cmd: str) -> str | None:
        try:
            done = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                                  text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            return None  # not a git checkout (the driver's is not)
        return done.stdout.strip()

    status = git("status", "--porcelain")
    return {
        "git_rev": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "scale": scale,
        "smoke": smoke,
        "comparable": not smoke,
        "rounds": spec.FULL_ROUNDS,
    }


def full_main(args) -> int:
    """Every workload: A B C D E x rounds, then the traced rounds."""
    scale = spec.SMOKE_SCALE if args.smoke else spec.SCALE
    names = list(spec.WORKLOADS)
    plain: dict[str, list] = {name: [] for name in names}
    # Round-robin, one child at a time: a slow period on the shared host
    # lands on different workloads instead of on all rounds of one.
    for _ in range(spec.FULL_ROUNDS):
        for name in names:
            plain[name].append(spawn_round(name, args.seed, scale, "plain"))
    results = {}
    for name in names:
        results[name] = aggregate(plain[name], *trace_rounds(name, args.seed, scale))
        print_workload(name, results[name])
    doc = {"provenance": provenance(args.seed, scale, args.smoke),
           "workloads": results}
    out = Path(args.out) if args.out else OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1))
    failed = sum(r["failed"] for r in results.values())
    print(f"wrote {out} ({'NOT comparable: smoke scale' if args.smoke else 'comparable'}); "
          f"failed checks: {failed}")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 scale for the self-tests; not comparable")
    parser.add_argument("--out", help="results file of the all-workloads run")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--mode", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-ns", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        from nvbench.compare import compare_files

        return compare_files(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"nvbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.workload:
        return contract_main(args)
    return full_main(args)


if __name__ == "__main__":
    sys.exit(main())
