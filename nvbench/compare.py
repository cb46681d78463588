"""``run.py --compare a.json b.json``: hold b to a, metric by metric.

Both files are results of the all-workloads run with the same seed.  The
rule per metric is the one :mod:`nvbench.spec` fixes:

* ``sim_*`` and every exact count: identical, or it is a regression (a
  host-only change must not move the modelled hardware at all);
* ``host_*`` and ``setup_s``: b may be worse than a by at most the metric's
  bound.  Each file also carries the figure recomputed with each round left
  out in turn; when those spread wider than the bound on either side the
  verdict is *unresolved*, unless every one of b's reads better than every
  one of a's;
* ``failed_op_share``: 0 on both sides, absolutely.
"""

from __future__ import annotations

import json
import statistics
import sys

from nvbench import spec

OK, BETTER, UNRESOLVED, REGRESSION = "ok", "ok (better)", "unresolved", "REGRESSION"


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not doc.get("provenance", {}).get("comparable", False):
        raise ValueError(f"{path} is a smoke-scale result and not comparable")
    return doc


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def spread(values: list[float]) -> float:
    low, mid, high = quartiles(values)
    return (high - low) / mid


def host_verdict(metric: spec.EndToEnd, a: float, b: float,
                 a_runs: list[float], b_runs: list[float]) -> str:
    """``a``/``b`` are the reported values, ``*_runs`` the same figure
    with each round left out in turn (its run-to-run spread)."""
    lower = metric.better == "lower"
    if max(spread(a_runs), spread(b_runs)) > metric.bound:
        all_better = max(b_runs) < min(a_runs) if lower else min(b_runs) > max(a_runs)
        return BETTER if all_better else UNRESOLVED
    worse_by = (b - a) / a if lower else (a - b) / a
    return REGRESSION if worse_by > metric.bound else OK


def compare(a: dict, b: dict) -> tuple[list[tuple], int, int]:
    """Rows ``(workload, metric, a, b, verdict)`` plus regression and
    unresolved counts."""
    rows = []
    for name in spec.WORKLOADS:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec.END_TO_END:
            va, vb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            if metric.compare == "exact":
                verdict = OK if va == vb else REGRESSION
                rows.append((name, metric.name, f"{va:.6g}", f"{vb:.6g}", verdict))
                continue
            ra, rb = wa["resampled"][metric.name], wb["resampled"][metric.name]
            rows.append((name, metric.name, _with_quartiles(va, ra),
                         _with_quartiles(vb, rb), host_verdict(metric, va, vb, ra, rb)))
        fa, fb = wa[spec.FAILED_OP_SHARE], wb[spec.FAILED_OP_SHARE]
        rows.append((name, spec.FAILED_OP_SHARE, f"{fa:.6g}", f"{fb:.6g}",
                     OK if fa == 0 and fb == 0 else REGRESSION))
        counts_a, counts_b = wa["rounds"][0]["counts"], wb["rounds"][0]["counts"]
        moved = sorted(k for k in counts_a if counts_a[k] != counts_b.get(k))
        rows.append((name, "exact counts", f"{len(counts_a)} counts",
                     "identical" if not moved else "moved: " + ", ".join(moved[:4]),
                     OK if not moved else REGRESSION))
    regressions = sum(1 for row in rows if row[4] == REGRESSION)
    unresolved = sum(1 for row in rows if row[4] == UNRESOLVED)
    return rows, regressions, unresolved


def _with_quartiles(value: float, runs: list[float]) -> str:
    low, _mid, high = quartiles(runs)
    return f"{value:.5g} [{low:.5g}, {high:.5g}]"


def compare_files(path_a: str, path_b: str) -> int:
    try:
        a, b = load(path_a), load(path_b)
    except ValueError as exc:
        print(f"nvbench --compare: {exc}", file=sys.stderr)
        return 2
    pa, pb = a["provenance"], b["provenance"]
    if (pa["seed"], pa["scale"]) != (pb["seed"], pb["scale"]):
        print("nvbench --compare: the two files differ in seed or scale",
              file=sys.stderr)
        return 2
    print(f"a: {path_a}  rev {pa['git_rev']}{' (dirty)' if pa['git_dirty'] else ''}")
    print(f"b: {path_b}  rev {pb['git_rev']}{' (dirty)' if pb['git_dirty'] else ''}")
    print("host metrics: value [first, third quartile with one round left out]\n")
    rows, regressions, unresolved = compare(a, b)
    widths = [max(len(str(row[i])) for row in rows) for i in range(5)]
    for row in rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
    print(f"\n{regressions} regression(s), {unresolved} unresolved")
    return 1 if regressions else 0
