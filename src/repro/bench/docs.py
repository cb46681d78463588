"""Render the doc tables that the tracked ``BENCH_*.json`` files back.

``python -m repro.bench.docs`` rewrites, in README.md and EXPERIMENTS.md,
every block between a pair of markers::

    <!-- BENCH_service.json -->
    ...
    <!-- /BENCH_service.json -->

with the tables of the report built from that file.  The three snapshot
experiments build theirs with their own ``report(doc)``, so a ``python -m
repro.bench service_storm`` run prints the table the docs hold.  After a
BENCH file is refreshed, run this once; ``tests/bench/test_docs.py`` fails
while a block differs from what it would write.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.bench.experiments import replication, service_storm, workloads
from repro.bench.report import Report, Table

ROOT = Path(__file__).resolve().parents[3]
DOCS = ("README.md", "EXPERIMENTS.md")

_BLOCK = re.compile(r"(<!-- (BENCH_\w+\.json) -->\n).*?(<!-- /\2 -->)", re.S)


def simulator_report(doc: dict) -> Report:
    """The host ops/s of each ``bench_simhost.py`` probe."""
    return Report(
        "simulator",
        "Host ops/s of the simulator's hot primitives",
        tables=[
            Table(
                ["probe", "ops/s"],
                [[name, rate] for name, rate in doc["probes"].items()],
                title=f"git_rev {doc['git_rev']}",
            )
        ],
    )


SOURCES = {
    "BENCH_simulator.json": simulator_report,
    "BENCH_service.json": service_storm.report,
    "BENCH_replication.json": replication.report,
    "BENCH_workloads.json": workloads.report,
}


def render(text: str, root: Path = ROOT) -> str:
    """``text`` with every marked block rendered from its file under
    ``root``."""

    def block(match: re.Match) -> str:
        name = match.group(2)
        doc = json.loads((root / name).read_text(encoding="utf-8"))
        tables = "\n\n".join(t.render() for t in SOURCES[name](doc).tables)
        return f"{match.group(1)}```text\n{tables}\n```\n{match.group(3)}"

    return _BLOCK.sub(block, text)


def main() -> int:
    for name in DOCS:
        path = ROOT / name
        text = path.read_text(encoding="utf-8")
        rendered = render(text)
        if rendered != text:
            path.write_text(rendered, encoding="utf-8")
            print(f"rewrote {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
