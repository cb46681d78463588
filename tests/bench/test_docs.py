"""The doc tables backed by a tracked BENCH file are what the renderer
writes from it (``python -m repro.bench.docs`` re-renders them)."""

import json
import shutil

import pytest

from repro.bench import docs

MARKED = {
    "README.md": {"BENCH_simulator.json"},
    "EXPERIMENTS.md": {
        "BENCH_service.json", "BENCH_replication.json", "BENCH_workloads.json"
    },
}


@pytest.mark.parametrize("name", docs.DOCS)
def test_rendered_blocks_match_their_source(name):
    text = (docs.ROOT / name).read_text(encoding="utf-8")
    assert {m.group(2) for m in docs._BLOCK.finditer(text)} == MARKED[name]
    assert docs.render(text) == text, (
        f"{name} is stale: run `python -m repro.bench.docs`"
    )


def test_a_changed_source_value_changes_the_block(tmp_path):
    for source in docs.SOURCES:
        shutil.copy(docs.ROOT / source, tmp_path / source)
    doc = json.loads((tmp_path / "BENCH_service.json").read_text())
    doc["configs"]["full storm"]["txns_per_sec"] = 789.1
    (tmp_path / "BENCH_service.json").write_text(json.dumps(doc))
    text = (docs.ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    rendered = docs.render(text, tmp_path)
    assert rendered != text
    assert "789.1" in rendered

