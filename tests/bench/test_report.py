"""Tests for report rendering."""

from repro.bench.report import Report, Table


def test_table_alignment():
    table = Table(["name", "value"], [["short", 1], ["a-much-longer-name", 22]])
    lines = table.render().splitlines()
    assert lines[0].startswith("name")
    assert all(len(line) >= len("a-much-longer-name") for line in lines[1:])


def test_table_title():
    table = Table(["a"], [[1]], title="my table")
    assert table.render().splitlines()[0] == "my table"


def test_float_formatting():
    table = Table(["x"], [[0.0], [0.1234], [3.14159], [123.456]])
    rendered = table.render()
    assert "0.123" in rendered
    assert "3.1" in rendered
    assert "123" in rendered


def test_empty_table_renders_headers():
    table = Table(["only", "headers"], [])
    assert "only" in table.render()


def test_report_combines_notes_and_tables():
    report = Report(
        "Figure X",
        "a title",
        tables=[Table(["h"], [[1]])],
        notes=["first note", "second note"],
    )
    text = report.render()
    assert text.startswith("== Figure X: a title ==")
    assert "first note" in text
    assert "h" in text


# ---------------------------------------------------------------------------
# the BENCH_*.json writer
# ---------------------------------------------------------------------------


def key_paths(doc, prefix="") -> set[str]:
    """Every dict key of a JSON document, as a dotted path."""
    paths = set()
    if isinstance(doc, dict):
        for key, value in doc.items():
            paths.add(prefix + key)
            paths |= key_paths(value, f"{prefix}{key}.")
    return paths


def test_quick_run_leaves_the_tracked_snapshot_alone(tmp_path, monkeypatch):
    """A --quick run writes the untracked ``.quick.json`` sibling — never
    the tracked trajectory file — with the schema of the committed one."""
    import json
    from pathlib import Path

    from repro.bench.experiments import EXPERIMENTS

    monkeypatch.chdir(tmp_path)
    report = EXPERIMENTS["replication"](quick=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BENCH_replication.quick.json"
    ]
    assert "BENCH_replication.quick.json" in report.render()
    quick = json.loads((tmp_path / "BENCH_replication.quick.json").read_text())
    assert quick["quick"] is True and quick["git_rev"]
    tracked = json.loads(
        (Path(__file__).parents[2] / "BENCH_replication.json").read_text()
    )
    assert tracked["quick"] is False
    assert key_paths(quick) == key_paths(tracked)


def test_full_size_snapshot_takes_the_tracked_name(tmp_path, monkeypatch):
    import json

    from repro.bench.report import write_snapshot

    monkeypatch.chdir(tmp_path)
    name = write_snapshot("demo", {"quick": False, "cells": {"a": 1}})
    assert name == "BENCH_demo.json"
    doc = json.loads((tmp_path / name).read_text())
    assert doc["cells"] == {"a": 1} and doc["git_rev"]
