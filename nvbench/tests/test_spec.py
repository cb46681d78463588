"""BENCHMARK.json says what nvbench/spec.py says, within the contract."""

import json
import re
from pathlib import Path

from nvbench import spec

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_keys_command_and_paths():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["command"] == ["python3", "nvbench/run.py"]
    assert BENCHMARK["paths"] == ["nvbench"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60


def test_workloads_match_spec():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == spec.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_matches_spec():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END]
    for entry in BENCHMARK["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_per_layer_matches_spec():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER]
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    for layer in spec.LAYERS:
        assert f"{layer}.host_self_us_per_op" in {m.name for m in spec.PER_LAYER}


def test_names_and_units_are_within_the_contract():
    entries = BENCHMARK["workloads"] + BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(entry["unit"]) for entry in entries if "unit" in entry)
    assert all(entry["better"] in ("higher", "lower")
               for entry in entries if "better" in entry)
