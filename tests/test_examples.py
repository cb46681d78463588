"""The examples run: each ``examples/<name>.py`` imports and its ``main()``
returns without raising."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


@pytest.mark.parametrize(
    "name", ["quickstart", "smartphone_contacts", "service_demo", "replication_demo"]
)
def test_example_main_runs(name, capsys):
    runpy.run_path(str(EXAMPLES / f"{name}.py"))["main"]()
    assert capsys.readouterr().out  # every example narrates what it did
