"""Self-tests of the benchmark.

Run with ``PYTHONPATH=src python -m pytest nvbench/tests -q`` from the
repository root; tier-1's ``testpaths`` does not reach here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


@pytest.fixture(scope="session")
def run():
    """nvbench/run.py as a module (it is a script, not part of the package)."""
    module_spec = importlib.util.spec_from_file_location(
        "nvbench_run", ROOT / "nvbench" / "run.py")
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module
