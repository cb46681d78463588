"""The telemetry overhead gate of ``benchmarks/bench_simhost.py``.

The gate judges the median of interleaved telemetry-off/on pairs against
``TELEMETRY_OVERHEAD_BOUND``: one stalled pass must not fail it, and an
instrument that really costs 50 % must.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import pytest

from repro.telemetry.metrics import default_enabled

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_simhost.py"


@pytest.fixture(scope="module")
def simhost():
    spec = importlib.util.spec_from_file_location("bench_simhost", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_stalled_pass_does_not_decide(simhost):
    off = iter([100.0] * simhost.TELEMETRY_PAIRS)
    on = iter([69.0, 92.0, 90.0, 91.0, 93.0])  # the first pass: 45 %
    overhead, on_rate = simhost.paired_overhead(lambda: next(off), lambda: next(on))
    assert overhead < simhost.TELEMETRY_OVERHEAD_BOUND
    assert on_rate == 91.0


def test_a_planted_50_percent_overhead_fails(simhost, monkeypatch):
    """Every instrumented run is made to take 1.5 times as long."""
    run_workload = simhost.run_workload

    def slowed(*args, **kwargs):
        started = time.perf_counter()
        result = run_workload(*args, **kwargs)
        if default_enabled():
            until = started + 1.5 * (time.perf_counter() - started)
            while time.perf_counter() < until:
                pass
        return result

    monkeypatch.setattr(simhost, "run_workload", slowed)
    with pytest.raises(AssertionError, match="exceeds the 15% bound"):
        simhost.probe_telemetry_overhead()
