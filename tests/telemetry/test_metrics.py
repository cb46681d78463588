"""Metrics primitives: histogram edges, merging, registry toggles."""

from __future__ import annotations

import pytest

from repro.hw.clock import SimClock
from repro.telemetry.metrics import (
    COUNT_BOUNDS,
    LATENCY_BOUNDS,
    Histogram,
    MetricsRegistry,
    default_enabled,
    set_default_enabled,
    telemetry_disabled,
)


def _quantiles(h: Histogram) -> tuple[int, int, int]:
    return h.quantile(50), h.quantile(95), h.quantile(99)


class TestHistogramEdges:
    def test_boundary_value_lands_in_its_bucket(self):
        # Bounds are inclusive upper bounds: a value exactly on a bound
        # belongs to that bound's bucket, not the next one.
        h = Histogram("t")
        for bound in LATENCY_BOUNDS:
            h.observe(bound)
        assert h.overflow == 0
        assert h.counts == [1] * len(LATENCY_BOUNDS)

    def test_one_past_boundary_moves_up(self):
        h = Histogram("t")
        h.observe(LATENCY_BOUNDS[0] + 1)
        assert h.counts[0] == 0
        assert h.counts[1] == 1

    def test_overflow_bucket(self):
        h = Histogram("t")
        big = LATENCY_BOUNDS[-1] + 123
        h.observe(big)
        assert h.overflow == 1
        assert h.total == 1
        # Overflow quantiles report the observed maximum, never a bound.
        assert _quantiles(h) == (big, big, big)

    def test_empty_quantiles_are_zero(self):
        h = Histogram("t")
        assert _quantiles(h) == (0, 0, 0)
        assert h.max == 0 and h.total == 0

    def test_single_sample_quantiles(self):
        # With one sample, every percentile is that sample's value
        # (clamped to the observed max, not the bucket bound).
        h = Histogram("t")
        h.observe(1_234_567)
        assert _quantiles(h) == (1_234_567, 1_234_567, 1_234_567)

    def test_negative_observations_clamp_to_zero(self):
        h = Histogram("t")
        h.observe(-5)
        assert h.total == 1
        assert h.sum == 0
        assert h.counts[0] == 1

    def test_quantile_walk_is_integer_exact(self):
        # 100 samples of 1us and 1 of 10ms: p50/p95 in the first bucket,
        # p99+ must not be (the rank-101 sample is the big one at p>99.009...).
        h = Histogram("t")
        for _ in range(100):
            h.observe(1_000)
        h.observe(10_000_000)
        assert h.quantile(50) == 1_000
        assert h.quantile(95) == 1_000
        assert h.quantile(99) == 1_000
        assert h.quantile(100) == 10_000_000

    def test_count_bounds_histogram(self):
        h = Histogram("epoch", bounds=COUNT_BOUNDS)
        for size in (1, 2, 8, 8, 8, 200):
            h.observe(size)
        assert h.overflow == 1
        assert h.quantile(50) == 8
        assert h.max == 200


class TestHistogramMerge:
    def _filled(self, values) -> Histogram:
        h = Histogram("m")
        for v in values:
            h.observe(v)
        return h

    def test_merge_matches_union(self):
        a_vals = [1_000, 5_000, 2_000_000]
        b_vals = [7_000, 30_000_000_000]  # includes an overflow
        a = self._filled(a_vals)
        a.merge_from(self._filled(b_vals))
        union = self._filled(a_vals + b_vals)
        assert a.snapshot() == union.snapshot()

    def test_merge_is_associative(self):
        parts = ([1_000, 2_000], [5_000], [9_000, 50_000_000_000])
        left = self._filled(parts[0])
        left.merge_from(self._filled(parts[1]))
        left.merge_from(self._filled(parts[2]))
        right_tail = self._filled(parts[1])
        right_tail.merge_from(self._filled(parts[2]))
        right = self._filled(parts[0])
        right.merge_from(right_tail)
        assert left.snapshot() == right.snapshot()

    def test_merge_rejects_different_bounds(self):
        a = Histogram("a")
        b = Histogram("b", bounds=COUNT_BOUNDS)
        with pytest.raises(ValueError):
            a.merge_from(b)

    def test_snapshot_round_trip(self):
        h = self._filled([1_000, 1_000, 777_777, 99_000_000_000])
        rebuilt = Histogram.from_snapshot("m", h.snapshot())
        assert rebuilt.snapshot() == h.snapshot()
        # And a rebuilt histogram keeps merging correctly.
        rebuilt.merge_from(self._filled([3_000]))
        direct = self._filled([1_000, 1_000, 777_777, 99_000_000_000, 3_000])
        assert rebuilt.snapshot() == direct.snapshot()

    def test_count_bounds_round_trip(self):
        h = Histogram("epoch", bounds=COUNT_BOUNDS)
        for v in (1, 4, 8, 500):
            h.observe(v)
        rebuilt = Histogram.from_snapshot("epoch", h.snapshot())
        assert rebuilt.bounds == COUNT_BOUNDS
        assert rebuilt.snapshot() == h.snapshot()


class TestRegistry:
    def test_instruments_are_memoized(self):
        reg = MetricsRegistry(SimClock())
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_disabled_registry_hands_out_noops(self):
        reg = MetricsRegistry(SimClock(), enabled=False)
        c = reg.counter("a")
        c.inc()
        reg.gauge("g").set(9)
        reg.histogram("h").observe(1_000)
        reg.event("boom", detail="x")
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert reg.events == []

    def test_events_carry_sim_time(self):
        clock = SimClock()
        reg = MetricsRegistry(clock)
        clock.advance_to(1_500)
        reg.event("mode", old="rw", new="ro")
        assert reg.events == [
            {"name": "mode", "at_ns": 1_500, "old": "rw", "new": "ro"}
        ]

    def test_telemetry_disabled_restores_default(self):
        assert default_enabled()
        with telemetry_disabled():
            assert not default_enabled()
            with telemetry_disabled():
                assert not default_enabled()
            assert not default_enabled()
        assert default_enabled()

    def test_set_default_enabled_affects_new_systems(self):
        from repro.config import tuna
        from repro.system import System

        try:
            set_default_enabled(False)
            assert not System(tuna(), seed=0).telemetry.enabled
        finally:
            set_default_enabled(True)
        assert System(tuna(), seed=0).telemetry.enabled
