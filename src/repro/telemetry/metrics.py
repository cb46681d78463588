"""Deterministic metrics primitives on the simulated clock.

Counters, gauges, and fixed-bucket latency histograms, registered
through a :class:`MetricsRegistry`.  Three design rules keep telemetry
safe to leave on everywhere:

* **Integer arithmetic only.**  Histogram buckets have integer bounds,
  integer counts, and quantiles are computed by an integer cumulative
  walk (``cum * 100 >= q * total``) returning a bucket upper bound —
  there is no floating-point accumulation anywhere, so two runs of the
  same seed produce byte-identical snapshots and merging partial
  histograms is exactly associative.
* **Free on the simulated clock.**  Instruments only *read*
  ``clock.now_ns``; they never call into the CPU model or advance time.
  A run with telemetry enabled spends the same simulated nanoseconds,
  bit for bit, as one with telemetry disabled (pinned by
  ``tests/telemetry/test_determinism.py``).
* **Cheap to disable.**  A disabled registry hands out shared no-op
  instruments; the module-level default (``set_default_enabled`` /
  ``telemetry_disabled``) lets harnesses toggle telemetry for systems
  they build internally without threading a flag through every layer.
"""

from __future__ import annotations

import contextlib
from bisect import bisect_left

_DEFAULT_ENABLED = True


def default_enabled() -> bool:
    """Whether systems built right now get an enabled registry."""
    return _DEFAULT_ENABLED


def set_default_enabled(flag: bool) -> None:
    """Set the process-wide default for newly built systems."""
    global _DEFAULT_ENABLED
    _DEFAULT_ENABLED = bool(flag)


@contextlib.contextmanager
def telemetry_disabled():
    """Build systems with telemetry off for the duration of the block.

    Only affects :class:`repro.system.System` instances *constructed*
    inside the block; existing registries keep their state."""
    previous = _DEFAULT_ENABLED
    set_default_enabled(False)
    try:
        yield
    finally:
        set_default_enabled(previous)


def _latency_bounds() -> tuple[int, ...]:
    """1-2-5 series from 1 us to 10 s, in nanoseconds."""
    bounds: list[int] = []
    decade = 1_000
    while decade <= 10_000_000_000:
        for mantissa in (1, 2, 5):
            value = decade * mantissa
            if value <= 10_000_000_000:
                bounds.append(value)
        decade *= 10
    return tuple(bounds)


#: Default bucket upper bounds for latency histograms (ns, inclusive).
LATENCY_BOUNDS = _latency_bounds()

#: Bucket bounds for small-count histograms (epoch sizes, batch sizes).
COUNT_BOUNDS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128)


class Counter:
    """Monotone integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """Last-written integer value (occupancy, sequence numbers)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = int(value)

    def snapshot(self) -> int:
        return self.value


class Histogram:
    """Fixed-bucket integer histogram with drift-free quantiles.

    ``bounds[i]`` is the *inclusive* upper bound of bucket ``i``; values
    past the last bound land in the overflow bucket.  Quantiles report
    the upper bound of the bucket holding the target rank (the observed
    maximum for the overflow bucket), so p50/p95/p99 are conservative,
    reproducible, and mergeable: merging is plain count addition, which
    is associative and commutative by construction.
    """

    __slots__ = ("name", "bounds", "counts", "overflow", "total", "sum", "max")

    def __init__(self, name: str, bounds: tuple[int, ...] = LATENCY_BOUNDS) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.total = 0
        self.sum = 0
        self.max = 0

    def observe(self, value) -> None:
        v = int(value)
        if v < 0:
            v = 0
        self.total += 1
        self.sum += v
        if v > self.max:
            self.max = v
        index = bisect_left(self.bounds, v)
        if index == len(self.bounds):
            self.overflow += 1
        else:
            self.counts[index] += 1

    def quantile(self, q_pct: int) -> int:
        """Value at the q-th percentile (integer, bucket upper bound).

        Clamped to the observed maximum, so a single sample reports its
        own value at every percentile rather than its bucket's bound.
        """
        if self.total == 0:
            return 0
        target = q_pct * self.total  # compare cum*100 >= q*total
        cum = 0
        for bound, count in zip(self.bounds, self.counts):
            cum += count
            if cum * 100 >= target:
                return min(bound, self.max)
        return self.max  # rank falls in the overflow bucket

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram's counts into this one (same bounds)."""
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.name} vs {other.name}"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.overflow += other.overflow
        self.total += other.total
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max

    def snapshot(self) -> dict:
        """JSON-able state: summary quantiles plus raw bucket counts."""
        return {
            "count": self.total,
            "sum": self.sum,
            "max": self.max,
            "p50": self.quantile(50),
            "p95": self.quantile(95),
            "p99": self.quantile(99),
            "buckets": [
                [bound, count]
                for bound, count in zip(self.bounds, self.counts)
                if count
            ],
            "overflow": self.overflow,
            "bounds_id": f"{self.bounds[0]}:{self.bounds[-1]}:{len(self.bounds)}",
        }

    @classmethod
    def from_snapshot(
        cls, name: str, snap: dict, bounds: tuple[int, ...] | None = None
    ) -> "Histogram":
        """Rebuild a mergeable histogram from a :meth:`snapshot` dict."""
        if bounds is None:
            bounds = (
                COUNT_BOUNDS
                if snap.get("bounds_id", "").startswith(f"{COUNT_BOUNDS[0]}:")
                and snap.get("bounds_id")
                == f"{COUNT_BOUNDS[0]}:{COUNT_BOUNDS[-1]}:{len(COUNT_BOUNDS)}"
                else LATENCY_BOUNDS
            )
        hist = cls(name, bounds)
        index = {bound: i for i, bound in enumerate(hist.bounds)}
        for bound, count in snap.get("buckets", ()):
            hist.counts[index[bound]] = count
        hist.overflow = snap.get("overflow", 0)
        hist.total = snap.get("count", 0)
        hist.sum = snap.get("sum", 0)
        hist.max = snap.get("max", 0)
        return hist


class _NoopInstrument:
    """Shared do-nothing stand-in for every instrument of a disabled
    registry (one instance serves all names)."""

    __slots__ = ()

    name = "<disabled>"
    value = 0
    total = 0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def quantile(self, q_pct: int) -> int:
        return 0

    def snapshot(self):
        return 0


_NOOP = _NoopInstrument()


class MetricsRegistry:
    """Process-local instrument registry for one simulated machine.

    Lives on :class:`repro.system.System` (``system.telemetry``) so a
    fresh same-seed run starts from a fresh registry and two such runs
    export byte-identical state.  The registry survives
    ``system.reboot()`` — counters span power cycles within one run,
    exactly like a real metrics agent scraping across restarts.
    """

    def __init__(self, clock, enabled: bool = True) -> None:
        from repro.telemetry.spans import Tracer

        self.clock = clock
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Structured events: {"name", "at_ns", ...fields} in emit order.
        self.events: list[dict] = []
        self.tracer = Tracer(clock, enabled=enabled)

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NOOP
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NOOP
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, bounds: tuple[int, ...] = LATENCY_BOUNDS
    ) -> Histogram:
        if not self.enabled:
            return _NOOP
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name, bounds)
        return hist

    def event(self, name: str, **fields) -> None:
        """Record one structured event stamped with simulated time."""
        if not self.enabled:
            return
        record = {"name": name, "at_ns": int(self.clock.now_ns)}
        record.update(fields)
        self.events.append(record)

    def snapshot(self) -> dict:
        """Canonical JSON-able state of every instrument, sorted by name."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }
