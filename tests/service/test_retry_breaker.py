"""Retry/backoff policy and circuit-breaker state machine."""

from __future__ import annotations

import random

import pytest

from repro.errors import DeadlineExceeded, IoError, MediaError
from repro.hw.clock import SimClock
from repro import retry
from repro.retry import backoff_delay_ns, call_with_retry
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


def _drain(gen):
    """Run a retry generator to completion, returning (delays, result)."""
    delays = []
    while True:
        try:
            delays.append(next(gen))
        except StopIteration as stop:
            return delays, stop.value


class TestRetryPolicy:
    """The one backoff schedule: 0.2 ms doubling to a 50 ms cap, each
    delay jittered down by up to half."""

    def test_exponential_growth_and_cap(self):
        rng = random.Random(0)
        for attempt in range(10):
            raw = min(200_000 * 2**attempt, 50_000_000)
            assert raw // 2 <= backoff_delay_ns(attempt, rng) <= raw
        assert retry.MAX_DELAY_NS < retry.BASE_DELAY_NS * 2**9

    def test_jitter_bounds(self):
        rng = random.Random(7)
        for attempt in range(3):
            raw = retry.BASE_DELAY_NS * 2**attempt
            delays = {backoff_delay_ns(attempt, rng) for _ in range(50)}
            assert all(raw * 0.5 <= d <= raw for d in delays)
            assert len(delays) > 1

    def test_jitter_is_seed_deterministic(self):
        a = [backoff_delay_ns(i, random.Random(3)) for i in range(5)]
        b = [backoff_delay_ns(i, random.Random(3)) for i in range(5)]
        assert a == b


class TestCallWithRetry:
    def test_success_first_try_yields_nothing(self):
        clock = SimClock()
        delays, result = _drain(
            call_with_retry(lambda: 7, random.Random(0), clock)
        )
        assert delays == [] and result == 7

    def test_retries_until_success(self):
        clock = SimClock()
        calls = [0]

        def flaky():
            calls[0] += 1
            if calls[0] < 3:
                raise IoError("transient")
            return "done"

        delays, result = _drain(
            call_with_retry(flaky, random.Random(0), clock)
        )
        assert result == "done" and len(delays) == 2 and calls[0] == 3

    def test_non_retryable_raises_immediately(self):
        clock = SimClock()
        calls = [0]

        def broken():
            calls[0] += 1
            raise MediaError("poisoned")

        with pytest.raises(MediaError):
            _drain(call_with_retry(broken, random.Random(0), clock))
        assert calls[0] == 1

    def test_exhausted_budget_reraises_last_error(self):
        clock = SimClock()
        calls = [0]

        def always():
            calls[0] += 1
            raise IoError("still failing")

        with pytest.raises(IoError):
            _drain(call_with_retry(always, random.Random(0), clock))
        assert calls[0] == retry.MAX_ATTEMPTS

    def test_backoff_overrunning_deadline_raises_deadline(self):
        clock = SimClock()

        def always():
            raise IoError("transient")

        with pytest.raises(DeadlineExceeded):
            _drain(
                call_with_retry(
                    always, random.Random(0), clock,
                    deadline_ns=clock.now_ns + 10,
                )
            )


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = SimClock()
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("cooldown_ns", 1000)
        return clock, CircuitBreaker(clock, **kwargs)

    def test_trips_after_threshold(self):
        _clock, breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN and breaker.trips == 1
        assert not breaker.allow_probe()

    def test_half_open_after_cooldown_then_close(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1000)
        assert breaker.state == HALF_OPEN and breaker.allow_probe()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_failure_restarts_cooldown(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1000)
        assert breaker.state == HALF_OPEN
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(999)
        assert breaker.state == OPEN
        clock.advance(1)
        assert breaker.state == HALF_OPEN

    def test_trips_counts_outages_not_renewals(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1000)
        breaker.record_failure()  # half-open probe failed: same outage
        assert breaker.trips == 1
        clock.advance(1000)
        breaker.record_success()  # outage over
        for _ in range(3):
            breaker.record_failure()
        assert breaker.trips == 2

    def test_success_resets_failure_count(self):
        _clock, breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
