"""Bounded retry of transient errors on the simulated clock.

:func:`retry_io` is the loop of the tiers that cannot yield (the
filesystem's page commands).  That is the one device-level budget: every
log's fsync — the file WAL's, the rollback journal's, NVWAL's checkpoint
— gets the same bound from it, and no layer above re-issues a whole fsync;
:func:`retry_delay_ns` is the "next delay, or raise" step of the service
tier's generators, on one exponential backoff schedule (the constants
below).  The jitter draws from the caller's seeded RNG stream, so backoff
timing is deterministic per run yet decorrelated across sessions — full
jitter, the standard defense against retry storms synchronizing into
thundering herds.
"""

from __future__ import annotations

import random

from repro.errors import DeadlineExceeded, IoError, ReproError

#: Calls of a retried service request, the first one included.
MAX_ATTEMPTS = 5
#: Backoff before the first retry; each later one multiplies it ...
BASE_DELAY_NS = 200_000  # 0.2 ms
BACKOFF_MULTIPLIER = 2.0
#: ... up to this cap.
MAX_DELAY_NS = 50_000_000  # 50 ms
#: Fraction of each delay drawn uniformly at random.
JITTER = 0.5


def retry_io(attempts: int, fn, *args, clock=None, backoff_ns: int = 0):
    """``fn(*args)``, re-issued on transient :class:`IoError` up to
    ``attempts`` calls in all; ``clock`` advances ``backoff_ns << attempt``
    before each retry.  The last failure propagates."""
    for attempt in range(attempts):
        try:
            return fn(*args)
        except IoError:
            if attempt == attempts - 1:
                raise
            if backoff_ns:
                clock.advance(backoff_ns << attempt)


def backoff_delay_ns(attempt: int, rng: random.Random) -> int:
    """Backoff before retry number ``attempt`` (0-based)."""
    raw = min(BASE_DELAY_NS * BACKOFF_MULTIPLIER**attempt, MAX_DELAY_NS)
    raw = raw * (1.0 - JITTER) + raw * JITTER * rng.random()
    return max(1, int(raw))


def retry_delay_ns(attempt: int, rng, clock, deadline_ns, exc: ReproError) -> int:
    """The sleep before retry number ``attempt`` (0-based) of a request
    that failed with ``exc``.  Re-raises ``exc`` once the budget is spent;
    a sleep that would overrun ``deadline_ns`` raises
    :class:`DeadlineExceeded` instead."""
    if attempt + 1 >= MAX_ATTEMPTS:
        raise exc
    delay = backoff_delay_ns(attempt, rng)
    if deadline_ns is not None and clock.now_ns + delay > deadline_ns:
        raise DeadlineExceeded(
            f"retry backoff would overrun the deadline "
            f"(attempt {attempt + 1}, {type(exc).__name__}: {exc})"
        ) from exc
    return delay


def call_with_retry(
    fn,
    rng: random.Random,
    clock,
    deadline_ns: float | None = None,
):
    """Generator: run ``fn`` with backoff on retryable errors.

    Yields each backoff delay (for the cooperative scheduler to sleep);
    returns ``fn()``'s result via ``StopIteration``, so callers write
    ``result = yield from call_with_retry(...)``.  Non-retryable errors
    and exhausted budgets re-raise the last error; a backoff that would
    overrun ``deadline_ns`` raises :class:`DeadlineExceeded` instead of
    sleeping through it.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except ReproError as exc:
            if not exc.retryable:
                raise
            yield retry_delay_ns(attempt, rng, clock, deadline_ns, exc)
            attempt += 1
