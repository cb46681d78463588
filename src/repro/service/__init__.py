"""Deterministic concurrent database service over one NVWAL database.

The package is the serving layer of the stack: a cooperative round-robin
scheduler (:mod:`repro.service.sched`) multiplexes N client sessions over
one :class:`repro.db.Database` with SQLite-style single-writer /
multi-reader admission (:mod:`repro.service.server`).  The robustness
machinery — per-request deadlines, busy timeouts, retry with exponential
backoff + jitter (:mod:`repro.retry`), a media circuit breaker
(:mod:`repro.service.breaker`), and degraded read-only mode with
checkpoint + scrub re-promotion — is all driven off the *simulated*
clock, so every run is seeded and reproducible.

``python -m repro.service`` (or ``python -m repro.service.chaos``) runs
the chaos harness: fault storms against concurrent client streams with
oracle checking, seeded digests, and auto-minimized failing traces.
"""

from repro.service.breaker import CircuitBreaker
from repro.service.sched import Job, Scheduler
from repro.service.server import DatabaseService, ServiceConfig
from repro.service.session import ClientSession

__all__ = [
    "CircuitBreaker",
    "ClientSession",
    "DatabaseService",
    "Job",
    "Scheduler",
    "ServiceConfig",
]
