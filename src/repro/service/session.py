"""Client-side session: resubmission, give-up policy, bookkeeping.

A :class:`ClientSession` is the *client's* half of the robustness story:
the service may refuse a request (busy timeout, deadline, degraded
mode), and somebody has to decide whether to try again.  Sessions own a
queue of pending transactions and resubmit until acknowledged, backing
off between rejections — with **idempotent** keyed ops (insert acts as
upsert only through resubmission after an indeterminate crash, where the
op may have landed; replaying the same final value converges), which is
what makes resubmission safe.

The session records every acknowledgement and every rejection by error
category, giving tests and the chaos driver a per-client ledger to check
against the service's commit log.
"""

from __future__ import annotations

from collections import deque

from repro.errors import MediaError, PowerFailure, ReproError, ServiceError
from repro.service.server import DatabaseService

REJECTION_BACKOFF_NS = 1_000_000  # 1 ms between resubmits
MAX_REJECTIONS = 1000  # consecutive, of one transaction, before giving up


class ClientSession:
    """One client identity and its pending work."""

    def __init__(
        self,
        service: DatabaseService,
        session_id: str,
        deadline_budget_ns: int = 50_000_000,  # 50 ms per attempt
    ) -> None:
        self.service = service
        self.session_id = session_id
        self.deadline_budget_ns = deadline_budget_ns
        self.pending: deque = deque()
        self.acked: list = []
        #: error category -> count of rejected attempts
        self.rejections: dict[str, int] = {}
        self.gave_up = False

    def enqueue(self, ops) -> None:
        """Queue one transaction (a tuple of keyed-table ops)."""
        self.pending.append(tuple(ops))

    def attach(self, service: DatabaseService) -> None:
        """Point the session at a rebuilt service after a power cycle.

        Pending (never-acknowledged) transactions stay queued and will
        be resubmitted; acknowledged ones are the service's to keep.
        """
        self.service = service

    def run(self):
        """Generator job: drain the pending queue, resubmitting on
        rejection, until done or :data:`MAX_REJECTIONS` is exhausted."""
        rejections = 0
        while self.pending:
            ops = self.pending[0]
            deadline = self.service.clock.now_ns + self.deadline_budget_ns
            try:
                yield from self.service.submit_txn(
                    self.session_id, ops, deadline_ns=deadline
                )
            except PowerFailure:
                # The machine died mid-request.  That is the scheduler's
                # crash to unwind, not a rejection to absorb; the txn
                # stays pending and resubmits after the reboot.
                raise
            except ServiceError as exc:
                # Degraded mode / breaker / deadline: the request was not
                # applied; wait for the service to heal and resubmit.
                rejections += 1
                self._record(exc)
                if rejections > MAX_REJECTIONS:
                    self.gave_up = True
                    return
                yield REJECTION_BACKOFF_NS
                continue
            except ReproError as exc:
                # Busy timeout, exhausted IO retries, media failure: same
                # client-side answer — back off and resubmit.  A media
                # failure is not retryable as an *operation*, but the
                # service heals the media (demote, checkpoint, promote),
                # so the *transaction* is still worth resubmitting.
                # Logical errors (bad SQL, txn misuse) are bugs: give up.
                rejections += 1
                self._record(exc)
                recoverable = exc.retryable or isinstance(exc, MediaError)
                if not recoverable or rejections > MAX_REJECTIONS:
                    self.gave_up = True
                    return
                yield REJECTION_BACKOFF_NS
                continue
            self.acked.append(ops)
            self.pending.popleft()
            rejections = 0

    def _record(self, exc: ReproError) -> None:
        self.rejections[exc.category] = self.rejections.get(exc.category, 0) + 1
