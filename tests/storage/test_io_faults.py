"""Transient eMMC failures and the bounded-retry contract.

The injector caps consecutive failures per (operation, page) below the
filesystem's retry budget, so a correct storage stack absorbs transient
errors without surfacing them — and the tests prove both halves: the cap
holds at the device, and the stack above it never sees an exception.
"""

from __future__ import annotations

import pytest

from repro import System, tuna
from repro.errors import IoError
from repro.faults import FaultPlan, IoFaultSpec
from repro.faults.inject import BlockIoFaultInjector
from repro.storage import ext4
from tests.conftest import make_file_db

#: fits ext4's _IO_RETRIES=4 budget, the one every fsync goes through
HIGH_RATE = IoFaultSpec(read_error_rate=1.0, write_error_rate=1.0)


class TestInjectorContract:
    def test_default_cap_fits_every_retry_budget(self):
        """The default cap lets every bounded retry loop through: ext4's
        page I/O, under every log's fsync, tries at least cap + 1 times."""
        assert IoFaultSpec().max_consecutive + 1 <= ext4._IO_RETRIES

    def test_consecutive_failures_are_capped(self):
        """Even at a 100% error rate, the (max_consecutive+1)-th attempt
        on the same page succeeds — the guarantee retry loops rely on."""
        system = System(tuna(), seed=0)
        system.blockdev.fault_injector = BlockIoFaultInjector(HIGH_RATE, seed=0)
        page = b"\x5A" * system.config.page_size
        attempts = 0
        for _ in range(HIGH_RATE.max_consecutive + 1):
            attempts += 1
            try:
                system.blockdev.write_page(3, page)
                break
            except IoError:
                continue
        assert attempts == HIGH_RATE.max_consecutive + 1
        assert system.blockdev._cache[3] == page

    def test_counter_rearms_after_a_success(self):
        system = System(tuna(), seed=0)
        system.blockdev.fault_injector = BlockIoFaultInjector(HIGH_RATE, seed=0)
        page = b"\x5A" * system.config.page_size
        for _ in range(2):  # two full fail-fail-succeed cycles
            failures = 0
            for _ in range(HIGH_RATE.max_consecutive + 1):
                try:
                    system.blockdev.write_page(3, page)
                    break
                except IoError:
                    failures += 1
            assert failures == HIGH_RATE.max_consecutive

    def test_read_page_silent_is_exempt(self):
        system = System(tuna(), seed=0)
        system.blockdev.fault_injector = BlockIoFaultInjector(HIGH_RATE, seed=0)
        system.blockdev.read_page_silent(0)  # must not raise


class TestStackAbsorbsTransients:
    def test_filesystem_retries_hide_faults(self):
        """A fault rate high enough to fire constantly stays invisible
        above the filesystem because retries exceed the consecutive cap."""
        system = System(tuna(), seed=2)
        system.inject_faults(
            FaultPlan(
                seed=2,
                io=IoFaultSpec(read_error_rate=0.3, write_error_rate=0.3),
            )
        )
        file = system.fs.create("data")
        payload = bytes(range(256)) * 64
        for i in range(8):
            file.write(i * len(payload), payload)
            file.fsync()
        for i in range(8):
            assert file.read(i * len(payload), len(payload)) == payload
        assert system.blockdev.fault_injector.injected > 0

    def test_filewal_commits_survive_fsync_faults(self):
        """ext4's page-command retry loop alone absorbs the longest
        failure streak its budget allows under the file WAL's fsyncs."""
        system = System(tuna(), seed=3)
        system.inject_faults(
            FaultPlan(
                seed=3,
                io=IoFaultSpec(
                    read_error_rate=0.2,
                    write_error_rate=0.2,
                    max_consecutive=ext4._IO_RETRIES - 1,
                ),
            )
        )
        db = make_file_db(system, name="io.db")
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        system.power_fail()
        system.reboot()
        db2 = make_file_db(system, name="io.db")
        assert db2.dump_table("t") == [(i, f"v{i}") for i in range(10)]
        assert system.blockdev.fault_injector.injected > 0

    def test_exhausted_budget_propagates(self):
        """A cap above the retry budget must surface as IoError — the
        retry loops are bounded, not infinite."""
        system = System(tuna(), seed=4)
        system.blockdev.fault_injector = BlockIoFaultInjector(
            IoFaultSpec(
                read_error_rate=1.0, write_error_rate=1.0, max_consecutive=50
            ),
            seed=4,
        )
        file = system.fs.create("doomed")
        with pytest.raises(IoError):
            file.write(0, b"x" * 64)
            file.fsync()


class TestRetryBudget:
    """The budgets and backoff amounts of the shared retry loop
    (:func:`repro.retry.retry_io`) as the filesystem's page commands use
    it."""

    @staticmethod
    def failing_device(kind: str, failures: int) -> System:
        system = System(tuna(), seed=0)
        system.blockdev.fault_injector = BlockIoFaultInjector(
            IoFaultSpec(
                **{f"{kind}_error_rate": 1.0}, max_consecutive=failures
            ),
            seed=0,
        )
        return system

    @pytest.mark.parametrize("failures", [0, 1, 2, 3])
    @pytest.mark.parametrize("kind", ["write", "read"])
    def test_backoff_is_charged_to_the_device_clock(self, kind, failures):
        system = self.failing_device(kind, failures)
        latency = getattr(system.blockdev.config, f"{kind}_latency_ns")
        pno = system.blockdev.num_pages - 1
        before = system.clock.now_ns
        if kind == "write":
            system.fs._dev_write(pno, bytes(system.page_size), tag="data")
        else:
            system.fs._dev_read(pno, tag="data")
        backoff = sum(latency << attempt for attempt in range(failures))
        assert system.clock.now_ns - before == backoff + latency
        assert system.blockdev.fault_injector.injected == failures

    @pytest.mark.parametrize("kind", ["write", "read"])
    def test_fourth_consecutive_failure_propagates(self, kind):
        system = self.failing_device(kind, 4)
        latency = getattr(system.blockdev.config, f"{kind}_latency_ns")
        pno = system.blockdev.num_pages - 1
        before = system.clock.now_ns
        with pytest.raises(IoError):
            if kind == "write":
                system.fs._dev_write(pno, bytes(system.page_size), tag="data")
            else:
                system.fs._dev_read(pno, tag="data")
        # Three backoffs were slept; the fourth failure is not retried.
        assert system.clock.now_ns - before == latency * (1 + 2 + 4)
        assert system.blockdev.fault_injector.injected == 4
