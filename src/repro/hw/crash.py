"""Power-failure semantics and crash injection.

The paper could not run physical power-off tests (Section 4.3: the persist
barrier hardware does not exist yet), so it argues recovery correctness case
by case.  We can do better in simulation: a crash keeps the durable NVRAM
bytes exactly and lands a subset of the *volatile* dirty 8-byte units (CPU
cache or memory-subsystem queue): cache evictions, memory-controller drains,
torn lines.  :func:`landed_units` picks that subset here and for the eMMC
write cache alike: a seeded lottery by default, adversarial enough to break
any implementation that omits a required flush or barrier yet deterministic
per seed, or exactly the caller's ``landed`` indexes (``()``, :data:`ALL`).

Crash *injection* works through a hook on the CPU: every primitive operation
(store, memcpy, dccmvac, dmb, persist_barrier) counts as one step, and the
controller can be armed to cut power at step N.  Sweeping N over a whole
transaction exercises every intermediate state of Algorithm 1.

The controller owns that hook (nothing else assigns ``cpu.crash_hook``) and
the op count (:meth:`CrashController.counting`), and installs the hook only
while armed or counting: a set hook makes the CPU single-step flush ranges.

One cut, one flag: :meth:`CrashController.apply_power_loss` is the whole
power cut of a machine, whether an armed injection fires it at op N or a
caller runs ``System.power_fail()`` — the CPU/NVRAM landing, then the
plugged-in :attr:`~CrashController.storage` (eMMC cache lottery, unmount),
then media decay by the NVRAM fault injector.  ``powered_off`` is the
machine's only "off" flag; :meth:`~CrashController.power_on` clears it.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Container
from contextlib import contextmanager
from typing import Callable

from repro.config import ATOMIC_UNIT
from repro.errors import PowerFailure
from repro.hw.cpu import Cpu
from repro.hw.memory import NvramDevice

#: The chance that a unit still volatile at the cut reached media anyway.
LAND_PROBABILITY = 0.5
#: The landed subset in which every unit lands.
ALL = range(sys.maxsize)


def landed_units(
    n: int, rng: random.Random, landed: Container[int] | None = None
) -> list[int]:
    """Ascending indexes, of ``n`` units, that a power cut lands: those in
    ``landed``, or by default one ``rng`` draw per unit in index order."""
    if landed is None:
        return [i for i in range(n) if rng.random() < LAND_PROBABILITY]
    return [i for i in range(n) if i in landed]


class CrashController:
    """Arms, fires, and applies power failures on a simulated system."""

    def __init__(
        self,
        cpu: Cpu,
        nvram: NvramDevice,
        seed: int | None = None,
    ) -> None:
        self.cpu = cpu
        self.nvram = nvram
        self.rng = random.Random(seed)
        self._armed_at: int | None = None
        self._op_count = 0
        self._op_filter: Callable[[str], bool] | None = None
        #: Matching ops seen by the current (or last) :meth:`counting` block.
        self.ops_counted = 0
        self._counting = False
        self._count_filter: Callable[[str], bool] | None = None
        #: True between a power failure and the next :meth:`power_on`: the
        #: machine is off.
        self.powered_off = False
        #: The machine's filesystem, cut with it: anything with a
        #: ``power_fail()`` that loses its device cache and unmounts.  A
        #: ``System`` plugs it in; ``hw`` imports nothing from ``storage``.
        self.storage = None

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def arm(
        self,
        after_ops: int,
        op_filter: Callable[[str], bool] | None = None,
    ) -> None:
        """Cut power after ``after_ops`` further matching CPU operations.

        ``op_filter`` restricts which primitive ops count (e.g. only
        ``dccmvac``); by default every op counts.
        """
        self._armed_at = after_ops
        self._op_count = 0
        self._op_filter = op_filter
        self.cpu.crash_hook = self._on_op

    def disarm(self) -> None:
        """Cancel a pending injection."""
        self._armed_at = None
        if not self._counting:
            self.cpu.crash_hook = None

    def _on_op(self, op: str) -> None:
        if self._counting and (
            self._count_filter is None or self._count_filter(op)
        ):
            self.ops_counted += 1
        if self._armed_at is None:
            return
        if self._op_filter is not None and not self._op_filter(op):
            return
        self._op_count += 1
        if self._op_count >= self._armed_at:
            self.disarm()
            self.power_fail()

    # ------------------------------------------------------------------
    # the failure itself
    # ------------------------------------------------------------------

    def power_fail(self) -> None:
        """Cut power *now* (:meth:`apply_power_loss`) and raise
        :class:`PowerFailure`."""
        self.apply_power_loss()
        raise PowerFailure("simulated power failure")

    def power_on(self) -> None:
        """Restore power after a failure (part of reboot choreography)."""
        self.powered_off = False

    def apply_power_loss(self, landed: Container[int] | None = None) -> None:
        """The whole power cut, without the control-flow unwind.

        The volatile 8-byte units :func:`landed_units` picks land; durable
        bytes are untouched.  Units are numbered pending runs, then dirty
        runs, 8 bytes at a time.  Afterwards all volatile tiers are empty,
        as they would be after a reboot.  Then the :attr:`storage` loses
        power (its own lottery over the eMMC write cache, then unmount),
        and the NVRAM fault injector, if any, decays media after the
        landing, so it corrupts exactly the bytes recovery will read.

        Cutting power on a machine that is already off is a no-op: a dead
        machine has no volatile state left to land, and re-drawing the
        landing lottery would perturb the seeded RNG stream.  The flag is
        cleared by :meth:`power_on`.
        """
        if self.powered_off:
            return
        self.powered_off = True
        dirty, pending = self.cpu.volatile_state()
        # Memory-subsystem entries are "closer" to the device, but without a
        # persist barrier nothing guarantees they landed: same lottery.
        runs = (*pending, *dirty)
        n = sum(len(data) for _, data in runs) // ATOMIC_UNIT
        walk, end = iter(runs), 0
        for i in landed_units(n, self.rng, landed):
            while i >= end:  # advance to the run holding unit i
                addr, data = next(walk)
                first, end = end, end + len(data) // ATOMIC_UNIT
            offset = (i - first) * ATOMIC_UNIT
            self.nvram.persist(addr + offset, data[offset : offset + ATOMIC_UNIT])
        self.cpu.drop_volatile()
        if self.storage is not None:
            self.storage.power_fail()
        if self.nvram.fault_injector is not None:
            self.nvram.fault_injector.on_power_loss(self.nvram)

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------

    @contextmanager
    def counting(self, op_filter: Callable[[str], bool] | None = None):
        """Count matching CPU ops inside the block, without crashing.

        ``ops_counted`` restarts at zero and is the running count: read it
        mid-run to place an event, or after the block for the total.
        :meth:`arm` works inside the block; the hook installed before it,
        if any, is back after it.
        """
        previous = self.cpu.crash_hook
        if previous == self._on_op:
            previous = None  # ours: kept below only while still armed
        self.ops_counted = 0
        self._count_filter = op_filter
        self._counting = True
        self.cpu.crash_hook = self._on_op
        try:
            yield
        finally:
            self._counting = False
            self.cpu.crash_hook = (
                previous if self._armed_at is None else self._on_op
            )

    def count_ops(self, fn: Callable[[], None], op_filter=None) -> int:
        """How many matching CPU ops ``fn()`` issues: the injection points
        a test then sweeps with ``arm(k)`` for k in 1..N."""
        with self.counting(op_filter):
            fn()
        return self.ops_counted
