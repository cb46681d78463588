"""System facade: one simulated machine.

A :class:`System` wires together the clock, stats, NVRAM device, CPU cache,
CPU, crash controller, Heapo heap manager, eMMC block device, and EXT4
filesystem — everything the database stack needs from "hardware".

Reboot semantics: a power cut is one event with one "off" flag,
``crash.powered_off``.  :meth:`power_fail` and an armed crash firing at op
N run the same cut (:meth:`CrashController.apply_power_loss`): it drops all
volatile state, CPU, NVRAM and eMMC cache alike (landing a random subset of
in-flight bytes, per the crash model), decays media under a fault plan and
unmounts the filesystem.  :meth:`reboot` then re-attaches the persistent
services (heap namespace, filesystem journal replay).  Durable NVRAM and
flash contents survive, so database recovery code can be tested end to end.
"""

from __future__ import annotations

from repro.config import SystemConfig, tuna
from repro.faults import BlockIoFaultInjector, FaultPlan, NvramFaultInjector
from repro.hw.cache import CacheHierarchy
from repro.hw.clock import SimClock
from repro.hw.cpu import Cpu
from repro.hw.crash import CrashController
from repro.hw.memory import NvramDevice
from repro.hw.stats import Stats
from repro.nvram.heapo import Heapo
from repro.storage.blockdev import BlockDevice
from repro.storage.ext4 import Ext4FileSystem
from repro.telemetry.metrics import MetricsRegistry, default_enabled


class System:
    """One simulated machine: CPU + NVRAM + flash + filesystem."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        seed: int | None = 0,
        clock: SimClock | None = None,
    ):
        self.config = config or tuna()
        self.seed = seed
        # Replication runs several machines side by side; passing a shared
        # clock keeps writer and followers on one simulated timeline.
        self.clock = clock if clock is not None else SimClock()
        self.stats = Stats()
        self.nvram = NvramDevice(self.config.nvram)
        self.cache = CacheHierarchy(self.config.cache, self.nvram)
        self.cpu = Cpu(self.config, self.clock, self.cache, self.nvram, self.stats)
        self.crash = CrashController(self.cpu, self.nvram, seed=seed)
        self.heapo = Heapo(self.cpu, self.nvram)
        self.blockdev = BlockDevice(
            self.config.blockdev, self.clock, self.stats, rng=self.crash.rng
        )
        self.fs = Ext4FileSystem(self.blockdev)
        self.fs.format()
        self.crash.storage = self.fs
        # Telemetry rides the simulated clock and never touches the CPU
        # model, so instrumented code spends zero simulated time on it.
        # The registry survives power cycles (reboot() doesn't reset it):
        # telemetry is the observer's notebook, not machine state.
        self.telemetry = MetricsRegistry(self.clock, enabled=default_enabled())

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def inject_faults(self, plan: FaultPlan) -> None:
        """Install a seeded :class:`FaultPlan` on this machine.

        Media faults take effect at the next power failure (decayed
        cells are observed on reboot); I/O faults start failing timed
        block commands immediately.
        """
        if plan.media is not None:
            self.nvram.fault_injector = NvramFaultInjector(plan.media, plan.seed)
        if plan.io is not None:
            self.blockdev.fault_injector = BlockIoFaultInjector(plan.io, plan.seed)

    # ------------------------------------------------------------------
    # power-cycle choreography
    # ------------------------------------------------------------------

    def power_fail(self) -> None:
        """Cut power without unwinding the Python stack.

        Volatile CPU-side and device-cache state is landed by the seeded
        lottery and then discarded; durable state is untouched.  Call
        :meth:`reboot` afterwards to bring services back.

        The same cut an armed crash runs when it fires, so it is
        idempotent: cutting power on a machine that is already off,
        by either, does nothing (see
        :meth:`CrashController.apply_power_loss`).  With a fault plan
        installed, media decay is applied after the landing lottery, so
        it corrupts exactly the bytes recovery will read.
        """
        self.crash.apply_power_loss()

    def reboot(self) -> list[int]:
        """Boot the machine after a power failure.

        Replays the filesystem journal, re-attaches the NVRAM heap
        namespace, and runs heap recovery (reclaiming pending blocks).
        Returns the addresses of the reclaimed blocks — the database layer
        uses this during its own recovery.

        A crash armed before the call (``crash.arm(k)``) fires inside heap
        or WAL recovery, so the torture harness can sweep crash points in
        recovery itself (crash-during-recovery, Section 4.3's hardest
        case).
        """
        self.crash.power_on()
        self.fs.mount()
        self.heapo.attach()
        return self.heapo.recover()

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------

    @property
    def page_size(self) -> int:
        """Database/filesystem page size."""
        return self.config.page_size

    def elapsed_seconds(self) -> float:
        """Simulated seconds since boot."""
        return self.clock.now_ns / 1e9

    def __repr__(self) -> str:
        return (
            f"System(profile={self.config.name!r}, "
            f"nvram_write_latency_ns={self.config.nvram.write_latency_ns})"
        )
