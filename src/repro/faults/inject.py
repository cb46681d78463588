"""Seeded fault injectors that realize a :class:`~repro.faults.plan.FaultPlan`.

Two injectors, one per device family:

* :class:`NvramFaultInjector` corrupts the durable NVRAM image when power
  is lost (decayed cells show up at the next boot) and overlays stuck /
  poisoned atomic units on every subsequent read.
* :class:`BlockIoFaultInjector` fails individual eMMC page commands
  transiently, with a hard cap on consecutive failures per operation so
  bounded retry loops always make progress.

Both draw from their own ``random.Random`` stream derived from the plan
seed, independent of the crash controller's RNG, so adding media faults
to a scenario does not perturb which volatile bytes land at a crash.
"""

from __future__ import annotations

import random

from repro.config import ATOMIC_UNIT
from repro.errors import IoError, MediaError
from repro.faults.plan import IoFaultSpec, MediaFaultSpec, ShipFaultSpec
from repro.hw.memory import WEAR_REGION, NvramDevice


class NvramFaultInjector:
    """Applies seeded media decay to an :class:`NvramDevice`.

    Faults target 256-byte wear regions the workload actually wrote:
    decay of never-written cells is invisible to any oracle, so placing
    faults on written regions maximizes coverage per injected fault.

    Three fault kinds, all placed at :meth:`on_power_loss` time:

    * **bit flip** — one bit of the durable image is inverted in place;
    * **stuck unit** — an 8-byte atomic unit freezes at its decayed
      value (current contents with one bit flipped); later writes land
      in the durable image but reads keep returning the frozen value;
    * **poison unit** — an 8-byte unit becomes ECC-uncorrectable; any
      read overlapping it raises :class:`MediaError`.
    """

    def __init__(self, spec: MediaFaultSpec, seed: int) -> None:
        self.spec = spec
        self.rng = random.Random((seed * 0x9E3779B1 + 0x6D2B79F5) & 0xFFFFFFFF)
        #: unit base address -> frozen 8-byte value returned on read
        self.stuck: dict[int, bytes] = {}
        #: unit base addresses that raise MediaError on read
        self.poisoned: set[int] = set()
        #: byte addresses of injected single-bit flips (for trace logs)
        self.flipped: list[int] = []

    # -- placement ----------------------------------------------------------

    def _pick_addr(self, nvram: NvramDevice, align: int) -> int | None:
        """A uniformly random ``align``-aligned address in a written region."""
        regions = sorted(nvram._wear)
        if not regions:
            return None
        region = regions[self.rng.randrange(len(regions))]
        base = region * WEAR_REGION
        span = min(WEAR_REGION, nvram.size - base)
        if span < align:
            return None
        return base + self.rng.randrange(span // align) * align

    def on_power_loss(self, nvram: NvramDevice) -> None:
        """Inject this spec's faults into the durable image.

        Called by the crash controller *after* it has landed (or
        dropped) volatile state, so decay applies to what actually
        reached the DIMM — the state recovery will read at next boot.
        """
        for _ in range(self.spec.bit_flips):
            addr = self._pick_addr(nvram, align=1)
            if addr is None:
                continue
            bit = self.rng.randrange(8)
            nvram._data[addr] ^= 1 << bit
            self.flipped.append(addr)
        for _ in range(self.spec.stuck_units):
            addr = self._pick_addr(nvram, align=ATOMIC_UNIT)
            if addr is None or addr in self.poisoned:
                continue
            frozen = bytearray(nvram._data[addr : addr + ATOMIC_UNIT])
            bit = self.rng.randrange(ATOMIC_UNIT * 8)
            frozen[bit // 8] ^= 1 << (bit % 8)
            self.stuck[addr] = bytes(frozen)
        for _ in range(self.spec.poison_units):
            addr = self._pick_addr(nvram, align=ATOMIC_UNIT)
            if addr is None:
                continue
            self.stuck.pop(addr, None)
            self.poisoned.add(addr)

    # -- write path ---------------------------------------------------------

    def on_write(self, addr: int, length: int) -> None:
        """Durable writes clear the poison of units they fully cover.

        Rewriting a whole atomic unit replaces its ECC codeword, so the
        unit becomes readable again — the behavior of real persistent
        memory (``ndctl clear-error``: writes clear poison).  Stuck units
        stay stuck: their cells, not their codewords, are worn out.
        """
        if not self.poisoned or length <= 0:
            return
        end = addr + length
        cleared = [
            unit
            for unit in self.poisoned
            if addr <= unit and unit + ATOMIC_UNIT <= end
        ]
        for unit in cleared:
            self.poisoned.discard(unit)

    # -- read path ----------------------------------------------------------

    def filter_read(self, addr: int, length: int, data: bytes) -> bytes:
        """Overlay stuck units and fail poisoned ones for one device read."""
        if self.poisoned:
            first = addr - (addr % ATOMIC_UNIT)
            for unit in self.poisoned:
                if first <= unit < addr + length:
                    err = MediaError(
                        f"uncorrectable NVRAM unit at {unit:#x} "
                        f"(read addr={addr:#x} len={length})"
                    )
                    # Persistent by construction: the unit keeps failing
                    # until a write replaces its whole ECC codeword.
                    err.retryable = False
                    raise err
        if self.stuck:
            out = None
            end = addr + length
            for unit, frozen in self.stuck.items():
                if unit + ATOMIC_UNIT <= addr or unit >= end:
                    continue
                if out is None:
                    out = bytearray(data)
                lo = max(unit, addr)
                hi = min(unit + ATOMIC_UNIT, end)
                out[lo - addr : hi - addr] = frozen[lo - unit : hi - unit]
            if out is not None:
                return bytes(out)
        return data


class BlockIoFaultInjector:
    """Transient eMMC command failures with bounded consecutive repeats.

    Each timed page read/write independently fails with the spec's rate.
    A per-(operation, page) counter caps consecutive failures at
    ``max_consecutive``, so any caller retrying at least
    ``max_consecutive + 1`` times is guaranteed to get through — the
    contract the filesystem's bounded retry-with-backoff relies on.
    """

    def __init__(self, spec: IoFaultSpec, seed: int) -> None:
        self.spec = spec
        self.rng = random.Random((seed * 0x85EBCA6B + 0xC2B2AE35) & 0xFFFFFFFF)
        self._consecutive: dict[tuple[str, int], int] = {}
        #: total injected failures (for trace logs / tests)
        self.injected = 0

    def before_op(self, kind: str, pno: int) -> None:
        """Raise :class:`IoError` if this command transiently fails."""
        rate = (
            self.spec.read_error_rate
            if kind == "read"
            else self.spec.write_error_rate
        )
        if rate <= 0.0:
            return
        key = (kind, pno)
        if self.rng.random() < rate:
            failures = self._consecutive.get(key, 0)
            if failures < self.spec.max_consecutive:
                self._consecutive[key] = failures + 1
                self.injected += 1
                err = IoError(f"transient {kind} failure on page {pno}")
                # Transient by construction: consecutive failures per
                # (op, page) are capped, so retrying always succeeds.
                err.retryable = True
                raise err
        self._consecutive.pop(key, None)


#: Consecutive drops per channel at most, so resends always land.
MAX_CONSECUTIVE_DROPS = 3
#: A duplicate arrives this long after its original.
DUPLICATE_DELAY_NS = 300_000
#: A reordered batch is held back 1-4 times this long.
REORDER_DELAY_NS = 500_000


class ShipFaultInjector:
    """Seeded drop/duplicate/reorder/bit-flip faults for one replication
    channel.

    Each :meth:`deliveries` call decides the fate of one shipped batch
    and returns ``(extra_delay_ns, payload)`` tuples — possibly empty
    (dropped), possibly two entries (duplicated), possibly delayed past
    later batches (reordered), possibly with one bit flipped (corrupted).
    Decisions draw from the injector's own ``random.Random`` stream, so
    the same seed against the same send sequence produces bit-identical
    channel behaviour regardless of follower count or scheduling.
    """

    def __init__(self, spec: ShipFaultSpec, seed: int) -> None:
        self.spec = spec
        self.rng = random.Random((seed * 0xC2B2AE3D + 0x27D4EB2F) & 0xFFFFFFFF)
        self._consecutive_drops = 0
        #: counters for trace logs / tests
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.corrupted = 0

    def deliveries(self, payload: bytes) -> list[tuple[int, bytes]]:
        """Fate of one sent batch: list of (extra delay ns, bytes) copies."""
        spec = self.spec
        if self.rng.random() < spec.drop_rate:
            if self._consecutive_drops < MAX_CONSECUTIVE_DROPS:
                self._consecutive_drops += 1
                self.dropped += 1
                return []
        self._consecutive_drops = 0
        delay = 0
        if self.rng.random() < spec.reorder_rate:
            delay = REORDER_DELAY_NS * (1 + self.rng.randrange(4))
            self.reordered += 1
        if self.rng.random() < spec.corrupt_rate and payload:
            flipped = bytearray(payload)
            bit = self.rng.randrange(len(flipped) * 8)
            flipped[bit // 8] ^= 1 << (bit % 8)
            payload = bytes(flipped)
            self.corrupted += 1
        out = [(delay, payload)]
        if self.rng.random() < spec.duplicate_rate:
            out.append((delay + DUPLICATE_DELAY_NS, payload))
            self.duplicated += 1
        return out
