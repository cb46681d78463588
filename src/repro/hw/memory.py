"""Byte-addressable NVRAM device model.

The device holds the *durable* bytes: anything here survives a power
failure.  Volatile copies of NVRAM addresses live in the CPU cache overlay
(:mod:`repro.hw.cache`) and in the memory-subsystem flush queue
(:mod:`repro.hw.cpu`); they reach the device only through a persist barrier
or, at a crash, probabilistically (:mod:`repro.hw.crash`).

Writes are atomic at :data:`repro.config.ATOMIC_UNIT` (8-byte) granularity,
matching the paper's assumption that DIMM capacitors guarantee no corruption
of 8 bytes on power failure (Section 4.1).
"""

from __future__ import annotations

from repro.config import NvramConfig
from repro.errors import AddressError


#: Granularity of wear tracking — one counter per 256-byte region.
WEAR_REGION = 256

#: Lazy-materialization chunk for the durable image.  A multiple of
#: :data:`WEAR_REGION` so a worn region is always fully materialized —
#: the media-fault injector indexes ``_data`` anywhere inside a worn
#: region and must never run off the end of the buffer.
_GROW_CHUNK = 1 << 20


class NvramDevice:
    """The emulated NVRAM DIMM: a flat, durable byte array.

    The device also tracks write wear per 256-byte region: NVRAM cells have
    finite endurance, and the paper's related work (NVMalloc [35]) worries
    about allocators concentrating writes.  :meth:`wear_stats` lets
    experiments check whether the WAL's append-mostly pattern spreads wear.
    """

    def __init__(self, config: NvramConfig | None = None) -> None:
        self.config = config or NvramConfig()
        # The durable image is materialized lazily: ``_data`` covers
        # [0, len(_data)) and grows geometrically in _GROW_CHUNK-aligned
        # steps on first write; everything past the end reads as zero
        # (erased NVRAM).  Zeroing the full device up front cost ~30 ms
        # per 64 MB System, which dominated every fresh-system benchmark
        # and crash-harness reboot.
        self._data = bytearray()
        self._wear: dict[int, int] = {}
        # Optional media-fault injector (repro.faults): overlays stuck
        # units and fails poisoned ones on the read path.
        self.fault_injector = None

    def _materialize(self, end: int) -> None:
        """Grow the durable image to cover at least [0, end)."""
        have = len(self._data)
        if end <= have:
            return
        target = -(-end // _GROW_CHUNK) * _GROW_CHUNK
        if target < 2 * have:
            target = 2 * have  # geometric: amortize long sequential fills
        if target > self.size:
            target = self.size
        self._data.extend(bytes(target - have))

    @property
    def size(self) -> int:
        """Device capacity in bytes."""
        return self.config.size

    def check_range(self, addr: int, length: int) -> None:
        """Raise :class:`AddressError` unless [addr, addr+length) is mapped."""
        if addr < 0 or length < 0 or addr + length > self.size:
            raise AddressError(
                f"NVRAM access out of range: addr={addr} len={length} "
                f"size={self.size}"
            )

    def persist(self, addr: int, payload: bytes) -> None:
        """Durably write ``payload`` at ``addr``.

        This is the *device-side* operation: it carries no simulated-time
        cost (the cost was charged when the flush was issued and when the
        barrier waited for it) and no atomicity restriction (atomicity
        matters only for the crash controller, which persists partial data
        in 8-byte units).
        """
        length = len(payload)
        end = addr + length
        if addr < 0 or length < 0 or end > self.config.size:
            self.check_range(addr, length)
        data = self._data
        if end > len(data):
            self._materialize(end)
            data = self._data
        data[addr:end] = payload
        if self.fault_injector is not None:
            self.fault_injector.on_write(addr, length)
        if payload:
            first = addr // WEAR_REGION
            last = (end - 1) // WEAR_REGION
            wear = self._wear
            if first == last:  # common case: one cache line, one region
                wear[first] = wear.get(first, 0) + 1
            else:
                for region in range(first, last + 1):
                    wear[region] = wear.get(region, 0) + 1

    def persist_lines(self, runs, line_size: int) -> int:
        """Durably write queued runs of cache lines; returns bytes written.

        Equivalent to calling :meth:`persist` once per *line* — each wear
        region is charged one write per line of the run that falls in it,
        and the poison a line-by-line drain would clear is exactly the
        poison of the atomic units the run covers (lines are unit-aligned)
        — at the cost of one slice assignment and one fault-injector
        notification per run.  ``runs`` is any iterable of ``(addr, data)``
        pairs of whole, aligned ``line_size``-byte lines (the
        persist-barrier drain queue); ``line_size`` divides
        :data:`WEAR_REGION` (the cache checks its configuration).
        """
        size = self.config.size
        data = self._data
        wear = self._wear
        injector = self.fault_injector
        total = 0
        for addr, payload in runs:
            length = len(payload)
            if not length:
                continue
            end = addr + length
            if addr < 0 or end > size:
                self.check_range(addr, length)
            if end > len(data):
                self._materialize(end)
                data = self._data
            data[addr:end] = payload
            if injector is not None:
                injector.on_write(addr, length)
            first = addr // WEAR_REGION
            last = (end - 1) // WEAR_REGION
            if first == last:
                wear[first] = wear.get(first, 0) + length // line_size
            else:
                edge = (first + 1) * WEAR_REGION
                wear[first] = wear.get(first, 0) + (edge - addr) // line_size
                for region in range(first + 1, last):
                    wear[region] = wear.get(region, 0) + WEAR_REGION // line_size
                edge = last * WEAR_REGION
                wear[last] = wear.get(last, 0) + (end - edge) // line_size
            total += length
        return total

    def has_poison(self) -> bool:
        """Whether a read can currently raise :class:`MediaError`."""
        injector = self.fault_injector
        return injector is not None and bool(injector.poisoned)

    def read(self, addr: int, length: int) -> bytes:
        """Return the durable contents of [addr, addr+length).

        With a fault injector installed, stuck atomic units read back
        their frozen decayed value and poisoned units raise
        :class:`repro.errors.MediaError` instead of returning garbage.
        """
        end = addr + length
        if addr < 0 or length < 0 or end > self.config.size:
            self.check_range(addr, length)
        have = len(self._data)
        if addr >= have:
            data = bytes(length)  # never written: erased NVRAM reads zero
        elif end <= have:
            data = memoryview(self._data)[addr:end].tobytes()
        else:
            data = memoryview(self._data)[addr:have].tobytes() + bytes(end - have)
        if self.fault_injector is not None:
            data = self.fault_injector.filter_read(addr, length, data)
        return data

    def durable_image(self) -> bytes:
        """A full copy of the durable state (used by crash tests)."""
        return bytes(self._data) + bytes(self.size - len(self._data))

    def wear_stats(self) -> dict[str, float]:
        """Wear summary: writes per 256-byte region.

        ``max`` is the hottest region's write count, ``mean`` the average
        over regions written at least once, ``regions`` how many regions
        were ever written.  A max/mean ratio near 1 means evenly spread
        wear; a large ratio flags a hot spot (e.g. a header rewritten per
        transaction).
        """
        if not self._wear:
            return {"max": 0, "mean": 0.0, "regions": 0}
        counts = self._wear.values()
        return {
            "max": max(counts),
            "mean": sum(counts) / len(counts),
            "regions": len(counts),
        }

    def hottest_regions(self, n: int = 5) -> list[tuple[int, int]]:
        """The ``n`` most-written regions as (byte address, write count)."""
        ranked = sorted(self._wear.items(), key=lambda kv: -kv[1])[:n]
        return [(region * WEAR_REGION, count) for region, count in ranked]

    def __repr__(self) -> str:
        return f"NvramDevice(size={self.size})"
