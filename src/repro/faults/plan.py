"""Fault plans: declarative, seeded descriptions of hardware misbehaviour.

The crash controller models *clean* power loss — volatile state gambles,
durable state survives exactly.  Real NVRAM and eMMC parts misbehave in
more ways (NVLog's checksum-guarded salvage, arXiv:2408.02911;
architecture-aware PM transaction corruption handling, arXiv:1903.06226):

* **media decay** — cells flip bits or get stuck after power events;
* **poisoned units** — ECC-uncorrectable regions that *report* failure
  on read instead of silently returning garbage;
* **transient I/O errors** — eMMC commands that fail once and succeed on
  retry.

A :class:`FaultPlan` packages all of that as plain seeded data so a
torture run is fully reproducible: the same plan against the same
workload produces bit-identical faults, failures, and traces.  Plans
round-trip through JSON (:meth:`FaultPlan.to_json` /
:meth:`FaultPlan.from_json`) so failing traces can be replayed and
minimized.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields


@dataclass(frozen=True)
class MediaFaultSpec:
    """Seeded NVRAM media decay, applied when power is lost.

    ``bit_flips`` single-bit flips and ``stuck_units`` stuck-at atomic
    units (the unit freezes at its decayed value; later writes are
    silently ignored on read) are placed uniformly over 256-byte regions
    the workload actually wrote — decay of never-written cells cannot be
    observed, so targeting written regions maximizes fault coverage per
    injected fault.  ``poison_units`` marks units as ECC-uncorrectable:
    reads covering them raise :class:`repro.errors.MediaError`.
    """

    bit_flips: int = 0
    stuck_units: int = 0
    poison_units: int = 0


@dataclass(frozen=True)
class IoFaultSpec:
    """Seeded transient block-device failures.

    Each timed page read/write independently fails with the given rate,
    raising :class:`repro.errors.IoError`.  Failures are *transient*: at
    most ``max_consecutive`` consecutive failures hit any single retried
    operation, so a caller retrying more times than that always
    succeeds.  Bulk mount-time scans (``read_page_silent``) model DMA
    transfers outside the command path and are not injected.
    """

    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    max_consecutive: int = 2


@dataclass(frozen=True)
class ShipFaultSpec:
    """Seeded misbehaviour of the log-shipping replication channel.

    Each shipped segment batch independently suffers (in check order):
    **drop** — the batch never arrives (a few consecutive drops per
    channel at most, so resends always make progress); **duplicate** — a
    second copy arrives later; **reorder** — delivery is delayed, so a
    later batch overtakes it; **corrupt** — one seeded bit of the payload
    flips in flight.  The cap and the delays are constants of
    :mod:`repro.faults.inject`.  Followers are expected to absorb all four:
    segment decode validates checksums and close words, and the
    sequence-number cursor makes duplicates and stale reorders no-ops.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """One seeded fault scenario for a whole simulated machine.

    ``io`` targets the machine's primary block device (the WAL/database
    volume); ``archive_io`` targets the segment-archive cold-store device
    (:mod:`repro.archive`) independently, so chaos storms can hammer the
    disk tier without touching the NVWAL fast path — and vice versa.
    """

    seed: int = 0
    media: MediaFaultSpec | None = None
    io: IoFaultSpec | None = None
    ship: ShipFaultSpec | None = None
    archive_io: IoFaultSpec | None = None

    def to_json(self) -> dict:
        """Plain-dict form for trace files."""
        return {
            "seed": self.seed,
            "media": asdict(self.media) if self.media else None,
            "io": asdict(self.io) if self.io else None,
            "ship": asdict(self.ship) if self.ship else None,
            "archive_io": asdict(self.archive_io) if self.archive_io else None,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json` output.  A spec key this
        code no longer has is ignored, so older traces still replay."""

        def spec(spec_class, key):
            if not data.get(key):
                return None
            names = {f.name for f in fields(spec_class)}
            return spec_class(**{k: v for k, v in data[key].items() if k in names})

        return cls(
            seed=data.get("seed", 0),
            media=spec(MediaFaultSpec, "media"),
            io=spec(IoFaultSpec, "io"),
            ship=spec(ShipFaultSpec, "ship"),
            archive_io=spec(IoFaultSpec, "archive_io"),
        )
