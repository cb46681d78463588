"""The extent data path must be indistinguishable from per-line semantics.

``src/`` moves *runs*: the cache overlay is a chunk arena, the flush queue
holds one entry per run of adjacent lines, the device drains a run with one
slice assignment.  The per-line semantics the paper's model is stated in
live only here: :class:`ReferenceMachine` is a self-contained line-by-line
simulator — its own dict of lines, dirty-age order, per-line flush queue,
``max()``-rescanning barriers, per-line device writes and per-unit power
loss — that shares nothing with ``repro.hw`` but the clock, the stats
container and the device's single-write primitive (:meth:`NvramDevice.persist`).

Both machines are fed the same primitive ops and compared on everything the
simulation can observe: loaded bytes, the volatile view, dirty-age order,
the flush queue flattened to per-line ``(addr, data)``, every counter and
time bucket, ``repr(clock.now_ns)`` (exact, not approximate), the durable
image and per-region wear.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.config import ATOMIC_UNIT, SystemConfig, nexus5, tuna
from repro.errors import MediaError, PowerFailure
from repro.faults import MediaFaultSpec, NvramFaultInjector
from repro.hw import stats as statnames
from repro.hw.cache import CHUNK, CacheHierarchy
from repro.hw.clock import SimClock
from repro.hw.cpu import Cpu
from repro.hw.crash import LAND_PROBABILITY, CrashController
from repro.hw.memory import WEAR_REGION, NvramDevice
from repro.hw.stats import Stats, TimeBucket

#: Scratch window straddling an arena chunk boundary, on a small device so
#: whole-image comparisons stay cheap.
NVRAM_SIZE = 3 * CHUNK
WINDOW_BASE = CHUNK - 16 * 1024
WINDOW_SIZE = 32 * 1024

PROFILES = pytest.mark.parametrize(
    "make_config", [tuna, nexus5], ids=["tuna", "nexus5"]
)


def small(make_config) -> SystemConfig:
    config = make_config()
    return dataclasses.replace(
        config, nvram=dataclasses.replace(config.nvram, size=NVRAM_SIZE)
    )


class FastMachine:
    """The production hardware tier, wired without the rest of ``System``."""

    def __init__(self, config: SystemConfig, seed: int = 0) -> None:
        self.config = config
        self.clock = SimClock()
        self.stats = Stats()
        self.nvram = NvramDevice(config.nvram)
        self.cache = CacheHierarchy(config.cache, self.nvram)
        self.cpu = Cpu(config, self.clock, self.cache, self.nvram, self.stats)
        self.crash = CrashController(self.cpu, self.nvram, seed=seed)
        # the op surface apply_op drives
        self.store = self.cpu.store
        self.memcpy = self.cpu.memcpy
        self.load = self.cpu.load
        self.cache_line_flush = self.cpu.cache_line_flush
        self.dmb = self.cpu.dmb
        self.persist_barrier = self.cpu.persist_barrier
        self.compute = self.cpu.compute
        self.power_fail = self.crash.apply_power_loss

    def set_hook(self, hook) -> None:
        self.cpu.crash_hook = hook

    def volatile_view(self, addr: int, length: int) -> bytes:
        return self.cpu.load_free(addr, length)

    def dirty_lines(self) -> list[tuple[int, bytes]]:
        return per_line(self.cache.dirty_runs(), self.cache.line_size)

    def pending_lines(self) -> list[tuple[int, bytes]]:
        return per_line(self.cpu.pending, self.cache.line_size)


def per_line(runs, line_size: int) -> list[tuple[int, bytes]]:
    """Flatten ``(addr, data)`` runs into one entry per cache line."""
    return [
        (addr + offset, data[offset : offset + line_size])
        for addr, data in runs
        for offset in range(0, len(data), line_size)
    ]


class ReferenceMachine:
    """The model as the paper states it: one cache line at a time."""

    def __init__(self, config: SystemConfig, seed: int = 0) -> None:
        self.config = config
        self.clock = SimClock()
        self.stats = Stats()
        self.nvram = NvramDevice(config.nvram)
        self.line_size = config.cache.line_size
        self.lines: dict[int, bytearray] = {}  # resident lines
        self.dirty: dict[int, None] = {}  # insertion order = dirty age
        self.pending: list[tuple[int, bytes, float]] = []  # + completion time
        self.pipeline_last = 0.0
        self.crash_hook = None
        self.rng = random.Random(seed)

    def set_hook(self, hook) -> None:
        self.crash_hook = hook

    def _tick(self, op: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(op)

    def _covering(self, addr: int, length: int) -> range:
        if length <= 0:
            return range(0)
        return range(addr - addr % self.line_size, addr + length, self.line_size)

    # -- data path ------------------------------------------------------

    def _store_lines(self, addr: int, data: bytes) -> None:
        self.nvram.check_range(addr, len(data))
        size = self.line_size
        for base in self._covering(addr, len(data)):
            line = self.lines.get(base)
            if line is None:  # always fill, even when fully overwritten
                try:
                    line = bytearray(self.nvram.read(base, size))
                except MediaError:
                    line = bytearray(size)
                self.lines[base] = line
            lo = max(addr, base)
            hi = min(addr + len(data), base + size)
            line[lo - base : hi - base] = data[lo - addr : hi - addr]
            self.dirty.pop(base, None)
            self.dirty[base] = None

    def store(self, addr: int, data: bytes) -> None:
        self._tick("store")
        self._store_lines(addr, data)
        cost = self.config.cache.memcpy_ns_per_byte * len(data)
        self.clock.advance(cost)
        self.stats.add_time(TimeBucket.CPU, cost)

    def memcpy(self, dst: int, data: bytes) -> None:
        self._tick("memcpy")
        cache = self.config.cache
        cost = cache.memcpy_base_ns + cache.memcpy_ns_per_byte * len(data)
        self._store_lines(dst, data)
        self.clock.advance(cost)
        self.stats.add_time(TimeBucket.MEMCPY, cost)
        self.stats.count("memcpy_bytes", len(data))
        while len(self.dirty) > cache.eviction_threshold_lines:
            base = next(iter(self.dirty))
            del self.dirty[base]
            self.pending.append((base, bytes(self.lines[base]), self.clock.now_ns))
            self.stats.count("cache_evictions")

    def volatile_view(self, addr: int, length: int) -> bytes:
        # The device read spans the whole range, so a poisoned unit fails
        # the load even when a resident line shadows it.
        out = bytearray(self.nvram.read(addr, length))
        for base in self._covering(addr, length):
            line = self.lines.get(base)
            if line is not None:
                lo = max(addr, base)
                hi = min(addr + length, base + self.line_size)
                out[lo - addr : hi - addr] = line[lo - base : hi - base]
        return bytes(out)

    def load(self, addr: int, length: int) -> bytes:
        cost = self.config.nvram.read_latency_ns * len(self._covering(addr, length))
        self.clock.advance(cost)
        self.stats.add_time(TimeBucket.CPU, cost)
        return self.volatile_view(addr, length)

    # -- flush + barriers ----------------------------------------------

    def dccmvac(self, base: int) -> None:
        self._tick("dccmvac")
        issue = self.config.cache.flush_issue_ns
        self.clock.advance(issue)
        self.stats.add_time(TimeBucket.DCCMVAC, issue)
        self.stats.count(statnames.FLUSHES)
        if base not in self.dirty:
            return
        del self.dirty[base]
        latency = self.config.nvram.write_latency_ns
        interval = latency / self.config.cache.pipeline_depth
        self.clock.advance(interval)
        self.stats.add_time(TimeBucket.DCCMVAC, interval)
        now = self.clock.now_ns
        if self.pipeline_last <= now:
            completion = now + latency
        else:
            completion = self.pipeline_last + interval
        self.pipeline_last = completion
        self.pending.append((base, bytes(self.lines[base]), completion))

    def cache_line_flush(self, start: int, end: int) -> None:
        self._tick("cache_line_flush")
        self.clock.advance(self.config.cache.syscall_ns)
        self.stats.add_time(TimeBucket.SYSCALL, self.config.cache.syscall_ns)
        self.stats.count(statnames.FLUSH_CALLS)
        for base in self._covering(start, end - start):
            self.dccmvac(base)

    def dmb(self) -> None:
        self._tick("dmb")
        start = self.clock.now_ns
        self.clock.advance(self.config.cache.dmb_ns)
        if self.pending:
            self.clock.advance_to(max(done for _, _, done in self.pending))
        self.stats.add_time(TimeBucket.DMB, self.clock.now_ns - start)
        self.stats.count(statnames.DMBS)

    def persist_barrier(self) -> None:
        self._tick("persist_barrier")
        start = self.clock.now_ns
        if self.pending:
            self.clock.advance_to(max(done for _, _, done in self.pending))
        self.clock.advance(self.config.cache.persist_barrier_ns)
        self.stats.add_time(TimeBucket.PERSIST_BARRIER, self.clock.now_ns - start)
        self.stats.count(statnames.PERSIST_BARRIERS)
        for base, data, _ in self.pending:
            self.nvram.persist(base, data)
            self.stats.count(statnames.NVRAM_LINES_PERSISTED)
            self.stats.count(statnames.NVRAM_BYTES_WRITTEN, len(data))
        self.pending.clear()

    # -- CPU work -------------------------------------------------------

    def compute(self, ns: float, bucket: TimeBucket = TimeBucket.CPU) -> None:
        if ns <= 0:
            return
        self.clock.advance(ns)
        self.stats.add_time(bucket, ns)

    # -- power loss -----------------------------------------------------

    def power_fail(self) -> None:
        """Every volatile 8-byte unit lands with LAND_PROBABILITY: the
        flush queue first, then dirty lines by age."""
        in_flight = [(base, data) for base, data, _ in self.pending]
        in_flight += [(base, bytes(self.lines[base])) for base in self.dirty]
        for base, data in in_flight:
            for offset in range(0, len(data), ATOMIC_UNIT):
                if self.rng.random() < LAND_PROBABILITY:
                    self.nvram.persist(
                        base + offset, data[offset : offset + ATOMIC_UNIT]
                    )
        self.lines.clear()
        self.dirty.clear()
        self.pending.clear()
        self.pipeline_last = 0.0

    def dirty_lines(self) -> list[tuple[int, bytes]]:
        return [(base, bytes(self.lines[base])) for base in self.dirty]

    def pending_lines(self) -> list[tuple[int, bytes]]:
        return [(base, data) for base, data, _ in self.pending]


def observable_state(machine) -> dict:
    """Everything the simulation can observe, floats via repr (exact)."""
    return {
        "clock": repr(machine.clock.now_ns),
        "time_ns": {k: repr(v) for k, v in machine.stats.time_ns.items()},
        "counters": dict(machine.stats.counters),
        "volatile": volatile_or_error(machine),
        "dirty": machine.dirty_lines(),
        "pending": machine.pending_lines(),
        "durable": machine.nvram.durable_image(),
        "wear": machine.nvram.hottest_regions(NVRAM_SIZE // WEAR_REGION),
    }


def volatile_or_error(machine):
    try:
        return machine.volatile_view(WINDOW_BASE, WINDOW_SIZE)
    except MediaError:
        return "MediaError"


def assert_same_state(fast, ref, where: str) -> None:
    got, want = observable_state(fast), observable_state(ref)
    for key in want:
        assert got[key] == want[key], f"{key} diverged {where}"
    assert_extent_invariants(fast.cache, where)


def assert_extent_invariants(cache: CacheHierarchy, where: str) -> None:
    """What the dirty extent list promises beyond its per-line flattening
    (``dirty_runs`` is one run per extent, oldest first)."""
    line = cache.line_size
    extents = [(addr, addr + len(data)) for addr, data in cache.dirty_runs()]
    for lo, hi in extents:
        assert lo % line == 0 and hi % line == 0, f"unaligned extent {where}"
        assert lo < hi, f"empty extent {where}"
    extents.sort()
    for (_, hi), (lo, _) in zip(extents, extents[1:]):
        assert hi <= lo, f"overlapping extents {where}"
    lines = sum(hi - lo for lo, hi in extents) // line
    assert cache.dirty_line_count() == lines, f"dirty line count drifted {where}"


def random_ops(rng: random.Random, steps: int, storms: bool = False):
    """A randomized primitive-op script over the scratch window.

    Half the addresses are drawn near the chunk boundary inside the window
    and near a recently written extent, so partial head/tail lines, stores
    re-dirtying the middle of a resident run and chunk-crossing ranges all
    occur; 4 KB memcpys supply the eviction pressure.
    """
    boundary = CHUNK - WINDOW_BASE
    recent = 0

    def place(length: int) -> int:
        room = WINDOW_SIZE - max(length, 1)
        pick = rng.random()
        if pick < 0.25:
            offset = boundary - rng.randrange(length + 1)
        elif pick < 0.5:
            offset = recent + rng.randrange(-64, 4096)
        else:
            offset = rng.randrange(room)
        return WINDOW_BASE + min(max(offset, 0), room)

    kinds = ["store", "store", "memcpy", "memcpy", "load", "flush", "flush",
             "dmb", "pb"]
    if storms:
        kinds.append("storm")
    for _ in range(steps):
        kind = rng.choice(kinds)
        if kind in ("store", "memcpy"):
            length = rng.choice([1, 7, 8, 31, 63, 64, 200, 1000, 4096, 4128])
            addr = place(length)
            recent = addr - WINDOW_BASE
            yield (kind, addr, rng.randbytes(length))
        elif kind == "load":
            length = rng.choice([0, 1, 63, 64, 65, 300, 4096, 8192])
            yield (kind, place(length), length)
        elif kind == "flush":
            length = rng.choice([0, 1, 64, 100, 2048, 4096, 8192])
            start = place(length)
            yield (kind, start, start + length)
        else:
            yield (kind,)


def with_compute(rng: random.Random, ops):
    """``ops`` with ``compute`` charges interleaved — zero, negative, whole
    and fractional nanoseconds, on the CPU and the HEAP bucket — drawn from
    their own RNG, so the primitive ops are exactly the stream given."""
    amounts = (0, -3, 1, 0.35, 7.7, 90, 9_000.125, 14_000, 205_000)
    for op in ops:
        if rng.random() < 0.3:
            yield (
                "compute",
                rng.choice(amounts) * rng.choice((1, 3, 0.1)),
                rng.choice((TimeBucket.CPU, TimeBucket.HEAP)),
            )
        yield op


def apply_op(machine, op):
    """Apply one scripted op; loads return their bytes (or the error)."""
    kind = op[0]
    if kind == "store":
        machine.store(op[1], op[2])
    elif kind == "memcpy":
        machine.memcpy(op[1], op[2])
    elif kind == "load":
        try:
            return machine.load(op[1], op[2])
        except MediaError:
            return "MediaError"
    elif kind == "flush":
        machine.cache_line_flush(op[1], op[2])
    elif kind == "dmb":
        machine.dmb()
    elif kind == "pb":
        machine.persist_barrier()
    elif kind == "compute":
        machine.compute(op[1], op[2])
    else:  # "storm": media decay at run time, no power loss
        machine.nvram.fault_injector.on_power_loss(machine.nvram)
    return None


def run_lockstep(fast, ref, ops, check_every: int = 25) -> None:
    for step, op in enumerate(ops):
        got = apply_op(fast, op)
        want = apply_op(ref, op)
        assert got == want, f"load mismatch at step {step}: {op[:2]}"
        if step % check_every == 0 or op[0] in ("dmb", "pb", "storm"):
            assert_same_state(fast, ref, f"at step {step}: {op[:2]}")
    assert_same_state(fast, ref, "at the end")


def seeded_profiles(first_seed: int):
    """Both profiles x eight seeds: ``first_seed`` (under the bare profile
    id it has always run as) and seven more."""
    cases = [
        pytest.param(
            make_config, seed, id=name if seed == first_seed else f"{name}-{seed}"
        )
        for name, make_config in (("tuna", tuna), ("nexus5", nexus5))
        for seed in (first_seed, *range(101, 108))
    ]
    return pytest.mark.parametrize("make_config,seed", cases)


@seeded_profiles(20160227)  # the paper's conference year, why not
def test_randomized_ops_match_per_line_oracle(make_config, seed):
    """500 random primitive ops: extent path == per-line reference, exactly."""
    fast = FastMachine(small(make_config))
    ref = ReferenceMachine(small(make_config))
    rng = random.Random(seed)
    run_lockstep(fast, ref, random_ops(rng, 500))
    assert fast.stats.get_count("cache_evictions") > 0  # pressure happened
    assert fast.stats.get_count(statnames.NVRAM_LINES_PERSISTED) > 0


@seeded_profiles(7)
def test_batched_flush_matches_hooked_per_line_path(make_config, seed):
    """An armed (here: never-firing) crash hook drives the flush routine
    one line at a time; unarmed it takes the range in one call.  Same
    routine, same observable state, bit-identical clock after every op."""
    runs = FastMachine(small(make_config))
    hooked = FastMachine(small(make_config))
    steps_seen = []
    hooked.set_hook(steps_seen.append)
    rng = random.Random(seed)
    for step, op in enumerate(random_ops(rng, 400)):
        assert apply_op(runs, op) == apply_op(hooked, op)
        assert repr(runs.clock.now_ns) == repr(hooked.clock.now_ns), (
            f"clock diverged at step {step}: {op[:2]}"
        )
    assert_same_state(runs, hooked, "hooked vs unhooked")
    # one crash-injection step per instruction, not per run
    assert steps_seen.count("dccmvac") == hooked.stats.get_count(statnames.FLUSHES)
    assert len(runs.cpu.pending) <= len(hooked.cpu.pending)


def test_full_line_store_skips_device_fill_but_matches_contents():
    """Whole-line overwrites skip the device read; contents still match a
    fill-then-patch, and a partial store on the same line still fills."""
    fast = FastMachine(small(tuna))
    ref = ReferenceMachine(small(tuna))
    line = fast.cache.line_size
    seeded = bytes(range(256))[: 2 * line]
    for machine in (fast, ref):
        machine.nvram.persist(WINDOW_BASE, seeded)
        # full-line overwrite, then a partial poke on the next (seeded) line
        machine.store(WINDOW_BASE, b"\xaa" * line)
        machine.store(WINDOW_BASE + line + 3, b"\xbb")
    assert_same_state(fast, ref, "after the two stores")
    assert fast.load(WINDOW_BASE, 2 * line) == ref.load(WINDOW_BASE, 2 * line)
    assert fast.load(WINDOW_BASE, 2 * line) == (
        b"\xaa" * line + seeded[line : line + 3] + b"\xbb" + seeded[line + 4 :]
    )


def test_pending_max_survives_partial_flush_dmb_interleaving():
    """The barriers wait on an incrementally tracked latest completion;
    it must equal a fresh max() over per-line completions at every
    barrier, even when flushes interleave with dmb (which does not clear
    the queue — only persist_barrier does)."""
    fast = FastMachine(small(tuna))
    ref = ReferenceMachine(small(tuna))
    line = fast.cache.line_size
    for machine in (fast, ref):
        for i in range(8):
            machine.store(WINDOW_BASE + i * line, b"\x11" * line)
        machine.cache_line_flush(WINDOW_BASE, WINDOW_BASE + 3 * line)
        machine.dmb()  # waits, but pending stays queued
    assert fast.cpu.pending
    assert_same_state(fast, ref, "after the first dmb")
    for machine in (fast, ref):
        machine.cache_line_flush(WINDOW_BASE + 3 * line, WINDOW_BASE + 8 * line)
        machine.dmb()
    assert_same_state(fast, ref, "after the second dmb")
    for machine in (fast, ref):
        machine.persist_barrier()
        machine.store(WINDOW_BASE, b"\x22")
        machine.cache_line_flush(WINDOW_BASE, WINDOW_BASE + 1)
        machine.dmb()  # must wait on the new flush only
    assert not ref.pending_lines() or fast.cpu.pending
    assert_same_state(fast, ref, "after barrier + reflush")


@pytest.mark.parametrize("seed", range(20))
def test_power_fail_at_every_step_matches_oracle(seed):
    """Cut power after every prefix of a random op sequence: the same
    8-byte units land in the same order (one seeded RNG stream each), so
    the durable images must be equal."""
    make_config = (tuna, nexus5)[seed % 2]
    ops = list(random_ops(random.Random(seed), 24))
    for cut in range(1, len(ops) + 1):
        fast = FastMachine(small(make_config), seed=seed)
        ref = ReferenceMachine(small(make_config), seed=seed)
        for op in ops[:cut]:
            apply_op(fast, op)
            apply_op(ref, op)
        fast.power_fail()
        ref.power_fail()
        assert_same_state(fast, ref, f"after power loss at step {cut} (seed {seed})")
        assert not fast.cpu.pending and fast.cache.dirty_line_count() == 0


class _Boom(Exception):
    pass


@PROFILES
def test_crash_hook_mid_range_matches_oracle(make_config):
    """A hook firing on the k-th dccmvac of one flush call sees exactly
    the lines flushed so far: queue, dirty set, clock and stats equal the
    per-instruction model's — for a bare exception and for a real
    controller-driven power failure."""
    line = make_config().cache.line_size
    start = WINDOW_BASE + 5  # unaligned: covers 41 lines, the first partial
    length = 40 * line
    for k in range(1, 42):
        fast = FastMachine(small(make_config), seed=k)
        ref = ReferenceMachine(small(make_config), seed=k)
        for machine in (fast, ref):
            machine.memcpy(start, bytes(range(256)) * (length // 256) + b"\x01" * (length % 256))
            # punch clean holes so the range is several runs
            machine.cache_line_flush(start + 7 * line, start + 9 * line)
            machine.store(start + 20 * line, b"again")
            seen = [0]

            def hook(op, seen=seen):
                if op == "dccmvac":
                    seen[0] += 1
                    if seen[0] == k:
                        raise _Boom

            machine.set_hook(hook)
            with pytest.raises(_Boom):
                machine.cache_line_flush(start, start + length)
            machine.set_hook(None)
        assert_same_state(fast, ref, f"with the hook firing at dccmvac {k}")

        # the same cut as a real power failure
        for machine in (fast, ref):
            machine.cache_line_flush(start, start + length)  # finish the range
            machine.memcpy(start, b"\x5a" * length)
        fast.crash.arm(k, op_filter=lambda op: op == "dccmvac")
        with pytest.raises(PowerFailure):
            fast.cache_line_flush(start, start + length)
        countdown = [k]

        def cut(op, countdown=countdown):
            if op == "dccmvac":
                countdown[0] -= 1
                if countdown[0] == 0:
                    ref.set_hook(None)
                    ref.power_fail()
                    raise PowerFailure("reference power failure")

        ref.set_hook(cut)
        with pytest.raises(PowerFailure):
            ref.cache_line_flush(start, start + length)
        assert_same_state(fast, ref, f"after power failure at dccmvac {k}")


@PROFILES
def test_run_drain_matches_per_line_drains_under_fault_injector(make_config):
    """Random ops with run-time decay storms on both devices: a run drain
    charges each wear region and clears each poisoned unit exactly as the
    per-line drains do, and loads fail on the same poisoned units."""
    spec = MediaFaultSpec(bit_flips=2, stuck_units=2, poison_units=3)
    fast = FastMachine(small(make_config))
    ref = ReferenceMachine(small(make_config))
    for machine in (fast, ref):
        machine.nvram.fault_injector = NvramFaultInjector(spec, seed=11)
    rng = random.Random(2016)
    cleared = 0
    for step, op in enumerate(random_ops(rng, 600, storms=True)):
        before = len(ref.nvram.fault_injector.poisoned)
        got = apply_op(fast, op)
        want = apply_op(ref, op)
        assert got == want, f"load mismatch at step {step}: {op[:2]}"
        if op[0] == "pb":
            cleared += before - len(ref.nvram.fault_injector.poisoned)
        if op[0] in ("pb", "storm"):
            assert (
                fast.nvram.fault_injector.poisoned
                == ref.nvram.fault_injector.poisoned
            ), f"poison diverged at step {step}"
            assert fast.nvram.fault_injector.stuck == ref.nvram.fault_injector.stuck
            assert_same_state(fast, ref, f"at step {step}: {op[0]}")
    assert_same_state(fast, ref, "at the end")
    assert cleared > 0  # some drain really did clear poison


def test_run_drain_wear_and_poison_at_the_device():
    """One run spanning several wear regions vs. the same lines written one
    by one: identical image, per-region wear and cleared poison."""
    line = 32
    config = small(tuna).nvram
    by_run, by_line = NvramDevice(config), NvramDevice(config)
    spec = MediaFaultSpec()
    addr = 5 * WEAR_REGION - 2 * line  # starts late in a region
    data = random.Random(3).randbytes(3 * WEAR_REGION + line)  # ends early in one
    for device in (by_run, by_line):
        device.fault_injector = NvramFaultInjector(spec, seed=0)
        device.fault_injector.poisoned = {
            addr - ATOMIC_UNIT,  # just below: stays
            addr,  # first unit
            addr + 4 * line + ATOMIC_UNIT,  # interior
            addr + len(data) - ATOMIC_UNIT,  # last unit
            addr + len(data),  # just above: stays
        }
    assert by_run.persist_lines([(addr, data)], line) == len(data)
    for offset in range(0, len(data), line):
        by_line.persist(addr + offset, data[offset : offset + line])
    assert by_run.durable_image() == by_line.durable_image()
    assert by_run.hottest_regions(100) == by_line.hottest_regions(100)
    assert by_run.hottest_regions(100)[0][1] == WEAR_REGION // line
    assert by_run.fault_injector.poisoned == by_line.fault_injector.poisoned
    assert by_run.fault_injector.poisoned == {addr - ATOMIC_UNIT, addr + len(data)}


@PROFILES
def test_media_error_on_partial_write_allocate_zero_fills(make_config):
    """Write-allocating a line that holds a poisoned unit cannot read it:
    the unwritten bytes of that line become zeros (not stale arena bytes,
    not an exception), on the head and on the tail line of an extent."""
    fast = FastMachine(small(make_config))
    ref = ReferenceMachine(small(make_config))
    line = fast.cache.line_size
    head = WINDOW_BASE + 4 * line
    tail = head + 6 * line
    for machine in (fast, ref):
        machine.nvram.persist(head, b"\xee" * (7 * line))
        injector = NvramFaultInjector(MediaFaultSpec(), seed=0)
        injector.poisoned = {head + ATOMIC_UNIT, tail + 2 * ATOMIC_UNIT}
        machine.nvram.fault_injector = injector
        # partial head line, five full lines, partial tail line
        machine.store(head + line - 3, b"\x77" * (3 + 5 * line + 2))
        machine.cache_line_flush(head, tail + line)
        machine.dmb()
        machine.persist_barrier()  # full-line write-back clears the poison
    assert not fast.nvram.fault_injector.poisoned
    assert_same_state(fast, ref, "after the write-back")
    want = (
        bytes(line - 3) + b"\x77" * (3 + 5 * line + 2) + bytes(line - 2)
    )
    assert fast.nvram.read(head, 7 * line) == want


def test_poisoned_unit_under_resident_lines_still_fails_the_load():
    """The single-slice load shortcut is only for healthy media: a unit
    poisoned at run time fails loads over it even though every line of the
    range is resident, until a write-back clears it."""
    fast = FastMachine(small(tuna))
    line = fast.cache.line_size
    fast.store(WINDOW_BASE, b"\x42" * (4 * line))
    injector = NvramFaultInjector(MediaFaultSpec(), seed=0)
    fast.nvram.fault_injector = injector
    assert fast.load(WINDOW_BASE, 4 * line) == b"\x42" * (4 * line)
    injector.poisoned = {WINDOW_BASE + line}
    with pytest.raises(MediaError):
        fast.load(WINDOW_BASE, 4 * line)
    fast.cache_line_flush(WINDOW_BASE, WINDOW_BASE + 4 * line)
    fast.dmb()
    fast.persist_barrier()
    assert fast.load(WINDOW_BASE, 4 * line) == b"\x42" * (4 * line)


@seeded_profiles(35)
def test_randomized_ops_with_compute_match_per_line_oracle(make_config, seed):
    """The primitives charge the clock, their bucket and their counters
    inline; interleaved with ``compute`` on two buckets they still match
    the reference's ``SimClock.advance`` + ``Stats.add_time``, exactly."""
    fast = FastMachine(small(make_config))
    ref = ReferenceMachine(small(make_config))
    ops = with_compute(random.Random(-seed), random_ops(random.Random(seed), 500))
    run_lockstep(fast, ref, ops)
    assert fast.stats.get_time(TimeBucket.HEAP) > 0
    assert fast.stats.get_count(statnames.NVRAM_LINES_PERSISTED) > 0


def test_armed_hook_sees_every_primitive_in_program_order():
    """The whole sequence of steps an armed hook sees for a fixed script:
    one per store, memcpy, flush call, dmb and persist barrier, in program
    order, plus one ``"dccmvac"`` per line a flush call covers; loads and
    ``compute`` are not steps.  At every step the clock, stats and queue
    already hold everything before it, as in the per-line reference."""
    line = tuna().cache.line_size
    a = WINDOW_BASE
    script = [
        ("store", a + 5, b"s" * 40),
        ("memcpy", a + 64, b"m" * 100),
        ("load", a, 200),
        ("compute", 500, TimeBucket.CPU),
        ("flush", a, a + 3 * line + 1),  # four lines
        ("dmb",),
        ("flush", a + 10, a + 10),  # empty range: the call only
        ("compute", 70.5, TimeBucket.HEAP),
        ("flush", a + 2 * line - 1, a + 2 * line + 1),  # straddles: two
        ("pb",),
        ("store", a, b"x"),
        ("memcpy", a + 4 * line, b"y" * line),
        ("flush", a, a + 5 * line),  # five lines, two of them dirty
        ("dmb",),
        ("pb",),
    ]
    expected = [
        "store", "memcpy",
        "cache_line_flush", "dccmvac", "dccmvac", "dccmvac", "dccmvac",
        "dmb",
        "cache_line_flush",
        "cache_line_flush", "dccmvac", "dccmvac",
        "persist_barrier",
        "store", "memcpy",
        "cache_line_flush", *["dccmvac"] * 5,
        "dmb", "persist_barrier",
    ]
    steps = {}
    for name, machine in (
        ("fast", FastMachine(small(tuna))),
        ("reference", ReferenceMachine(small(tuna))),
    ):
        seen = steps[name] = []

        def hook(op, machine=machine, seen=seen):
            seen.append((
                op,
                repr(machine.clock.now_ns),
                {k: repr(v) for k, v in machine.stats.time_ns.items()},
                dict(machine.stats.counters),
                machine.pending_lines(),
            ))

        machine.set_hook(hook)
        for op in script:
            apply_op(machine, op)
        assert [step[0] for step in seen] == expected, name
    assert steps["fast"] == steps["reference"]
