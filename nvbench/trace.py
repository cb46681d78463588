"""Outside-in layer ledger: wrap each layer's public entry points at run time.

The traced round patches a table of ``(layer, owner, attribute)`` before
the ``System`` is built and restores every attribute afterwards; nothing
under ``src/`` is edited.  Each wrapper opens a span on one (implicit) span
stack and, on the way out, adds to its function's ``[calls, total_ns,
self_ns]`` — self time is the call's duration minus what its child spans
covered.
A module-level function that other modules import by name (``parse``,
``compute_extents``) is patched in every ``repro.*`` module that holds
the same object.  Generator functions (the service layer's requests and
daemons, ``BTree.scan``) are timed per resume step, so the time a parked
generator spends suspended belongs to whoever runs meanwhile.

End-to-end metrics never come from a traced round.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types


class Tracer:
    """Span stack, per-function aggregates and the patch list."""

    def __init__(self, span_ops: int = 0) -> None:
        #: (layer, "Owner.attr") -> [calls, total_ns, self_ns]
        self.functions: dict[tuple[str, str], list[int]] = {}
        #: Probe sums (argument sizes seen at a boundary), by name.
        self.counters: dict[str, int] = {}
        #: The innermost open span: [ns its finished children covered,
        #: its index in ``spans`` or -1].  See :meth:`wrap`.
        self.top: list[int] = [0, -1]
        #: Full spans of the first ``span_ops`` ops:
        #: [name, start_ns, end_ns, parent index, op id].
        self.spans: list[list] = []
        self.span_ops = span_ops
        #: Id of the client request being served; -1 outside any request
        #: (daemons).  Set through :meth:`begin_op`.
        self.op = -1
        self._recording = False
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self, table) -> None:
        """Wrap every ``(layer, owner, attr[, probe])`` entry of ``table``."""
        for layer, owner, attr, *probe in table:
            if attr not in vars(owner):
                raise LookupError(f"{_owner_name(owner)} does not define {attr}")
            original = vars(owner)[attr]
            name = f"{_owner_name(owner)}.{attr}"
            wrapper = self.wrap(layer, name, original, probe[0] if probe else None)
            if isinstance(owner, types.ModuleType):
                # Patch the defining module and every importer-by-name.
                for module in list(sys.modules.values()):
                    if (
                        getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is original
                    ):
                        self._patch(module, attr, original, wrapper)
            else:
                self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back (the identical object)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    def begin_op(self, op: int) -> None:
        """The driver starts client request ``op`` (-1: none)."""
        self.op = op
        self._recording = 0 <= op < self.span_ops

    # -- wrappers ---------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, probe=None):
        """Return ``fn`` wrapped as one span of ``layer``.

        The span stack is implicit: ``top`` holds, for the innermost open
        span, the time its finished children covered and its index in
        ``spans``; each wrapper saves both in its own (Python) frame on
        the way in and restores them — with its own duration added to the
        parent's children — on the way out, also when ``fn`` raises.  The
        bookkeeping is spelled out inline in both wrappers, without a
        per-call allocation or helper call: on ``Pager.get_page`` either
        would double the tracing overhead.
        """
        agg = self.functions.setdefault((layer, name), [0, 0, 0])
        top, spans, now = self.top, self.spans, time.perf_counter_ns
        tracer = self
        counters = self.counters
        if probe is not None:
            counter, measure = probe
            counters.setdefault(counter, 0)

        if not inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                agg[0] += 1
                if probe is not None:
                    counters[counter] += measure(args, kwargs)
                covered, parent = top
                top[0] = 0
                if tracer._recording:
                    top[1] = len(spans)
                    spans.append([name, 0, 0, parent, tracer.op])
                started = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ended = now()
                    spent = ended - started
                    agg[1] += spent
                    agg[2] += spent - top[0]
                    top[0] = covered + spent
                    if top[1] != parent:
                        spans[top[1]][1:3] = started, ended
                        top[1] = parent

            return wrapper

        def drive(gen, op):
            # One span per resume step.  Steps of one request interleave
            # with other sessions': each runs under ``op``, the request
            # the generator was created for, so a request's spans share it.
            value, send = None, gen.send
            try:
                while True:
                    outer, tracer.op = tracer.op, op
                    covered, parent = top
                    top[0] = 0
                    if tracer._recording:
                        top[1] = len(spans)
                        spans.append([name, 0, 0, parent, op])
                    started = now()
                    try:
                        item = send(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        ended = now()
                        spent = ended - started
                        agg[1] += spent
                        agg[2] += spent - top[0]
                        top[0] = covered + spent
                        if top[1] != parent:
                            spans[top[1]][1:3] = started, ended
                            top[1] = parent
                        tracer.op = outer
                    # Nothing in the program throws into a suspended
                    # generator; close() is the only early exit.
                    value = yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            agg[0] += 1
            return drive(fn(*args, **kwargs), tracer.op)

        return wrapper

    # -- reading ----------------------------------------------------------

    def reset(self) -> None:
        """Zero the aggregates (called where the measured phase starts)."""
        for agg in self.functions.values():
            agg[:] = [0, 0, 0]
        for counter in self.counters:
            self.counters[counter] = 0
        del self.spans[:]

    def by_layer(self) -> dict[str, dict[str, int]]:
        """Per layer: calls, total_ns, self_ns summed over its functions."""
        out: dict[str, dict[str, int]] = {}
        for (layer, _name), (calls, total, own) in self.functions.items():
            row = out.setdefault(layer, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += calls
            row["total_ns"] += total
            row["self_ns"] += own
        return out

    def calls_of(self, name: str) -> int:
        return sum(agg[0] for (_l, n), agg in self.functions.items() if n == name)

    def span_records(self, origin_ns: int) -> list[dict]:
        return [
            {"name": name, "start_ns": start - origin_ns, "end_ns": end - origin_ns,
             "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]


def _owner_name(owner) -> str:
    if isinstance(owner, types.ModuleType):
        return owner.__name__.rsplit(".", 1)[-1]
    return owner.__name__


def layer_table():
    """The entry points of each layer (packages under ``src/repro/``).

    Only what another layer (or the benchmark) calls is listed: a call
    that stays inside one layer would split that layer's self time
    between two rows of the same sum and cost a wrapper for nothing.

    Left with their callers, because the body costs less than a wrapper
    and they run on every op (tracing ``Cpu.compute`` alone added ~10% to
    a kv-read round): ``Cpu.compute`` (one clock advance per page visit),
    the pager's per-transaction bookkeeping (``begin``, ``dirty_pages``,
    ``pre_images``, ``commit_finish``), ``UserHeap.fits`` and
    ``WalBackend.maybe_checkpoint`` (one comparison each),
    ``PersistDomain.after_store`` (a no-op under the explicit persistency
    model every workload uses).
    """
    from repro.archive.store import SegmentArchive
    from repro.db.btree import BTree
    from repro.db.database import Database
    from repro.db.pager import Pager
    from repro.db.sql import parser
    from repro.db.sql.executor import Executor
    from repro.hw.cpu import Cpu
    from repro.hw.crash import CrashController
    from repro.nvram.heapo import Heapo
    from repro.nvram.persistency import PersistDomain
    from repro.nvram.userheap import UserHeap
    from repro.replication import segment
    from repro.replication.cluster import Cluster
    from repro.replication.node import FollowerNode, ReplicaWalBackend
    from repro.replication.ship import Channel, Replicator, ShippingLog
    from repro.service.server import DatabaseService
    from repro.storage.blockdev import BlockDevice
    from repro.storage.ext4 import Ext4FileSystem, File
    from repro.wal import diff
    from repro.wal.filewal import FileWalBackend
    from repro.wal.nvwal import NvwalBackend

    def second_argument_size(args, _kwargs) -> int:
        return len(args[1])  # (self, dirty_pages, ...) / (self, payload)

    table = [("db.sql", parser, "parse"), ("db.sql", Executor, "run")]
    table += [("db.btree", BTree, name) for name in (
        "get", "scan", "count", "min_key", "max_key", "insert", "update",
        "delete", "free_all", "check_invariants", "pages", "depth")]
    table += [("db.pager", Pager, name) for name in (
        "get_page", "install_page", "mark_dirty", "allocate_page",
        "free_page", "free_pages", "rollback", "push_snapshot",
        "pop_snapshot", "page_image")]
    table += [("db.database", Database, name) for name in (
        "__init__", "execute", "executemany", "snapshot_query", "begin",
        "commit", "group_commit", "flush_group", "rollback", "checkpoint",
        "check_integrity", "table_exists")]
    for backend in (NvwalBackend, FileWalBackend):
        table += [("wal", backend, "write_transaction", ("dirty_pages", second_argument_size))]
        table += [("wal", backend, name) for name in ("recover", "checkpoint")]
    table += [("wal", NvwalBackend, "group_append", ("dirty_pages", second_argument_size))]
    table += [("wal", NvwalBackend, name) for name in (
        "group_begin", "group_close", "verify_log")]
    table += [("wal", ReplicaWalBackend, name) for name in ("recover", "checkpoint")]
    table += [("wal.diff", diff, name) for name in ("compute_extents", "apply_extents")]
    table += [("nvram", Heapo, name) for name in (
        "attach", "recover", "nvmalloc", "nv_pre_malloc",
        "nv_malloc_set_used_flag", "nvfree", "lookup", "allocation_at",
        "is_live", "quarantined_slots")]
    table += [("nvram", UserHeap, name) for name in (
        "pre_allocate_block", "commit_block", "adopt", "free_all", "allocate")]
    table += [("nvram", PersistDomain, name) for name in (
        "persist_range", "commit_barrier")]
    table += [("hw", Cpu, name) for name in (
        "store", "memcpy", "load", "load_free", "cache_line_flush", "dmb",
        "persist_barrier", "syscall_overhead")]
    table += [("hw", CrashController, name) for name in (
        "apply_power_loss", "power_on")]
    table += [("storage", File, name) for name in (
        "write", "read", "fsync", "fdatasync", "truncate", "preallocate")]
    table += [("storage", Ext4FileSystem, name) for name in (
        "mount", "create", "open", "exists", "unlink", "list_names",
        "sync_all", "power_fail")]
    table += [("storage", BlockDevice, "power_fail")]
    table += [("service", DatabaseService, name) for name in (
        "submit_txn", "submit_read", "commit_batcher", "maintenance")]
    table += [("replication", Replicator, name) for name in (
        "gate", "tick", "daemon")]
    table += [("replication", Channel, "send", ("segment_bytes", second_argument_size))]
    table += [("replication", Channel, "poll")]
    table += [("replication", ShippingLog, name) for name in ("seal", "evict_through")]
    table += [("replication", FollowerNode, name) for name in (
        "ingest", "become_primary", "snapshot_frames")]
    table += [("replication", Cluster, name) for name in (
        "kill_primary", "promote", "start_service")]
    table += [("replication", segment, name) for name in (
        "encode_segment", "decode_stream")]
    table += [("archive", SegmentArchive, name) for name in (
        "append", "sync", "write_snapshot", "floor_segment",
        "maybe_advance_floor", "segment_at", "gc", "power_fail", "recover",
        "truncate_above", "ensure_floor")]
    return table
