"""The harness kernel: everything around an oracle that is not the oracle.

Every adversarial harness here (crash torture, service chaos, replication
chaos, the differential fuzzer) is the same machine around a different
generator and oracle: sweep seeds on a process pool, digest the results,
write failing scenarios as JSON traces, shrink the first to a minimal
reproducer of the *same failure class*, prove it deterministic by running
it twice, and — under ``--sabotage NAME`` — make "the planted bug was
caught, minimized and replayed" the exit status.
This module is that machine, once; a harness declares a :class:`Harness`.
(:mod:`repro.bench.harness` is the unrelated benchmark sweep runner; it
keeps ``parallel_map``.)

Every harness writes one trace document, ``{"scenario", "violations"}``:
the scenario is the whole run, so a replay needs no flag.  Its planted
bugs are a registry by name (:attr:`Harness.sabotage`), and a flag that
more than one harness takes is declared here, once.

Shrinking is greedy delta debugging.  A *pass* maps ``(scenario,
still_fails, violations)`` — the last being what the unshrunk scenario
reported — to a scenario that is no larger and still fails; harnesses
declare passes as data with :func:`structural`, :class:`Lens` and
:func:`nested_lens`.  ``still_fails`` demands a violation of the same
class — the leading code word of a violation string — so a shrink cannot
drift onto an unrelated bug.  Every run is seeded, so minimization is
deterministic, and every accepted candidate is simpler, so it terminates.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, fields, replace
from functools import reduce
from operator import attrgetter, getitem
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

if TYPE_CHECKING:
    import argparse

T = TypeVar("T")

#: Raw failing traces written per sweep before we stop.
MAX_RAW_TRACES = 5


# ----------------------------------------------------------------------
# digest and trace files
# ----------------------------------------------------------------------


def digest(results) -> str:
    """SHA-256 over the canonical JSON (sorted keys, no whitespace) of a
    sweep's results: a function of the values only, so of no ``--jobs``."""
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_trace(trace_dir: str, name: str, payload: dict) -> str:
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


# ----------------------------------------------------------------------
# the delta-debugging core
# ----------------------------------------------------------------------


def shrink_sequence(
    items: Sequence[T],
    still_fails: Callable[[list[T]], bool],
    *,
    min_size: int = 0,
) -> list[T]:
    """Greedily remove chunks of ``items`` while ``still_fails`` holds.

    Chunk sizes start at half the sequence and halve down to 1; at each
    size, chunks are tried from the tail forward (later elements are
    usually consequences, earlier ones causes).  After any successful
    drop the same chunk size is retried, so the pass reaches a fixed
    point before refining.  ``min_size`` floors the result length —
    e.g. 1 keeps at least one element per transaction.
    """
    items = list(items)
    if len(items) <= min_size:
        return items
    chunk = max(1, len(items) // 2)
    while True:
        changed = False
        start = len(items) - chunk
        while start >= 0:
            if len(items) - chunk >= min_size:
                candidate = items[:start] + items[start + chunk :]
                if still_fails(candidate):
                    items = candidate
                    changed = True
            start -= chunk
        if changed:
            continue  # fixed point not reached at this granularity
        if chunk == 1:
            return items
        chunk = max(1, chunk // 2)


def shrink_to_prefix(
    items: Sequence[T],
    still_fails: Callable[[list[T]], bool],
    cut: int,
) -> list[T]:
    """Try truncating ``items`` after index ``cut`` (everything past the
    first observed failure is usually noise); keep the prefix only if the
    failure survives."""
    items = list(items)
    if cut + 1 >= len(items):
        return items
    candidate = items[: cut + 1]
    if still_fails(candidate):
        return candidate
    return items


# ----------------------------------------------------------------------
# shrink passes and the minimizer
# ----------------------------------------------------------------------


def failure_classes(violations: Iterable[str]) -> frozenset:
    """The leading code word of each violation (``ack-lost``, ``state``,
    ``result``, ...): everything up to the first ``:`` or blank."""
    return frozenset(re.match(r"[^\s:]*", v).group() for v in violations)


def structural(candidates: Callable) -> Callable:
    """Pass: ``candidates(scenario)`` yields simpler scenarios, most
    aggressive first; the first one that still fails replaces it."""

    def apply(scenario, still_fails, _violations=()):
        for candidate in candidates(scenario):
            if candidate != scenario and still_fails(candidate):
                return candidate
        return scenario

    return apply


def without(**values) -> Callable:
    """Pass: the scenario with ``values`` in place — one whole dimension
    (a fault plan, a kill script, a feature) gone — if it still fails."""
    return structural(lambda scenario: [replace(scenario, **values)])


@dataclass(frozen=True)
class Lens:
    """Pass: chunked greedy deletion over one tuple inside the scenario."""

    get: Callable
    put: Callable
    min_size: int = 0

    def __call__(self, scenario, still_fails, _violations=()):
        kept = shrink_sequence(
            self.get(scenario),
            lambda items: still_fails(self.put(scenario, tuple(items))),
            min_size=self.min_size,
        )
        return self.put(scenario, tuple(kept))


def field_lens(name: str, min_size: int = 0) -> Lens:
    """A :class:`Lens` on the tuple field ``name`` of a dataclass scenario."""
    return Lens(
        attrgetter(name),
        lambda scenario, items: replace(scenario, **{name: items}),
        min_size,
    )


def _paths(tree: tuple, level: int) -> list[tuple]:
    """Index paths of every node ``level`` steps below the root."""
    if level == 0:
        return [()]
    return [
        (i, *rest)
        for i, child in enumerate(tree)
        for rest in _paths(child, level - 1)
    ]


def _graft(tree: tuple, path: tuple, node: tuple) -> tuple:
    """``tree`` with the node at ``path`` replaced."""
    if not path:
        return node
    i = path[0]
    return tree[:i] + (_graft(tree[i], path[1:], node),) + tree[i + 1 :]


def nested_lens(name: str, min_sizes: Sequence[int]) -> Callable:
    """Pass over a nested-tuple field, coarsest level first.

    ``min_sizes[d]`` floors the child count of every node at depth ``d``:
    ``(1, 0, 1)`` over ``streams`` drops whole sessions (keeping one),
    then transactions per stream, then operations per transaction
    (keeping one); ``(0, 1)`` over ``txns`` is the single-session form.
    Top-level children emptied on the way are pruned if the failure
    survives that.
    """

    def with_tree(scenario, tree):
        return replace(scenario, **{name: tree})

    def apply(scenario, still_fails, _violations=()):
        for level, min_size in enumerate(min_sizes):
            # Shrinking a node changes its children, never the set of
            # nodes at its own level, so the paths stay valid.
            for path in _paths(getattr(scenario, name), level):
                node = Lens(
                    lambda s: reduce(getitem, path, getattr(s, name)),
                    lambda s, kept: with_tree(s, _graft(getattr(s, name), path, kept)),
                    min_size,
                )
                scenario = node(scenario, still_fails)
        tree = getattr(scenario, name)
        pruned = with_tree(scenario, tuple(child for child in tree if child))
        if pruned != scenario and getattr(pruned, name) and still_fails(pruned):
            return pruned
        return scenario

    return apply


def minimize(scenario, run: Callable, passes: Iterable[Callable]):
    """Shrink ``scenario`` through ``passes``, preserving at least one of
    its failure classes.  ``run(scenario)`` returns violation strings;
    each pass also gets the unshrunk scenario's."""
    violations = list(run(scenario))
    target = failure_classes(violations)
    if not target:
        raise ValueError("scenario does not fail; nothing to minimize")

    def still_fails(candidate) -> bool:
        return bool(failure_classes(run(candidate)) & target)

    for shrink in passes:
        scenario = shrink(scenario, still_fails, violations)
    return scenario


# ----------------------------------------------------------------------
# sessions -> txns -> ops: the scenario shape of the concurrent harnesses
# ----------------------------------------------------------------------


def session_stream(
    generate: Callable, seed: int, session: int, sessions: int, txns: int,
    txn_size: int,
) -> tuple:
    """One session's txn stream over its own key-space slice.

    ``generate(stream_seed, op_count, txn_size)`` emits transactions of
    ``(kind, key, value)`` ops.  Keys are remapped to ``k * sessions +
    session`` so streams never collide: each session's insert/update/
    delete semantics then match a per-key last-writer model no matter how
    commits interleave — and :func:`nested_lens` may drop any session
    without disturbing the others.
    """
    stream_seed = (seed * 8191 + session * 127 + 1) & 0x7FFFFFFF
    raw = generate(stream_seed, txns * txn_size, txn_size)
    return tuple(
        tuple((kind, key * sessions + session, value) for kind, key, value in txn)
        for txn in raw[:txns]
    )


def to_json(scenario) -> dict:
    """A frozen-dataclass scenario as JSON: tuples (at any depth) become
    lists, values with their own ``to_json`` (fault plans) use it."""

    def encode(value):
        if isinstance(value, tuple):
            return [encode(item) for item in value]
        return value.to_json() if hasattr(value, "to_json") else value

    return {f.name: encode(getattr(scenario, f.name)) for f in fields(scenario)}


def from_json(cls, data: dict, **decoders: Callable):
    """Rebuild ``cls`` from :func:`to_json` output.

    Lists become tuples again; ``decoders[field]`` rebuilds a nested
    object from its dict.  A missing (or null) key takes the field's
    default and an unknown key is ignored, so traces survive added and
    removed fields.
    """

    def tuples(value):
        return tuple(map(tuples, value)) if isinstance(value, list) else value

    return cls(
        **{
            f.name: decoders.get(f.name, tuples)(data[f.name])
            for f in fields(cls)
            if data.get(f.name) is not None
        }
    )


# ----------------------------------------------------------------------
# flags more than one harness takes: name, type and help written once,
# the harness's default passed in
# ----------------------------------------------------------------------

#: Default per-seed scheme rotation (the three the crash matrix covers).
ROTATION = ("uh_ls_diff", "ls", "eager")


def rotated(name: str, seed: int, rotation=ROTATION) -> str:
    """Resolve a ``rotate``-able flag: ``rotate`` cycles ``rotation`` by seed."""
    return rotation[seed % len(rotation)] if name == "rotate" else name


def add_scheme_flag(parser, rotation=ROTATION) -> None:
    from repro.wal.nvwal import SCHEMES

    parser.add_argument(
        "--scheme",
        default="rotate",
        choices=["rotate", *sorted(SCHEMES)],
        help="NVWAL scheme; 'rotate' cycles %s by seed" % (rotation,),
    )


def fault_kinds(flag: str) -> tuple:
    """``--faults a,b`` as a sorted, de-duplicated tuple; ``none`` is empty."""
    kinds = {item.strip() for item in flag.split(",") if item.strip()}
    return tuple(sorted(kinds - {"none"}))


def add_faults_flag(parser, default: str, kinds: Sequence[str]) -> None:
    parser.add_argument(
        "--faults",
        type=fault_kinds,
        default=default,
        help=f"comma list of faults to inject, from {','.join(kinds)} "
        "('none' for a clean run)",
    )


def add_sessions_flag(parser, default: int = 4) -> None:
    parser.add_argument("--sessions", type=int, default=default, help="client sessions")


def add_txn_size_flag(parser) -> None:
    parser.add_argument("--txn-size", type=int, default=3, help="max ops per txn")


def add_session_flags(parser, txns: int) -> None:
    """The chaos harnesses' workload: sessions, total txns, txn size."""
    add_sessions_flag(parser)
    parser.add_argument("--txns", type=int, default=txns, help="txns across sessions")
    add_txn_size_flag(parser)


def add_checkpoint_flag(parser, default: int) -> None:
    parser.add_argument(
        "--checkpoint-threshold",
        type=int,
        default=default,
        help="WAL frames per checkpoint (small = frequent checkpoints)",
    )


# ----------------------------------------------------------------------
# the sweep CLI
# ----------------------------------------------------------------------


def replay_twice(run: Callable, scenario) -> tuple[list[str], bool]:
    """Run a scenario twice: its violations, and whether both runs agree."""
    first = list(run(scenario))
    return first, first == list(run(scenario))


class Harness:
    """What one harness declares; subclass and fill in.

    A *scenario* is a frozen, picklable dataclass with a ``seed``; a
    *task* is the picklable per-seed work item of the sweep; a *result*
    is the JSON-able dict ``run_task`` returns for it.
    """

    prog: str
    description: str
    #: Default ``--trace-dir`` and ``--seeds``.
    trace_dir: str
    seeds: int = 8
    #: The planted bugs ``--sabotage NAME`` selects, name -> what it
    #: plants; a bare ``--sabotage`` plants the first.  The scenario's
    #: ``sabotage`` field carries the name ("" for none), and the driver
    #: maps it to the broken subclass beside it.
    sabotage: dict = {}
    #: Shrink passes, applied in order by :func:`minimize`.
    passes: tuple = ()
    #: The task dataclass, and ``run_task(task) -> result``: module-level
    #: (it crosses the process pool), so assign it with ``staticmethod``.
    task_type: type
    run_task: Callable
    #: Scenario decoder, usually a :func:`from_json` partial.
    from_json: Callable

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        """The harness's own flags."""

    def tasks(self, args: argparse.Namespace) -> list:
        """One task per seed: every ``task_type`` field named like a flag
        takes that flag's value.  Override to validate (``ValueError`` on
        a senseless flag combination is exit status 2) or to vary more."""
        flags = {
            f.name: getattr(args, f.name)
            for f in fields(self.task_type)
            if hasattr(args, f.name)
        }
        return [self.task_type(**flags, seed=seed) for seed in range(args.seeds)]

    def failures(self, task, result: dict) -> list[dict]:
        """The failing trace documents of one task's result —
        ``{"scenario", "violations"}``, possibly with more keys.  By
        default the result itself is one, failing when it lists
        violations."""
        return [result] if result.get("violations") else []

    def format_result(self, result: dict) -> str:
        raise NotImplementedError

    def run(self, scenario) -> Sequence[str]:
        """The oracle: violation strings, ``code: detail``."""
        raise NotImplementedError

    def load(self, document: dict):
        """The scenario inside a trace document.  A planted bug this
        harness does not have — an unknown name, or a bool from before
        bugs had names — is refused, not replayed as some other run."""
        name = document["scenario"].get("sabotage", "")
        if not isinstance(name, str) or (name and name not in self.sabotage):
            raise ValueError(
                f"trace field 'sabotage': {name!r} is not one of "
                f"{('', *self.sabotage)}"
            )
        return self.from_json(document["scenario"])

    def minimize_and_verify(self, scenario, trace_dir: str):
        """Shrink a failing scenario, record it, and prove the recorded
        trace deterministic by running it twice.  Returns the minimized
        scenario, or None when it does not verifiably still fail."""
        small = minimize(scenario, self.run, self.passes)
        violations, deterministic = replay_twice(self.run, small)
        for violation in violations:
            print(f"  {violation}")
        document = {"scenario": to_json(small), "violations": violations}
        path = write_trace(trace_dir, f"minimized-{small.seed}.json", document)
        print(f"minimized trace: {path}")
        if not violations or not deterministic:
            print("minimized trace does NOT replay deterministically — harness bug")
            return None
        print("minimized trace replays deterministically")
        return small


def replay(harness: Harness, path: str) -> int:
    """Replay one recorded trace; exit status 0 only if it passes, 2 if
    the trace is refused."""
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    try:
        scenario = harness.load(document)
    except ValueError as exc:
        print(f"refusing {path}: {exc}")
        return 2
    violations, deterministic = replay_twice(harness.run, scenario)
    print(f"replaying {path}")
    for violation in violations:
        print(f"  {violation}")
    if not deterministic:
        print("replay is NOT deterministic — harness bug")
        return 1
    if not violations:
        print("  no violations (scenario passes)")
        return 0
    print(f"  {len(violations)} violation(s), deterministic across replays")
    return 1


def add_arguments(harness: Harness, parser: argparse.ArgumentParser) -> None:
    """Install the kernel's flags and the harness's own on ``parser``."""
    parser.add_argument(
        "--seeds", type=int, default=harness.seeds, help="seeds 0..N-1 to sweep"
    )
    harness.add_arguments(parser)
    parser.add_argument("--jobs", type=int, default=1, help="parallel seed workers")
    parser.add_argument(
        "--trace-dir",
        default=harness.trace_dir,
        help="directory for failing-trace JSON files",
    )
    parser.add_argument(
        "--replay", metavar="TRACE", help="replay one recorded trace and exit"
    )
    if harness.sabotage:
        names = list(harness.sabotage)
        planted = "; ".join(f"'{n}': {what}" for n, what in harness.sabotage.items())
        parser.add_argument(
            "--sabotage",
            nargs="?",
            const=names[0],
            default="",
            choices=names,
            metavar="NAME",
            help=f"self-test: plant a bug ({planted}; bare: '{names[0]}'); "
            "the sweep must find, minimize, and deterministically replay it",
        )
    parser.add_argument(
        "--no-minimize",
        action="store_true",
        help="write raw failing traces without shrinking them",
    )


def run(harness: Harness, args: argparse.Namespace) -> int:
    """Replay one trace, or sweep the seeds and record what failed.

    Exit status: 0 for a clean sweep or passing replay, 2 for a senseless
    flag combination, 1 otherwise.  Under ``--sabotage`` the sweep is a
    self-test: 0 iff the planted bug was found, minimized and replayed
    deterministically.
    """
    if args.replay:
        return replay(harness, args.replay)
    try:
        tasks = harness.tasks(args)
    except ValueError as exc:
        print(exc)
        return 2
    # Imported here, with argparse in main(): the drivers import this
    # module for the scenario codec, and a serving process should not pay
    # for the process pool and the bench stack behind it.
    from repro.bench.harness import parallel_map

    print(f"{harness.prog}: {len(tasks)} task(s), jobs={args.jobs}")
    results = parallel_map(harness.run_task, tasks, jobs=args.jobs)
    failures: list[dict] = []
    for task, result in zip(tasks, results):
        failures.extend(harness.failures(task, result))
        print(harness.format_result(result))
    print(
        f"total: {len(results)} result(s), "
        f"{len(failures)} violating scenario(s)"
    )
    print(f"result digest: sha256:{digest(results)}")

    sabotage = getattr(args, "sabotage", "")
    if sabotage and not failures:
        print("sabotage self-test FAILED: the planted bug went undetected")
        return 1
    if not failures:
        return 0
    if sabotage:
        print(
            f"sabotage self-test: planted bug detected in "
            f"{len(failures)} scenario(s)"
        )
    else:
        for i, failure in enumerate(failures[:MAX_RAW_TRACES]):
            name = f"trace-{harness.load(failure).seed}-{i}.json"
            print(f"failing trace: {write_trace(args.trace_dir, name, failure)}")
        if args.no_minimize:
            return 1
    first = harness.load(failures[0])
    verified = harness.minimize_and_verify(first, args.trace_dir) is not None
    return 0 if sabotage and verified else 1


def main(harness: Harness, argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog=harness.prog, description=harness.description
    )
    add_arguments(harness, parser)
    return run(harness, parser.parse_args(argv))
