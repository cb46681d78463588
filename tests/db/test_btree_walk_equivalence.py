"""The B-tree read walk against the reference walk it replaced.

``BTree.get`` and ``BTree.scan`` read page images directly;
``tests/db/reference_btree.py`` keeps the ``SlottedPage`` walk they
replaced.  Over random insert/delete histories (inline and overflow
payloads, trees grown to several levels and shrunk back to one leaf) both
must return the same rows *and* ask ``Pager.get_page`` for the same page
numbers in the same order — page visits are what the simulated clock
charges — for every bound a scan can get: open ends, a leaf's first and
last key, ``lo > hi``, bounds past both ends of the tree.  A corrupt page
type byte must end both walks with the same exception.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import tuna
from repro.db.btree import BTree
from repro.db.page import SlottedPage
from repro.db.pager import Pager
from repro.system import System
from tests.db.reference_btree import ReferenceBTree

_MIN_KEY, _MAX_KEY = -(2**63), 2**63 - 1
#: A corrupt page can route a walk in a cycle; both walks stop here.
_VISIT_LIMIT = 5_000


class _Runaway(Exception):
    pass


def _payload(key: int, size: int) -> bytes:
    return bytes((key * 31 + i) % 251 for i in range(size))


def _build(history, keep: int | None):
    """A tree after ``history`` (then shrunk to its ``keep`` smallest keys)."""
    system = System(tuna(), seed=0)
    pager = Pager(system, system.fs.create("walk.db"), early_split=True)
    pager.begin()
    tree = BTree.create(pager)
    model: dict[int, bytes] = {}
    for insert, key, size in history:
        if insert:
            payload = _payload(key, size)
            tree.insert(key, payload, replace=True)
            model[key] = payload
        elif key in model:
            tree.delete(key)
            del model[key]
    if keep is not None:
        for key in sorted(model)[keep:]:
            tree.delete(key)
            del model[key]
    return pager, tree, model


def _leaf_bounds(pager: Pager, tree: BTree) -> list[int]:
    """First and last key of every leaf, walked along the leaf chain."""
    page = SlottedPage(pager.get_page(tree._descend_to_leaf(_MIN_KEY)))
    bounds = []
    while True:
        if page.n_cells:
            bounds += [page.cell_key(0), page.cell_key(page.n_cells - 1)]
        if not page.aux:
            return bounds
        page = SlottedPage(pager.get_page(page.aux))


def _probe_keys(pager: Pager, tree: BTree, model) -> list[int]:
    keys = set(_leaf_bounds(pager, tree)) | {_MIN_KEY, _MAX_KEY, 0}
    if model:
        keys |= {min(model) - 1, max(model) + 1}
    keys |= {
        k + d for k in list(keys) for d in (-1, 1) if _MIN_KEY <= k + d <= _MAX_KEY
    }
    return sorted(keys)


def _recorder(pager: Pager) -> list:
    """Record the page number of every ``get_page`` call on ``pager``."""
    visits: list = []
    real = Pager.get_page

    def get_page(pno):
        visits.append(pno)
        if len(visits) > _VISIT_LIMIT:
            raise _Runaway(pno)
        return real(pager, pno)

    pager.get_page = get_page
    return visits


def _outcome(visits: list, call):
    """(result or exception, the page numbers visited) of ``call()``."""
    visits.clear()
    try:
        result = ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        result = ("raised", type(exc), str(exc))
    return result, list(visits)


def _assert_same(pager: Pager, root: int, keys: list[int], bound_pairs) -> None:
    product, reference = BTree(pager, root), ReferenceBTree(pager, root)
    visits = _recorder(pager)
    for key in keys:
        want = _outcome(visits, lambda: reference.get(key))
        assert _outcome(visits, lambda: product.get(key)) == want, ("get", key)
    for lo, hi in bound_pairs:
        want = _outcome(visits, lambda: list(reference.scan(lo, hi)))
        got = _outcome(visits, lambda: list(product.scan(lo, hi)))
        assert got == want, ("scan", lo, hi)
    # A consumer that stops early (min_key, LIMIT) stops both walks at
    # the same page.
    for lo, hi in bound_pairs[:4]:
        want = _outcome(
            visits, lambda: list(itertools.islice(reference.scan(lo, hi), 1))
        )
        got = _outcome(
            visits, lambda: list(itertools.islice(product.scan(lo, hi), 1))
        )
        assert got == want, ("scan, first row", lo, hi)


def _bound_pairs(keys: list[int]) -> list[tuple]:
    ends = [None, keys[0], keys[-1]]
    pairs = [(None, None), (keys[-1], keys[0])]  # lo > hi
    pairs += [(lo, None) for lo in keys] + [(None, hi) for hi in keys]
    pairs += [(lo, hi) for lo in ends for hi in ends]
    pairs += [(lo, hi) for lo, hi in zip(keys, keys[1:])]
    pairs += [(lo, hi) for lo, hi in zip(keys, keys[2:])]
    pairs += [(hi, lo) for lo, hi in zip(keys, keys[3:])]
    return pairs


_SIZES = st.one_of(
    st.integers(0, 120),  # many cells a leaf
    st.integers(600, 1018),  # the largest inline payloads: few cells a leaf
    st.integers(1019, 5000),  # overflow chains
)
_HISTORY = st.lists(
    st.tuples(st.booleans() | st.just(True), st.integers(-40, 400), _SIZES),
    min_size=1,
    max_size=160,
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(history=_HISTORY, keep=st.none() | st.integers(0, 3))
def test_walk_matches_reference(history, keep):
    pager, tree, model = _build(history, keep)
    keys = _probe_keys(pager, tree, model)
    _assert_same(pager, tree.root, keys, _bound_pairs(keys))


def test_walk_matches_reference_on_a_three_level_tree():
    history = [(True, key, 900) for key in range(0, 2400, 2)]
    history += [(True, key, 2000) for key in range(1, 300, 7)]
    history += [(False, key, 0) for key in range(0, 2400, 6)]
    pager, tree, model = _build(history, None)
    assert tree.depth() == 3
    keys = _probe_keys(pager, tree, model)[::5] + [_MIN_KEY, _MAX_KEY]
    _assert_same(pager, tree.root, keys, _bound_pairs(sorted(set(keys))))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    history=_HISTORY,
    victim=st.integers(0, 10_000),
    type_byte=st.sampled_from([0, 1, 5, 13, 0x77, 0xFF]),
)
def test_corrupt_type_byte_fails_the_same_way(history, victim, type_byte):
    pager, tree, model = _build(history, None)
    pages = list(tree.pages())
    keys = _probe_keys(pager, tree, model)
    pager.get_page(pages[victim % len(pages)])[0] = type_byte
    _assert_same(pager, tree.root, keys, _bound_pairs(keys))


@pytest.mark.parametrize("type_byte", [0, 5, 0x77])
def test_corrupt_leaf_in_the_chain_raises_page_error(type_byte):
    """A leaf reached through the chain whose type byte is not LEAF's."""
    history = [(True, key, 300) for key in range(60)]
    pager, tree, _model = _build(history, None)
    leaves = [p for p in tree.pages() if SlottedPage(pager.get_page(p)).is_leaf]
    second = SlottedPage(pager.get_page(tree._descend_to_leaf(_MIN_KEY))).aux
    assert second in leaves
    pager.get_page(second)[0] = type_byte
    visits = _recorder(pager)
    product, reference = BTree(pager, tree.root), ReferenceBTree(pager, tree.root)
    want = _outcome(visits, lambda: list(reference.scan()))
    assert want[0][0] == "raised" and "requires a leaf page" in want[0][2]
    assert _outcome(visits, lambda: list(product.scan())) == want
