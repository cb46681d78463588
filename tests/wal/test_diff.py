"""Tests for byte-granularity differential encoding."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.wal.diff import DiffMode, apply_extents, compute_extents


def mutate(base: bytes, edits: list[tuple[int, bytes]]) -> bytes:
    out = bytearray(base)
    for offset, data in edits:
        out[offset : offset + len(data)] = data
    return bytes(out)


class TestComputeExtents:
    def test_identical_pages_empty(self):
        page = bytes(4096)
        for mode in DiffMode:
            assert compute_extents(page, page, mode) == []

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_extents(bytes(10), bytes(20))

    def test_full_page_mode(self):
        old = bytes(4096)
        new = mutate(old, [(100, b"x")])
        extents = compute_extents(old, new, DiffMode.FULL_PAGE)
        assert extents == [(0, new)]

    def test_single_range_spans_all_changes(self):
        old = bytes(4096)
        new = mutate(old, [(10, b"a"), (4000, b"b")])
        extents = compute_extents(old, new, DiffMode.SINGLE_RANGE)
        assert len(extents) == 1
        offset, data = extents[0]
        assert offset == 10
        assert len(data) == 4001 - 10

    def test_multi_range_separates_clusters(self):
        old = bytes(4096)
        new = mutate(old, [(10, b"aaa"), (4000, b"bbb")])
        extents = compute_extents(old, new, DiffMode.MULTI_RANGE)
        assert len(extents) == 2
        assert extents[0][0] == 10
        assert extents[1][0] == 4000

    def test_multi_range_merges_close_changes(self):
        old = bytes(4096)
        new = mutate(old, [(100, b"a"), (130, b"b")])  # 30-byte gap < 64
        extents = compute_extents(old, new, DiffMode.MULTI_RANGE)
        assert len(extents) == 1

    def test_change_at_page_boundaries(self):
        old = bytes(256)
        new = mutate(old, [(0, b"S"), (255, b"E")])
        extents = compute_extents(old, new, DiffMode.MULTI_RANGE)
        assert extents[0][0] == 0
        last_offset, last_data = extents[-1]
        assert last_offset + len(last_data) == 256

    def test_exact_boundaries(self):
        old = b"AAAA" + bytes(200) + b"BBBB"
        new = b"AAXA" + bytes(200) + b"BYBB"
        extents = compute_extents(old, new, DiffMode.MULTI_RANGE)
        assert extents[0] == (2, b"X")
        assert extents[1] == (205, b"Y")

    def test_diff_is_much_smaller_for_small_change(self):
        old = bytes(range(256)) * 16
        new = mutate(old, [(1000, b"small change")])
        extents = compute_extents(old, new, DiffMode.MULTI_RANGE)
        assert sum(len(d) for _o, d in extents) < 100


class TestApplyExtents:
    def test_apply_restores_new_image(self):
        old = bytes(4096)
        new = mutate(old, [(10, b"hello"), (2000, b"world")])
        for mode in DiffMode:
            extents = compute_extents(old, new, mode)
            assert apply_extents(old, extents) == new

    def test_out_of_bounds_extent_rejected(self):
        with pytest.raises(ValueError):
            apply_extents(bytes(10), [(8, b"xxx")])
        with pytest.raises(ValueError):
            apply_extents(bytes(10), [(-1, b"x")])

    def test_extents_apply_in_order(self):
        base = bytes(10)
        result = apply_extents(base, [(0, b"AAAA"), (2, b"BB")])
        assert result == b"AABB\x00\x00\x00\x00\x00\x00"


class TestChunkBoundaryEdges:
    """Changes landing exactly on the 64-byte comparison-chunk boundaries.

    ``_changed_ranges`` compares 64-byte chunks before refining bytewise,
    so off-by-ones cluster at multiples of 64; these cases pin the exact
    extents there.
    """

    def test_change_fills_exactly_one_chunk(self):
        old = bytes(256)
        new = mutate(old, [(64, b"\x01" * 64)])
        extents = compute_extents(old, new, DiffMode.MULTI_RANGE)
        assert extents == [(64, b"\x01" * 64)]

    def test_change_ends_exactly_at_chunk_boundary(self):
        old = bytes(256)
        new = mutate(old, [(60, b"\x01" * 4)])  # [60, 64)
        extents = compute_extents(old, new, DiffMode.MULTI_RANGE)
        assert extents == [(60, b"\x01" * 4)]

    def test_change_starts_exactly_at_chunk_boundary(self):
        old = bytes(256)
        new = mutate(old, [(128, b"\x01" * 4)])
        extents = compute_extents(old, new, DiffMode.MULTI_RANGE)
        assert extents == [(128, b"\x01" * 4)]

    def test_change_straddles_chunk_boundary(self):
        old = bytes(256)
        new = mutate(old, [(62, b"\x01" * 4)])  # [62, 66) crosses 64
        extents = compute_extents(old, new, DiffMode.MULTI_RANGE)
        assert extents == [(62, b"\x01" * 4)]

    def test_adjacent_dirty_chunks_coalesce(self):
        old = bytes(512)
        new = mutate(old, [(64, b"\x01" * 128)])  # chunks [64,128) + [128,192)
        extents = compute_extents(old, new, DiffMode.MULTI_RANGE)
        assert extents == [(64, b"\x01" * 128)]

    def test_single_trailing_dirty_byte(self):
        for size in (64, 256, 4096, 4097):
            old = bytes(size)
            new = mutate(old, [(size - 1, b"\x01")])
            for mode in (DiffMode.SINGLE_RANGE, DiffMode.MULTI_RANGE):
                assert compute_extents(old, new, mode) == [(size - 1, b"\x01")]

    def test_single_leading_dirty_byte(self):
        for size in (64, 256, 4096, 4097):
            old = bytes(size)
            new = mutate(old, [(0, b"\x01")])
            for mode in (DiffMode.SINGLE_RANGE, DiffMode.MULTI_RANGE):
                assert compute_extents(old, new, mode) == [(0, b"\x01")]

    def test_page_not_multiple_of_chunk(self):
        old = bytes(100)  # final chunk is the short tail [64, 100)
        new = mutate(old, [(99, b"\x01")])
        extents = compute_extents(old, new, DiffMode.MULTI_RANGE)
        assert extents == [(99, b"\x01")]

    def test_every_byte_changed(self):
        old = bytes(192)
        new = b"\x01" * 192
        assert compute_extents(old, new, DiffMode.MULTI_RANGE) == [(0, new)]

    def test_dirty_bytes_in_every_chunk_merge_across_small_gaps(self):
        old = bytes(256)
        # one dirty byte per 64-byte chunk: every chunk is dirty, and an
        # extent is a maximal run of adjacent dirty chunks
        new = mutate(old, [(i, b"\x01") for i in (0, 64, 128, 192)])
        extents = compute_extents(old, new, DiffMode.MULTI_RANGE)
        assert extents == [(0, mutate(old, [(i, b"\x01") for i in (0, 64, 128, 192)])[:193])]


@settings(max_examples=200, deadline=None)
@given(
    base=st.binary(min_size=1, max_size=300),
    edits=st.lists(
        st.tuples(st.integers(min_value=0, max_value=299), st.binary(max_size=80)),
        max_size=6,
    ),
    pad=st.integers(min_value=0, max_value=2),
)
def test_single_vs_multi_range_equivalence_property(base, edits, pad):
    """SINGLE_RANGE and MULTI_RANGE encode differently but must round-trip
    to the same image under apply_extents, from the same base."""
    base = base + bytes(pad) + base  # exercise sizes straddling chunk edges
    edits = [(o, d) for o, d in edits if o + len(d) <= len(base)]
    new = mutate(base, edits)
    single = compute_extents(base, new, DiffMode.SINGLE_RANGE)
    multi = compute_extents(base, new, DiffMode.MULTI_RANGE)
    assert apply_extents(base, single) == new
    assert apply_extents(base, multi) == new
    # MULTI_RANGE is never a worse encoding than SINGLE_RANGE
    assert sum(len(d) for _o, d in multi) <= sum(len(d) for _o, d in single)
    if single:
        # the single range is exactly first-dirty..last-dirty
        (offset, data), = single
        assert offset == multi[0][0]
        assert offset + len(data) == multi[-1][0] + len(multi[-1][1])


@settings(max_examples=100, deadline=None)
@given(
    base=st.binary(min_size=64, max_size=512),
    edits=st.lists(
        st.tuples(st.integers(min_value=0, max_value=500), st.binary(max_size=40)),
        max_size=8,
    ),
    mode=st.sampled_from(list(DiffMode)),
)
def test_diff_roundtrip_property(base, edits, mode):
    """compute_extents/apply_extents invert each other for any mutation."""
    edits = [(o, d) for o, d in edits if o + len(d) <= len(base)]
    new = mutate(base, edits)
    extents = compute_extents(base, new, mode)
    assert apply_extents(base, extents) == new
    # extents never exceed the full page in total size (plus none overlap)
    spans = sorted((o, o + len(d)) for o, d in extents)
    for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 <= s2


# -- reference model -------------------------------------------------------
#
# The two-level scan with per-byte trimming and a merge pass that
# ``repro.wal.diff`` used before its three-level scan and XOR trim.  The
# merge gap equals the chunk size, so the pass can never fire; it stays here
# so the reference is the old code as it was.

_REFERENCE_MERGE_GAP = 64


def reference_changed_ranges(old: bytes, new: bytes) -> list[tuple[int, int]]:
    chunk = 64
    coarse = 1024
    n = len(old)
    dirty: list[int] = []
    for cpos in range(0, n, coarse):
        cend = min(cpos + coarse, n)
        if old[cpos:cend] != new[cpos:cend]:
            for pos in range(cpos, cend, chunk):
                end = min(pos + chunk, n)
                if old[pos:end] != new[pos:end]:
                    dirty.append(pos)
    ranges: list[tuple[int, int]] = []
    i = 0
    m = len(dirty)
    while i < m:
        j = i
        while j + 1 < m and dirty[j + 1] == dirty[j] + chunk:
            j += 1
        start = dirty[i]
        while old[start] == new[start]:
            start += 1
        stop = min(dirty[j] + chunk, n)
        while old[stop - 1] == new[stop - 1]:
            stop -= 1
        ranges.append((start, stop))
        i = j + 1
    return ranges


def reference_merge_ranges(
    ranges: list[tuple[int, int]], gap: int
) -> list[tuple[int, int]]:
    merged = [ranges[0]]
    for start, end in ranges[1:]:
        last_start, last_end = merged[-1]
        if start - last_end < gap:
            merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return merged


def reference_extents(old: bytes, new: bytes, mode: DiffMode) -> list[tuple[int, bytes]]:
    if old == new:
        return []
    if mode is DiffMode.FULL_PAGE:
        return [(0, bytes(new))]
    ranges = reference_changed_ranges(old, new)
    if mode is DiffMode.SINGLE_RANGE:
        return [(ranges[0][0], bytes(new[ranges[0][0] : ranges[-1][1]]))]
    merged = reference_merge_ranges(ranges, _REFERENCE_MERGE_GAP)
    return [(start, bytes(new[start:end])) for start, end in merged]


#: Gaps between dirty clusters around one and two chunk sizes, where an
#: off-by-one in the chunk scan or the trim would show.
CLUSTER_GAPS = (63, 64, 65, 127, 128, 129)


def page_pair(
    seed: int,
    length: int,
    clusters: list[tuple[int, int]],
    first: bool = False,
    last: bool = False,
    every: bool = False,
) -> tuple[bytes, bytes]:
    """A random page and a copy whose bytes differ exactly where asked:
    ``clusters`` is ``[(gap before, size), ...]`` laid out left to right."""
    rng = random.Random(seed)
    old = rng.randbytes(length)
    new = bytearray(old)
    dirty = set(range(length)) if every else set()
    pos = 0
    for gap, size in clusters:
        pos += gap
        dirty.update(range(pos, min(pos + size, length)))
        pos += size
    if first:
        dirty.add(0)
    if last:
        dirty.add(length - 1)
    for i in dirty:
        new[i] ^= rng.randrange(1, 256)
    return old, bytes(new)


@st.composite
def page_pairs(draw):
    length = draw(
        st.sampled_from([1, 63, 64, 65, 100, 256, 1024, 4096, 4097])
        | st.integers(min_value=1, max_value=4200)
    )
    clusters = draw(
        st.lists(
            st.tuples(
                st.sampled_from(CLUSTER_GAPS) | st.integers(min_value=0, max_value=700),
                st.integers(min_value=1, max_value=200),
            ),
            max_size=6,
        )
    )
    return page_pair(
        draw(st.integers(min_value=0, max_value=2**32)),
        length,
        clusters,
        first=draw(st.booleans()),
        last=draw(st.booleans()),
        every=draw(st.integers(min_value=0, max_value=9)) == 0,
    )


def _examples():
    cases = [page_pair(1, 100, [(10, 3)]), page_pair(2, 4097, [(4000, 5)])]
    cases += [page_pair(3, n, [], first=True) for n in (100, 4097)]
    cases += [page_pair(4, n, [], last=True) for n in (100, 4097)]
    cases += [page_pair(5, n, [], every=True) for n in (100, 4096, 4097)]
    for gap in CLUSTER_GAPS:
        cases.append(page_pair(gap, 4096, [(130, 5), (gap, 7), (gap, 1)]))
        cases.append(page_pair(gap, 4097, [(0, 64), (gap, 64), (gap, 2)], last=True))
    return cases


def _with_examples(test):
    for old, new in _examples():
        test = example(pair=(old, new))(test)
    return test


@_with_examples
@settings(max_examples=300, deadline=None)
@given(pair=page_pairs())
def test_compute_extents_matches_reference_model(pair):
    """The three-level scan with XOR trimming gives the old scan's extents
    in every mode, and MULTI_RANGE extents never share a 64-byte chunk."""
    old, new = pair
    for mode in DiffMode:
        assert compute_extents(old, new, mode) == reference_extents(old, new, mode)
    extents = compute_extents(old, new, DiffMode.MULTI_RANGE)
    for (start, data), (next_start, _) in zip(extents, extents[1:]):
        assert (start + len(data) - 1) // 64 < next_start // 64
