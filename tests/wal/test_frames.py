"""Tests for WAL frame encoding and checksums."""

import struct

import pytest

from repro.errors import ChecksumError
from repro.wal.base import LogPages
from repro.wal.frames import (
    EXTENT_LIST,
    FILE_HEADER_SIZE,
    FRAME_CORRUPT,
    NV_FRAME_MAGIC,
    NV_HEADER_SIZE,
    NvFrame,
    commit_mark_bytes,
    commit_mark_value,
    decode_nv_frame_header,
    encode_file_frame,
    encode_nv_frame,
    file_chain_seed,
    payload_checksum,
    scan_file_frames,
)


class TestNvFrames:
    def test_header_is_32_bytes(self):
        assert NV_HEADER_SIZE == 32

    def test_encode_decode_roundtrip(self):
        frame = NvFrame(7, 100, b"payload!", 3, commit=False)
        encoded = encode_nv_frame(frame)
        magic, pno, off, size, cks, ckpt, commit = decode_nv_frame_header(encoded)
        assert magic == NV_FRAME_MAGIC
        assert (pno, off, size, ckpt, commit) == (7, 100, 8, 3, 0)
        assert cks == payload_checksum(b"payload!", 7, 100)

    def test_payload_padded_to_8(self):
        frame = NvFrame(1, 0, b"abc", 1, commit=False)
        encoded = encode_nv_frame(frame)
        assert len(encoded) == NV_HEADER_SIZE + 8

    def test_commit_mark_is_8_bytes_aligned(self):
        cks = payload_checksum(b"payload!", 7, 100)
        offset, mark = commit_mark_bytes(checkpoint_id=5, checksum=cks)
        assert len(mark) == 8
        assert offset % 8 == 0
        assert offset + 8 <= NV_HEADER_SIZE

    def test_commit_mark_sets_flag_preserves_rest(self):
        frame = NvFrame(7, 100, b"payload!", 5, commit=False)
        encoded = bytearray(encode_nv_frame(frame))
        cks = payload_checksum(b"payload!", 7, 100)
        offset, mark = commit_mark_bytes(checkpoint_id=5, checksum=cks)
        encoded[offset : offset + 8] = mark
        magic, pno, off, size, stored, ckpt, commit = decode_nv_frame_header(
            bytes(encoded)
        )
        assert commit == commit_mark_value(cks)
        assert ckpt == 5
        assert stored == cks

    def test_commit_mark_value_never_zero(self):
        assert commit_mark_value(0) == 1
        for cks in (1, 0xFFFF_FFFF, 0xDEAD_BEEF_CAFE_F00D, 1 << 63):
            value = commit_mark_value(cks)
            assert value != 0
            assert 0 < value <= 0xFFFF_FFFF

    def test_commit_mark_bound_to_checksum(self):
        a = commit_mark_value(payload_checksum(b"one", 1, 0))
        b = commit_mark_value(payload_checksum(b"two", 1, 0))
        assert a != b

    def test_encoded_commit_frame_carries_bound_word(self):
        frame = NvFrame(4, 0, b"payload!", 2, commit=True)
        encoded = encode_nv_frame(frame)
        *_, cks, _ckpt, commit = decode_nv_frame_header(encoded)
        assert commit == commit_mark_value(cks)

    def test_checksum_bound_to_page_and_offset(self):
        assert payload_checksum(b"x", 1, 0) != payload_checksum(b"x", 2, 0)
        assert payload_checksum(b"x", 1, 0) != payload_checksum(b"x", 1, 8)

    def test_reduced_checksum_bits(self):
        full = payload_checksum(b"data", 1, 0, bits=64)
        small = payload_checksum(b"data", 1, 0, bits=8)
        assert small == full & 0xFF


class TestExtentLists:
    def test_single_extent_stays_plain(self):
        frame = NvFrame.from_extents(3, [(100, b"only")], 1)
        assert frame.offset == 100
        assert frame.payload == b"only"

    def test_multi_extent_packs(self):
        frame = NvFrame.from_extents(3, [(10, b"aa"), (200, b"bbb")], 1)
        assert frame.offset == EXTENT_LIST
        assert frame.extent_list() == [(10, b"aa"), (200, b"bbb")]

    def test_apply_to(self):
        frame = NvFrame.from_extents(3, [(0, b"XY"), (6, b"Z")], 1)
        assert frame.apply_to(bytes(8)) == b"XY\x00\x00\x00\x00Z\x00"

    def test_apply_out_of_bounds_raises(self):
        frame = NvFrame.from_extents(3, [(6, b"LONG")], 1)
        with pytest.raises(ChecksumError):
            frame.apply_to(bytes(8))

    def test_extent_frame_roundtrips_through_encoding(self):
        frame = NvFrame.from_extents(9, [(0, b"head"), (500, b"tail")], 2)
        encoded = encode_nv_frame(frame)
        magic, pno, off, size, cks, ckpt, commit = decode_nv_frame_header(encoded)
        payload = encoded[NV_HEADER_SIZE : NV_HEADER_SIZE + size]
        decoded = NvFrame(pno, off, payload, ckpt, bool(commit))
        assert decoded.extent_list() == [(0, b"head"), (500, b"tail")]


class _Bytes:
    """``data`` as a file of ``page_size``-byte pages, for :class:`LogPages`."""

    def __init__(self, data: bytes, page_size: int) -> None:
        self.data = bytes(data)
        self.size = len(data)
        self.page_size = page_size

    def pages(self):
        for at in range(0, self.size, self.page_size):
            yield bytearray(self.data[at : at + self.page_size])


def scan(raw, content_size, salt, seed, page_size=4096):
    """:func:`scan_file_frames` over ``raw`` laid out in pages of
    ``page_size`` bytes: ``(frames, stop reason, page images)``."""
    log = LogPages(_Bytes(raw, page_size), page_size)
    frames, stop = scan_file_frames(log, 0, content_size, salt, seed)
    stride = FILE_HEADER_SIZE + content_size
    images = [
        log.read(i * stride + FILE_HEADER_SIZE, (i + 1) * stride)
        for i in range(len(frames))
    ]
    return frames, stop, images


class TestFileFrames:
    SEED = file_chain_seed(11)

    def test_roundtrip(self):
        page = bytes(range(256)) * 16
        first, chain = encode_file_frame(5, page, 3, 11, self.SEED)
        second, chain2 = encode_file_frame(7, page[::-1], 0, 11, chain)
        # Frames that straddle page boundaries, headers included.
        for page_size in (4096, 4100, 1000, 64, 37):
            frames, stop, images = scan(first + second, len(page), 11, self.SEED, page_size)
            assert frames == [(5, 3, chain), (7, 0, chain2)]
            assert images == [page, page[::-1]]
            assert stop == "torn frame"  # the end of the file

    def test_wrong_salt_rejected(self):
        raw, _ = encode_file_frame(5, bytes(64), 0, 11, self.SEED)
        assert scan(raw, 64, 12, self.SEED)[:2] == ([], "stale frame")

    def test_torn_frame_rejected(self):
        raw, _ = encode_file_frame(5, bytes(64), 0, 11, self.SEED)
        assert scan(raw[:-10], 64, 11, self.SEED)[:2] == ([], "torn frame")

    def test_corrupt_payload_rejected(self):
        raw, _ = encode_file_frame(5, bytes(64), 0, 11, self.SEED)
        raw = bytearray(raw)
        raw[40] ^= 0xFF
        for page_size in (4096, 30):
            assert scan(raw, 64, 11, self.SEED, page_size)[:2] == ([], FRAME_CORRUPT)

    def test_zero_page_number_rejected(self):
        raw, _ = encode_file_frame(0, bytes(64), 0, 11, self.SEED)
        assert scan(raw, 64, 11, self.SEED)[:2] == ([], FRAME_CORRUPT)

    def test_frame_chains_from_the_one_before(self):
        first, chain = encode_file_frame(5, bytes(64), 0, 11, self.SEED)
        second, _ = encode_file_frame(6, bytes(64), 1, 11, chain)
        assert [f[:2] for f in scan(first + second, 64, 11, self.SEED)[0]] == [
            (5, 0), (6, 1)
        ]
        # Intact on its own, but it follows another frame: end of log.
        other, other_chain = encode_file_frame(5, b"x" * 64, 0, 11, self.SEED)
        assert other_chain != chain
        frames, stop, _ = scan(other + second, 64, 11, self.SEED)
        assert len(frames) == 1 and stop == "stale frame"
