"""Segment wire format: round-trip, salvage decode, truncation sweep."""

from __future__ import annotations

import pytest

from repro.replication.segment import (
    EPOCH_HEADER_SIZE,
    FLAG_SNAPSHOT,
    Segment,
    decode_stream,
    encode_segment,
)
from repro.wal.frames import NvFrame, payload_checksum


def frame(page_no: int, payload: bytes, offset: int = 0) -> NvFrame:
    return NvFrame(
        page_no=page_no,
        offset=offset,
        payload=payload,
        checkpoint_id=1,
        commit=False,
    )


def segment(seq: int, payloads, term: int = 1, flags: int = 0) -> Segment:
    frames = tuple(
        frame(i + 2, data) for i, data in enumerate(payloads)
    )
    return Segment(
        seq=seq, term=term, txns=len(frames), frames=frames, flags=flags
    )


class TestRoundTrip:
    def test_single_segment(self):
        seg = segment(3, [b"hello world", b"x" * 100])
        report = decode_stream(encode_segment(seg))
        assert report.clean
        assert len(report.segments) == 1
        got = report.segments[0]
        assert got.seq == 3
        assert got.term == 1
        assert got.txns == 2
        assert [f.payload for f in got.frames] == [b"hello world", b"x" * 100]
        assert [f.page_no for f in got.frames] == [2, 3]

    def test_empty_epoch_is_legal(self):
        seg = Segment(seq=1, term=1, txns=0, frames=())
        report = decode_stream(encode_segment(seg))
        assert report.clean
        assert report.segments[0].frames == ()

    def test_concatenated_stream(self):
        blob = b"".join(
            encode_segment(segment(seq, [bytes([seq]) * 20]))
            for seq in range(1, 6)
        )
        report = decode_stream(blob)
        assert report.clean
        assert [s.seq for s in report.segments] == [1, 2, 3, 4, 5]

    def test_snapshot_flag_round_trips(self):
        seg = segment(7, [b"page image"], term=3, flags=FLAG_SNAPSHOT)
        report = decode_stream(encode_segment(seg))
        assert report.clean
        assert report.segments[0].snapshot
        assert report.segments[0].term == 3

    def test_frame_checksums_survive(self):
        seg = segment(2, [b"abc" * 11])
        got = decode_stream(encode_segment(seg)).segments[0]
        f = got.frames[0]
        assert f.payload == b"abc" * 11
        assert payload_checksum(f.payload, f.page_no, f.offset, bits=64)


class TestSalvage:
    def test_truncation_at_every_byte_yields_closed_prefix(self):
        """The core salvage contract of the wire format.

        For every possible cut point the decoder must return exactly the
        whole segments that fit below the cut — never a partial segment,
        never fewer than the closed prefix.
        """
        blobs = [
            encode_segment(segment(seq, [bytes([seq]) * (5 * seq)]))
            for seq in range(1, 4)
        ]
        stream = b"".join(blobs)
        closed = [0]
        for blob in blobs:
            closed.append(closed[-1] + len(blob))
        for cut in range(len(stream) + 1):
            report = decode_stream(stream[:cut])
            want = sum(1 for edge in closed[1:] if edge <= cut)
            assert len(report.segments) == want, (
                f"cut at {cut}: {len(report.segments)} segments, "
                f"wanted {want} ({report.reason})"
            )
            assert report.consumed == closed[want]
            if cut != closed[want]:
                assert not report.clean

    def test_bad_magic_stops_decode(self):
        blob = bytearray(encode_segment(segment(1, [b"ok" * 8])))
        blob[0] ^= 0xFF
        report = decode_stream(bytes(blob))
        assert not report.segments
        assert report.reason == "bad segment magic"

    def test_header_corruption_detected(self):
        blob = bytearray(encode_segment(segment(1, [b"ok" * 8])))
        blob[8] ^= 0x01  # seq field; header CRC must catch it
        report = decode_stream(bytes(blob))
        assert not report.segments
        assert "corrupt" in report.reason

    def test_payload_corruption_detected(self):
        blob = bytearray(encode_segment(segment(1, [b"y" * 64])))
        blob[EPOCH_HEADER_SIZE + 40] ^= 0x20
        report = decode_stream(bytes(blob))
        assert not report.segments
        assert not report.clean

    def test_lenient_mode_swallows_payload_corruption(self):
        """verify=False models a sabotaged integrity check: structure is
        still parsed, but checksum garbage sails through."""
        blob = bytearray(encode_segment(segment(1, [b"y" * 64])))
        blob[EPOCH_HEADER_SIZE + 40] ^= 0x20
        report = decode_stream(bytes(blob), verify=False)
        assert len(report.segments) == 1

    def test_corrupt_tail_keeps_clean_prefix(self):
        good = encode_segment(segment(1, [b"fine" * 4]))
        bad = bytearray(encode_segment(segment(2, [b"torn" * 4])))
        bad[EPOCH_HEADER_SIZE + 36] ^= 0x04
        report = decode_stream(good + bytes(bad))
        assert [s.seq for s in report.segments] == [1]
        assert report.consumed == len(good)


class TestValidation:
    def test_rejects_unknown_mode_string(self):
        with pytest.raises(ValueError):
            from repro.replication.ship import Replicator, ReplicatorConfig

            Replicator(
                clock=None,
                shiplog=None,
                followers=(),
                config=ReplicatorConfig(mode="paranoid"),
                archive=None,
            )
