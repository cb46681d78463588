"""Segment wire format: round-trip, salvage decode, truncation sweep."""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import pytest

from repro.replication.segment import (
    EPOCH_HEADER_FMT,
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


class TestReservedBytes:
    """A frame's checkpoint-id field and its payload padding are covered
    by no checksum; the encoder writes zeros there and the decoder holds
    them to it."""

    #: Header + one frame: 32-byte frame header, 11 bytes padded to 16.
    ONE = encode_segment(segment(2, [b"hello world"]))
    CKPT = EPOCH_HEADER_SIZE + 28
    PADDING = EPOCH_HEADER_SIZE + 32 + 11

    def test_the_encoder_writes_checkpoint_id_zero(self):
        assert frame(2, b"x").checkpoint_id == 1
        assert self.ONE[self.CKPT : self.CKPT + 4] == bytes(4)
        assert decode_stream(self.ONE).segments[0].frames[0].checkpoint_id == 0

    @pytest.mark.parametrize("at", [CKPT, CKPT + 3, PADDING, PADDING + 4])
    def test_a_flip_there_stops_the_walk(self, at):
        damaged = bytearray(self.ONE)
        damaged[at] ^= 1
        report = decode_stream(bytes(damaged))
        assert (report.segments, report.consumed) == ([], 0)
        assert report.reason == "frame checkpoint id or padding not zero"
        # A follower whose integrity check is off takes it as it came.
        assert decode_stream(bytes(damaged), verify=False).clean


# ---------------------------------------------------------------------------
# pinned wire bytes and decode reports
# ---------------------------------------------------------------------------

SEGMENT_PINS = Path(__file__).with_name("segment_pins.json")

#: Every stop reason ``decode_stream`` can give.
ALL_REASONS = {
    "torn segment header",
    "bad segment magic",
    "segment header corrupt",
    "torn segment body",
    "torn frame header",
    "bad frame magic",
    "torn frame payload",
    "frame checksum mismatch",
    "missing epoch close word",
    "segment length mismatch",
    "frame checkpoint id or padding not zero",
}


def pinned_segments() -> list[Segment]:
    """Four shapes: empty epoch, one plain frame, an epoch mixing an
    extent-list frame, an odd-length payload and a frame already flagged
    ``commit`` (a decoded segment being re-encoded), and a snapshot."""
    multi = NvFrame.from_extents(9, [(0, b"head"), (500, b"tail!")], 4)
    flagged = NvFrame(page_no=11, offset=8, payload=b"z" * 13, checkpoint_id=4, commit=True)
    return [
        Segment(seq=1, term=1, txns=2, frames=()),
        segment(2, [b"hello world"]),
        Segment(seq=3, term=2, txns=3, frames=(multi, flagged, frame(12, b"q" * 40, offset=96))),
        segment(4, [b"page image" * 10, b"p" * 24], term=3, flags=FLAG_SNAPSHOT),
    ]


def restamp(blob: bytes, *, frame_count=None, byte_len=None) -> bytes:
    """Rewrite a segment header's counts under a fresh, valid header CRC:
    damage the CRC cannot catch, so the frame-level checks are reached."""
    fields = list(struct.unpack_from(EPOCH_HEADER_FMT, blob, 0))
    if frame_count is not None:
        fields[5] = frame_count
    if byte_len is not None:
        fields[6] = byte_len
    head = struct.pack(EPOCH_HEADER_FMT[:-1], *fields[:-1])
    return head + struct.pack("<I", zlib.crc32(head)) + blob[EPOCH_HEADER_SIZE:]


def outcome(data: bytes, verify: bool = True) -> list:
    report = decode_stream(data, verify=verify)
    return [len(report.segments), report.consumed, report.reason]


def run_lengths(outcomes: list) -> list:
    """[[count, outcome], ...] — consecutive equal outcomes folded."""
    runs: list = []
    for item in outcomes:
        if runs and runs[-1][1] == item:
            runs[-1][0] += 1
        else:
            runs.append([1, item])
    return runs


def decode_reports() -> dict:
    """Reports on the pinned stream cut at every byte, with one bit
    flipped in every byte (strict and lenient), and on seven crafted
    segments whose header CRC is valid but whose counts lie."""
    blobs = [encode_segment(seg) for seg in pinned_segments()]
    stream = b"".join(blobs)
    flips = {True: [], False: []}
    for index in range(len(stream)):
        damaged = bytearray(stream)
        damaged[index] ^= 1 << (index % 8)
        for verify in flips:
            flips[verify].append(outcome(bytes(damaged), verify))
    one = blobs[1]  # header + one frame: 32-byte header, 11 bytes padded to 16
    unclosed = bytearray(one)
    unclosed[EPOCH_HEADER_SIZE + 24] = 0  # wipe the close word's low byte
    bad_frame_magic = bytearray(one)
    bad_frame_magic[EPOCH_HEADER_SIZE] ^= 0xFF
    crafted = {
        "frame_count_too_high": restamp(one, frame_count=2),
        "frame_count_too_low": restamp(blobs[2], frame_count=2),
        "body_cut_inside_frame_header": restamp(one[:-30], byte_len=len(one) - EPOCH_HEADER_SIZE - 30),
        "body_cut_inside_payload": restamp(one[:-10], byte_len=len(one) - EPOCH_HEADER_SIZE - 10),
        "body_cut_inside_padding": restamp(one[:-3], byte_len=len(one) - EPOCH_HEADER_SIZE - 3),
        "close_word_wiped": bytes(unclosed),
        "frame_magic_flipped": bytes(bad_frame_magic),
    }
    return {
        "cuts": run_lengths([outcome(stream[:cut]) for cut in range(len(stream) + 1)]),
        "flips_strict": run_lengths(flips[True]),
        "flips_lenient": run_lengths(flips[False]),
        "crafted": {name: outcome(blob) for name, blob in crafted.items()},
        "crafted_lenient": {name: outcome(blob, False) for name, blob in crafted.items()},
    }


def wire_pins() -> dict:
    return {
        "encoded": [encode_segment(seg).hex() for seg in pinned_segments()],
        "reports": decode_reports(),
    }


class TestPinnedWireFormat:
    """``segment_pins.json`` was recorded before the frame codec moved into
    ``wal/frames.py``, and re-recorded when the encoder began writing
    checkpoint id 0 and the decoder checking it and the padding; bytes
    and reports must not move unless the format does."""

    def test_encoded_bytes_are_pinned(self):
        pinned = json.loads(SEGMENT_PINS.read_text())["encoded"]
        assert wire_pins()["encoded"] == pinned

    @pytest.mark.parametrize(
        "family",
        ["cuts", "flips_strict", "flips_lenient", "crafted", "crafted_lenient"],
    )
    def test_decode_reports_are_pinned(self, family):
        pinned = json.loads(SEGMENT_PINS.read_text())["reports"]
        assert decode_reports()[family] == pinned[family]

    def test_pins_cover_every_stop_reason(self):
        reports = json.loads(SEGMENT_PINS.read_text())["reports"]
        seen = {item[2] for _n, item in reports["cuts"] + reports["flips_strict"]}
        seen |= {item[2] for item in reports["crafted"].values()}
        assert seen - {""} == ALL_REASONS

    def test_re_encoding_a_decoded_stream_is_the_identity(self):
        stream = b"".join(encode_segment(seg) for seg in pinned_segments())
        decoded = decode_stream(stream)
        assert decoded.clean
        assert b"".join(map(encode_segment, decoded.segments)) == stream


class TestValidation:
    def test_rejects_unknown_mode_string(self):
        with pytest.raises(ValueError):
            from repro.replication.ship import Replicator

            Replicator(
                clock=None,
                shiplog=None,
                followers=(),
                mode="paranoid",
                archive=None,
            )
