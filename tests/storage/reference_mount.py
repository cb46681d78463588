"""``Ext4FileSystem.mount``'s journal replay and inode decode as they were
before they did work in proportion to what is live.

:func:`reference_replay_journal` builds an image map for every transaction
of the live chain and folds the chain oldest first;
:func:`reference_inodes` decodes all 128 inode slots.  The product walks
the chain newest first without per-transaction maps and decodes only the
slots that are not all zeros.  ``test_mount_equivalence.py`` holds it to
these: the same replayed blocks, journal sequence and ring head, and the
same in-memory inodes, on rings with torn newest transactions, lap restarts
and refused checksums.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from repro.storage import ext4
from repro.storage.ext4 import Ext4FileSystem, Inode


@dataclass
class ReplayNotes:
    """What one reference replay met, for the coverage assertions."""

    found: int = 0
    refused: int = 0
    chain: int = 0
    lap_left_behind: bool = False  # found seqs below the chain's gap


def reference_replay_journal(fs: Ext4FileSystem) -> tuple[dict[int, bytes], ReplayNotes]:
    """The pre-tuning ``_replay_journal`` of ``fs``: the replayed home
    blocks (sets ``fs._journal_seq`` and ``fs._journal_head`` as it did),
    and notes on the ring."""
    notes = ReplayNotes()
    ring = fs.device.read_pages_silent(fs.journal_start, fs.journal_blocks)
    found: dict[int, tuple[int, list[int], int]] = {}
    pos = 0
    for at in [
        at for at, raw in enumerate(ring) if raw.startswith(ext4._JMAGIC_BYTES)
    ]:
        if at < pos:
            continue
        raw = ring[at]
        _magic, jtype, seq, n_blocks = ext4._JDESC.unpack_from(raw, 0)
        if jtype != ext4._JTYPE_DESC:
            continue
        home_blocks = list(struct.unpack_from(f"<{n_blocks}I", raw, ext4._JDESC.size))
        end = at + 1 + n_blocks
        if end >= fs.journal_blocks:
            break
        cmagic, ctype, cseq, checksum = ext4._JDESC.unpack_from(ring[end], 0)
        if cmagic == ext4._JMAGIC and ctype == ext4._JTYPE_COMMIT and cseq == seq:
            found[seq] = (at, home_blocks, checksum)
            fs._journal_seq = max(fs._journal_seq, seq + 1)
            pos = end + 1

    def intact(seq: int) -> dict[int, bytes] | None:
        start, home_blocks, checksum = found[seq]
        images = {bno: ring[start + 1 + i] for i, bno in enumerate(home_blocks)}
        if seq == newest or found[seq + 1][0] == 0:
            crc = zlib.crc32(ring[start])
            for image in images.values():
                crc = zlib.crc32(image, crc)
            if crc != checksum:
                notes.refused += 1
                return None
        return images

    chain: list[dict[int, bytes]] = []
    newest = seq = max(found, default=0)
    while seq in found:
        images = intact(seq)
        if images is not None:
            chain.append(images)
        elif chain:
            break
        seq -= 1
    replayed: dict[int, bytes] = {}
    for images in reversed(chain):
        replayed.update(images)
    fs._journal_head = 0
    notes.found = len(found)
    notes.chain = len(chain)
    notes.lap_left_behind = any(s < seq for s in found)
    return replayed, notes


def reference_inodes(fs: Ext4FileSystem) -> list[Inode]:
    """Every inode decoded from ``fs``'s live inode-table images."""
    per_block = fs.page_size // ext4._INODE_SIZE
    return [
        ext4._decode_inode(fs._itab[ino // per_block], ino % per_block * ext4._INODE_SIZE)
        for ino in range(ext4._NUM_INODES)
    ]


def inode_state(inode: Inode) -> tuple:
    return (
        inode.used, inode.size, inode.mtime, inode.page_blocks, inode.extents,
        inode.pages, inode.dirty_pages,
    )


@dataclass
class OracleLog:
    """Every mount an :class:`OracleExt4` checked, and what its ring held."""

    mounts: int = 0
    notes: list[ReplayNotes] = field(default_factory=list)
    ended_early: int = 0  # histories cut short by a step that raised


class OracleExt4(Ext4FileSystem):
    """An ext4 whose every mount is checked against the reference replay
    and decode, on the same device state."""

    log: OracleLog

    def _replay_journal(self) -> dict[int, bytes]:
        seq = self._journal_seq
        replayed = super()._replay_journal()
        state = (self._journal_seq, self._journal_head)
        self._journal_seq = seq
        expected, notes = reference_replay_journal(self)
        assert replayed == expected
        assert state == (self._journal_seq, self._journal_head)
        self.log.notes.append(notes)
        return replayed

    def mount(self) -> None:
        super().mount()
        expected = reference_inodes(self)
        assert [inode_state(i) for i in self._inodes] == [
            inode_state(i) for i in expected
        ]
        self.log.mounts += 1
