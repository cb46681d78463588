"""User-level NVRAM heap: large pre-allocated blocks, bump allocation.

System calls are expensive; calling the kernel heap manager once per WAL
frame doubly so (Section 3.3).  NVWAL therefore pre-allocates a large NVRAM
block (8 KB by default — the paper measures 4.9 WAL frames per such block)
and manages frame placement inside it at user level.

The crash-safety protocol is the tri-state flag dance:

1. ``pre_allocate_block()`` → the block exists but is **pending**; if we
   crash now, heap recovery reclaims it (no leak, Section 4.3 case 1);
2. the *caller* durably links the block into its own NVRAM structure
   (NVWAL's block linked list, with the flush/dmb/persist-barrier sequence
   of Algorithm 1 lines 8-11);
3. ``commit_block()`` → **in-use**; if we crashed between 2 and 3, recovery
   sees a reference to a reclaimed block and safely drops it (case 2).

This class owns only the *volatile* bookkeeping (current block, bump
offset); all durable state lives in Heapo's descriptors and in the caller's
linked list, so recovery rebuilds a ``UserHeap`` by walking that list and
calling :meth:`adopt`.
"""

from __future__ import annotations

from repro.errors import HeapStateError, OutOfNvram
from repro.nvram.heapo import Heapo, NvAllocation

#: The paper fixes NVRAM log blocks at 8 KB, "which can store two WAL
#: frames" (Section 5.3).  Our frame is a 32-byte header plus a 4 KB page
#: image, and each block carries a 16-byte chain header, so the default
#: adds a 128-byte allowance to keep the two-frames-per-block property.
DEFAULT_BLOCK_SIZE = 8192 + 128


class UserHeap:
    """Bump allocator over pre-allocated NVRAM blocks."""

    def __init__(self, heapo: Heapo, block_size: int = DEFAULT_BLOCK_SIZE):
        self.heapo = heapo
        self.block_size = block_size
        #: Blocks adopted into this heap, oldest first.
        self.blocks: list[NvAllocation] = []
        #: Bump offset within the newest block.
        self.used = 0
        #: Sum of ``alloc.size`` over :attr:`blocks`.
        self.bytes_held = 0

    # ------------------------------------------------------------------
    # space accounting
    # ------------------------------------------------------------------

    def available_space(self) -> int:
        """Free bytes remaining in the current (newest) block."""
        if not self.blocks:
            return 0
        return self.blocks[-1].size - self.used

    def fits(self, size: int) -> bool:
        """Whether ``size`` bytes fit in the current block."""
        return size <= self.available_space()

    # ------------------------------------------------------------------
    # block lifecycle
    # ------------------------------------------------------------------

    def pre_allocate_block(
        self, size: int | None = None, name: str = ""
    ) -> NvAllocation:
        """Step 1: get a pending block from the kernel heap."""
        return self.heapo.nv_pre_malloc(size or self.block_size, name=name)

    def commit_block(self, alloc: NvAllocation, reserved: int = 0) -> None:
        """Step 3: the caller has durably linked ``alloc``; mark it in-use
        and make it the current bump block.  ``reserved`` bytes at the start
        (the caller's block header) are excluded from bump allocation."""
        self.heapo.nv_malloc_set_used_flag(alloc)
        self.blocks.append(alloc)
        self.bytes_held += alloc.size
        self.used = reserved

    def adopt(self, alloc: NvAllocation, used: int) -> None:
        """Recovery path: rebind an already in-use block found by walking
        the caller's persistent linked list."""
        if used < 0 or used > alloc.size:
            raise HeapStateError(
                f"bump offset {used} out of range for block of {alloc.size}"
            )
        self.blocks.append(alloc)
        self.bytes_held += alloc.size
        self.used = used

    def reset(self) -> None:
        """Forget every block without freeing any: recovery starts from an
        empty heap and re-adopts what the caller's durable list reaches."""
        self.blocks.clear()
        self.bytes_held = 0
        self.used = 0

    def free_all(self) -> None:
        """Checkpoint truncation: release every block back to the kernel.

        The paper frees from the end of the list to the beginning
        (Section 4.3) so that a crash mid-truncation leaves a valid prefix.
        """
        for alloc in reversed(self.blocks):
            self.heapo.nvfree(alloc)
        self.reset()

    # ------------------------------------------------------------------
    # frame placement
    # ------------------------------------------------------------------

    def allocate(self, size: int) -> int:
        """Bump-allocate ``size`` bytes in the current block.

        Purely volatile bookkeeping — zero system calls, which is the whole
        point.  Raises :class:`OutOfNvram` if the caller forgot to check
        :meth:`fits` and chain a new block first.
        """
        if not self.fits(size):
            raise OutOfNvram(
                f"frame of {size} bytes does not fit "
                f"({self.available_space()} bytes available)"
            )
        addr = self.blocks[-1].addr + self.used
        self.used += size
        return addr
