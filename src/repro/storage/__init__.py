"""Block storage substrate: eMMC flash device + simplified EXT4.

The WAL-on-flash baseline of the paper (Figures 8 and 9) is dominated by two
costs this package models:

* eMMC page program / cache-flush latency (:mod:`repro.storage.blockdev`);
* EXT4 ordered-mode journal traffic — at least 16 KB of metadata journaling
  per logging transaction (:mod:`repro.storage.ext4`).

A :class:`~repro.storage.trace.BlockTrace` installed on a device
(``device.trace``) records every block command, which is what regenerates
the Figure 8 block-address-vs-time plot.
"""

from repro.storage.blockdev import BlockDevice
from repro.storage.ext4 import Ext4FileSystem, File
from repro.storage.trace import BlockTrace, TraceEvent

__all__ = [
    "BlockDevice",
    "Ext4FileSystem",
    "File",
    "BlockTrace",
    "TraceEvent",
]
