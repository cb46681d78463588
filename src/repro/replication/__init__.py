"""Log-shipping replication over the NVWAL stack.

The primary's :class:`~repro.service.server.DatabaseService` streams
committed WAL frames — sealed per group-commit epoch — over a simulated,
fault-injectable channel to N follower machines.  Followers verify each
segment with the WAL's longest-valid-prefix salvage rules, replay it
into their own NVWAL + pager, and serve bounded-staleness snapshot
reads.  On primary death a promotion protocol elects the longest-prefix
follower and resumes writes under a bumped term.

Layout:

* :mod:`repro.replication.segment` — wire format + salvage decode;
* :mod:`repro.replication.ship` — shipping log, channel, replicator
  (commit-ack gating per durability mode);
* :mod:`repro.replication.node` — follower machines and the durable
  watermark cursor;
* :mod:`repro.replication.cluster` — deployment wiring + failover;
* :mod:`repro.replication.chaos` — storms, kills, and the
  replication-consistency oracle (``python -m repro.replication``).
"""

from repro.replication.cluster import Cluster, ReplicationConfig
from repro.replication.node import FollowerNode, ReplicaWalBackend
from repro.replication.segment import Segment, decode_stream, encode_segment
from repro.replication.ship import (
    MODES,
    Channel,
    LogEntry,
    Replicator,
    ShippingLog,
)

__all__ = [
    "Channel",
    "Cluster",
    "FollowerNode",
    "LogEntry",
    "MODES",
    "ReplicaWalBackend",
    "ReplicationConfig",
    "Replicator",
    "Segment",
    "ShippingLog",
    "decode_stream",
    "encode_segment",
]
