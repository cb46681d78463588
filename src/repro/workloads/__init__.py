"""Seeded, deterministic workload suite over the repro database.

Four workload families, each derived from one integer seed:

* :mod:`repro.workloads.mobi` — the keyed insert/update/delete mix the
  crash torture sweep defaults to and the chaos harnesses draw their
  streams from (``make_workload("mobi")``; not one of the eight
  :data:`WORKLOADS` the suite run and the bench iterate).
* :mod:`repro.workloads.ycsb` — YCSB-style key/value mixes A–F over a
  ``ycsb`` table with a secondary index on its group column (zipfian,
  hotspot, and read-latest key distributions; read-modify-write; range
  scans; indexed group reads and group updates).
* :mod:`repro.workloads.timeseries` — monotone appends plus windowed
  retention deletes, keeping the WAL/checkpoint path hot, with indexed
  per-source reads.
* :mod:`repro.workloads.queue` — a durable FIFO queue (enqueue/dequeue
  in transactions) whose oracle property is exactly-once delivery
  across recovery: a crash may lose an in-flight dequeue but must never
  double-deliver or drop a message.

Every workload plugs into three harnesses:

* the ``workloads`` bench experiment
  (``python -m repro.bench workloads``) measuring throughput and p95
  latency per mix x scheme x group-commit setting;
* the crash-point torture sweep (:mod:`repro.torture`,
  ``python -m repro.torture --workload NAME``) with per-workload
  recovered-state oracles;
* the chaos/service harness (``python -m repro.service.chaos
  --workload ycsb|queue``) replacing its insert-only streams with
  mixed read-write streams.
"""

from repro.workloads.core import Workload, db_state, model_states
from repro.workloads.mobi import MobiWorkload
from repro.workloads.queue import QueueWorkload
from repro.workloads.runner import WORKLOADS, make_workload, run_one
from repro.workloads.timeseries import TimeSeriesWorkload
from repro.workloads.ycsb import YcsbWorkload

__all__ = [
    "Workload",
    "WORKLOADS",
    "MobiWorkload",
    "QueueWorkload",
    "TimeSeriesWorkload",
    "YcsbWorkload",
    "db_state",
    "make_workload",
    "model_states",
    "run_one",
]
