"""Durable self-healing replicas: WAL, checkpoints, restart recovery.

The paper's fault-tolerant-node sketch assumes a failed replica can be
brought back and re-synced; this package makes that real for the
simulated deployment:

* :mod:`repro.durability.medium` — byte-level storage media (memory
  and file), the "disk" under everything else;
* :mod:`repro.durability.wal` — write-ahead log of
  :mod:`repro.records` records with prefix-salvage scanning;
* :mod:`repro.durability.checkpoint` — logical engine snapshots in
  chains of a base (DDL history + row dumps in the :mod:`repro.records`
  scalar codec) and deltas (runs of the previous checkpoint's heap plus
  the rows written since);
* :mod:`repro.durability.recovery` — ARIES-lite restart recovery
  (checkpoint restore, WAL redo, open-transaction undo);
* :mod:`repro.durability.manager` — :class:`ReplicaStore`, the one
  durable-replica object (WAL + checkpoints + DDL history: append
  through the storage faults, checkpoint, recover), and the middleware
  integration around one store per replica: dialect-translated WALs,
  checkpoint cadence, whole-deployment restart recovery with majority
  healing;
* :mod:`repro.durability.session` — the single-product durable
  harness around one store (bug bank, property tests, benchmarks);
* :mod:`repro.durability.bank` — minimized storage-fault repro
  scripts with lint-checked ground truth.
"""

from repro.durability.bank import (
    StorageBugReport,
    StorageClassification,
    classify_repro,
    storage_fault_bank,
    trigger_slice_signature,
)
from repro.durability.checkpoint import (
    CheckpointInvalid,
    CheckpointStore,
    build_checkpoint,
)
from repro.durability.manager import (
    DurabilityManager,
    ReplicaStore,
    ServerRecovery,
    classify_storage_effect,
)
from repro.durability.medium import (
    FileMedium,
    MemoryMedium,
    StorageMedium,
)
from repro.durability.recovery import (
    RecoveryReport,
    apply_checkpoint,
    recover_engine,
)
from repro.durability.session import DurableSession
from repro.durability.wal import (
    WalRecord,
    WalScan,
    WriteAheadLog,
    encode_record,
    scan_records,
)
from repro.servers.product import engine_state_signature

__all__ = [
    "CheckpointInvalid",
    "CheckpointStore",
    "DurabilityManager",
    "DurableSession",
    "FileMedium",
    "MemoryMedium",
    "RecoveryReport",
    "ReplicaStore",
    "ServerRecovery",
    "StorageBugReport",
    "StorageClassification",
    "StorageMedium",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "apply_checkpoint",
    "build_checkpoint",
    "classify_repro",
    "classify_storage_effect",
    "encode_record",
    "engine_state_signature",
    "recover_engine",
    "scan_records",
    "storage_fault_bank",
    "trigger_slice_signature",
]
