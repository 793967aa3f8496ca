"""Fault-injection framework.

A *fault* is a named behaviour mutation seeded into a simulated server
product.  Faults have a trigger (when does it fire), an effect (what
does it do), and an activation model (Bohrbug: always when triggered;
Heisenbug: only under stress, probabilistically) — mirroring the
terminology of Gray (1987) the paper adopts.

Public surface:

* :class:`~repro.faults.spec.FaultSpec` and the
  :class:`~repro.faults.spec.FailureKind` /
  :class:`~repro.faults.spec.Detectability` enums
* trigger combinators in :mod:`repro.faults.triggers`
* effect classes in :mod:`repro.faults.effects`
* :class:`~repro.faults.injector.FaultInjector` — plugged into an
  :class:`~repro.sqlengine.engine.Engine`
"""

from repro.faults.effects import (
    BehaviourFlagEffect,
    ChecksumCorruptionEffect,
    ConcurrencyAnomalyEffect,
    ConnectionResetEffect,
    CorruptFrameEffect,
    CrashEffect,
    DelayFrameEffect,
    DialectRenderEffect,
    DirtyReadEffect,
    DropFrameEffect,
    DuplicateFrameEffect,
    ErrorEffect,
    HangEffect,
    LostFlushEffect,
    LostUpdateEffect,
    NetDelivery,
    NetworkEffect,
    PartitionDropBugEffect,
    PartitionEffect,
    PerformanceEffect,
    PhantomRowEffect,
    PlanStageBugEffect,
    PredicateFoldBugEffect,
    ReorderFrameEffect,
    RowDropEffect,
    RowDuplicateEffect,
    RowcountSkewEffect,
    ScanOrderEffect,
    StallEffect,
    StorageEffect,
    TornWriteEffect,
    ValueSkewEffect,
)
from repro.faults.injector import FaultInjector
from repro.faults.spec import Detectability, FailureKind, FaultSpec
from repro.faults.triggers import (
    AlwaysTrigger,
    RecoveryTrigger,
    RelationTrigger,
    SqlPatternTrigger,
    TagTrigger,
    TriggerContext,
)

__all__ = [
    "AlwaysTrigger",
    "BehaviourFlagEffect",
    "ChecksumCorruptionEffect",
    "ConcurrencyAnomalyEffect",
    "ConnectionResetEffect",
    "CorruptFrameEffect",
    "CrashEffect",
    "DelayFrameEffect",
    "Detectability",
    "DialectRenderEffect",
    "DirtyReadEffect",
    "DropFrameEffect",
    "DuplicateFrameEffect",
    "ErrorEffect",
    "FailureKind",
    "FaultInjector",
    "FaultSpec",
    "HangEffect",
    "LostFlushEffect",
    "LostUpdateEffect",
    "NetDelivery",
    "NetworkEffect",
    "PartitionDropBugEffect",
    "PartitionEffect",
    "PerformanceEffect",
    "PhantomRowEffect",
    "PlanStageBugEffect",
    "PredicateFoldBugEffect",
    "RecoveryTrigger",
    "RelationTrigger",
    "ReorderFrameEffect",
    "RowDropEffect",
    "RowDuplicateEffect",
    "RowcountSkewEffect",
    "ScanOrderEffect",
    "SqlPatternTrigger",
    "StallEffect",
    "StorageEffect",
    "TagTrigger",
    "TornWriteEffect",
    "TriggerContext",
    "ValueSkewEffect",
]
