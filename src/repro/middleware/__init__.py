"""Diverse-redundancy SQL middleware (the system the paper motivates).

See :class:`repro.middleware.server.DiverseServer` for the main entry
point: a fault-tolerant SQL server assembled from two or more diverse
off-the-shelf server products, comparing their answers on every
statement.  ``server.prepare(sql)`` returns a
:class:`~repro.middleware.server.PreparedStatement` that amortizes the
parse/translate/analyze front-end across repeated executions.
"""

from repro.middleware.comparator import ComparisonResult, ResultComparator
from repro.middleware.normalizer import normalize_result
from repro.middleware.pipeline import PipelineStats, StatementPipeline
from repro.middleware.server import (
    DiverseServer,
    MiddlewareStats,
    PreparedStatement,
    ServerConfig,
)
from repro.middleware.supervisor import (
    RebuildProgress,
    ReplicaState,
    ReplicaSupervisor,
    SupervisorPolicy,
    TimeoutAuditEntry,
    VirtualClock,
)
from repro.sqlengine.engine import Result
from repro.sqlengine.values import normalize_value

__all__ = [
    "ComparisonResult",
    "DiverseServer",
    "MiddlewareStats",
    "PipelineStats",
    "PreparedStatement",
    "RebuildProgress",
    "ReplicaState",
    "ReplicaSupervisor",
    "Result",
    "ResultComparator",
    "ServerConfig",
    "StatementPipeline",
    "SupervisorPolicy",
    "TimeoutAuditEntry",
    "VirtualClock",
    "normalize_result",
    "normalize_value",
]
