"""Durability for the diverse middleware: per-replica WALs, durable
checkpoints, and whole-deployment restart recovery.

Attach a :class:`DurabilityManager` to a
:class:`~repro.middleware.server.DiverseServer` via
``ServerConfig(durability=...)`` and every committed write is logged
twice:

* once to a **shared WAL** in middleware SQL (the durable form of the
  server's in-memory write log, from which ``restore_write_log``
  rebuilds adjudication state after a restart), and
* once per replica, **translated to that replica's dialect** — the
  text supervisor replay shows its fault triggers — with the
  replica's own storage-phase faults applied to the encoded bytes.  A
  torn write on the InterBase replica damages only the InterBase log:
  fault *diversity* extends to the disks.

Every replica's record is spliced, not re-rendered: the translated
template of the prepared handle that replica ran, with the call's
parameter texts (a lifted statement's literals, or a bound call's
values as the renderer spells them) in place of its placeholders.
That is byte for byte the translation of the bound text, the text
supervisor replay's call stands for, and no write is scanned again to
log it.  A replica whose translation refuses a statement
(:class:`~repro.errors.FeatureNotSupported`) gets no record — it never
applied the write in service either, and redo would refuse it again.

Checkpoints are taken on a committed-write cadence for every ACTIVE
replica (quarantined state is not trustworthy; a freshly recovered or
rebuilt replica is re-baselined through the server's recovery hook
instead).  :meth:`recover_server` is the full restart path: rebuild
the write log from the shared WAL, run ARIES-lite recovery on every
replica, then let the healthy majority adjudicate — replicas whose
recovered state signature is out-voted are quarantined and repaired
by ordinary supervisor replay before service resumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.analysis.reachability import StaticContext
from repro.analysis.verdicts import DDL_KINDS
from repro.durability.checkpoint import CheckpointStore, build_checkpoint, build_delta
from repro.durability.medium import StorageMedium
from repro.durability.recovery import RecoveryReport, recover_engine
from repro.durability.wal import WriteAheadLog
from repro.errors import EngineCrash, FeatureNotSupported
from repro.faults.effects import (
    ChecksumCorruptionEffect,
    LostFlushEffect,
    StorageEffect,
    TornWriteEffect,
)
from repro.middleware.supervisor import ReplicaState
from repro.sqlengine.analysis import StatementTraits
from repro.sqlengine.params import splice_texts
from repro.sqlengine.storage import TableImage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.spec import FaultSpec
    from repro.middleware.server import DiverseServer, Replica, StatementCall
    from repro.servers.product import ServerProduct

#: Medium name of the shared (middleware-form) write-ahead log.
SHARED_WAL = "_shared/wal"


def classify_storage_effect(effect: StorageEffect) -> str:
    """Counter bucket for one fired storage effect."""
    if isinstance(effect, TornWriteEffect):
        return "torn"
    if isinstance(effect, LostFlushEffect):
        return "lost"
    if isinstance(effect, ChecksumCorruptionEffect):
        return "corrupt"
    return "other"


def _rows(payload: dict) -> int:
    return sum(len(table["rows"]) for table in payload["tables"])


class ReplicaStore:
    """One replica's durable state on a medium: its WAL (``<name>/wal``),
    its checkpoints (``<name>/ckpt-<seq>``) and the DDL history the next
    checkpoint will carry.  The single-product
    :class:`~repro.durability.session.DurableSession` holds one; the
    :class:`DurabilityManager` holds one per replica.

    A checkpoint is a delta against the previous one, diffed from the
    :class:`~repro.sqlengine.storage.TableImage` of each table the store
    keeps from it.  It is a base instead for the store's first
    checkpoint, after DDL, after :meth:`rebase` (recovery, supervisor
    replay, rebuild: row identities change), when a heap was replaced,
    and once the deltas since the last base weigh more than its rows, a
    delta weighing its rows plus one — so a chain never costs recovery
    more than two bases."""

    def __init__(self, medium: StorageMedium, name: str) -> None:
        self.name = name
        self.wal = WriteAheadLog(medium, f"{name}/wal")
        self.checkpoints = CheckpointStore(medium, name)
        #: Every DDL statement logged so far (checkpoint schema).
        self.ddl_history: list[str] = []
        #: The images of the last checkpoint and its sequence number;
        #: None after DDL or a rebase: the next checkpoint is a base.
        self._images: Optional[dict[str, TableImage]] = None
        self._parent = -1
        #: Rows of the last base less the weight of the deltas since.
        self._budget = 0

    def append(
        self,
        product: "ServerProduct",
        sql: str,
        traits: StatementTraits,
        encoded: Optional[dict] = None,
    ) -> list["FaultSpec"]:
        """Log one committed write, in ``product``'s dialect, through
        that product's storage-phase faults; returns the faults that
        fired on the encoded record.  ``encoded`` is shared by the logs
        of one write (see :meth:`WriteAheadLog.append`)."""
        ctx = StaticContext(sql, traits)
        fired: list["FaultSpec"] = []

        def mutate(data: bytes) -> Optional[bytes]:
            mutated, faults = product.injector.mutate_storage(ctx, data)
            fired.extend(faults)
            return mutated

        self.wal.append(sql, mutate=mutate, encoded=encoded)
        if traits.kind in DDL_KINDS:
            self.ddl_history.append(sql)
            self._images = None
        return fired

    def checkpoint(self, product: "ServerProduct") -> str:
        """Publish a checkpoint at the current WAL position: a delta
        when the rules above allow one, else a base."""
        lsn = self.wal.next_lsn
        images = product.snapshot().tables
        payload = None
        if self._images is not None and self._budget >= 0:
            payload = build_delta(self._images, images, lsn=lsn, parent=self._parent)
        if payload is None:
            payload = build_checkpoint(product, lsn=lsn, ddl=self.ddl_history)
            self._budget = _rows(payload)
        else:
            self._budget -= 1 + _rows(payload)
        name = self.checkpoints.save(payload)
        self._images, self._parent = images, self.checkpoints.sequence(name)
        return name

    def rebase(self, ddl_history: list[str]) -> None:
        """The replica's rows were rebuilt from ``ddl_history`` and
        other rows: the next checkpoint is a base."""
        self.ddl_history = list(ddl_history)
        self._images = None

    def recover(self, product: "ServerProduct") -> RecoveryReport:
        """Restart recovery of ``product`` from the medium; the DDL
        history resumes from what recovery restored and redid."""
        report = recover_engine(product, self.wal, self.checkpoints)
        self.rebase(report.ddl_history)
        return report


@dataclass
class ServerRecovery:
    """Outcome of one whole-deployment restart recovery."""

    #: Statements restored into the middleware write log.
    write_log: int = 0
    #: Per-replica ARIES-lite reports.
    reports: dict[str, RecoveryReport] = field(default_factory=dict)
    #: Replicas that crashed during redo and were handed to the
    #: supervisor's backoff machinery.
    crashed: list[str] = field(default_factory=list)
    #: Replicas whose recovered state lost the majority vote and were
    #: healed by supervisor replay.
    healed: list[str] = field(default_factory=list)
    #: Tables still disagreeing after healing (should be empty).
    residual_disagreements: dict[str, list[str]] = field(default_factory=dict)


class DurabilityManager:
    """Owns the durable state of one :class:`DiverseServer`."""

    def __init__(
        self,
        medium: StorageMedium,
        *,
        checkpoint_interval: Optional[int] = 64,
    ) -> None:
        self.medium = medium
        self.checkpoint_interval = checkpoint_interval
        self._server: Optional["DiverseServer"] = None
        self._stores: dict[str, ReplicaStore] = {}
        self._shared: Optional[WriteAheadLog] = None
        self._last_checkpoint_writes = 0

    def attach(self, server: "DiverseServer") -> None:
        if self._server is not None and self._server is not server:
            raise ValueError("a DurabilityManager serves exactly one server")
        self._server = server
        self._shared = WriteAheadLog(self.medium, SHARED_WAL)
        for replica in server.replicas:
            self._stores[replica.key] = ReplicaStore(self.medium, replica.key)
        self._last_checkpoint_writes = server.stats.writes

    @property
    def stats(self):
        return self._server.stats

    def store(self, key: str) -> ReplicaStore:
        return self._stores[key]

    # -- write path -----------------------------------------------------

    def log_write(self, call: "StatementCall", traits: StatementTraits) -> None:
        """Append one committed write to the shared and replica WALs.

        Each replica's record is the literal statement its call stands
        for (:meth:`DiverseServer.literal_text`): the translated
        template of the handle it ran, with the call's parameter texts
        spliced in.  A bound value is spelled as the renderer spells
        it (``-5`` as ``- 5``), so the record is the translation of the
        bound text, the text supervisor replay's call stands for and
        restart redo runs; nothing is scanned here.  Replicas whose
        handles share a translated template share one splice, and logs
        that write the same ``(lsn, text)`` share one encoding."""
        server = self._server
        encoded: dict = {}
        self._shared.append(call.bound_sql, encoded=encoded)
        spliced: dict[str, str] = {}
        for replica in server.replicas:
            try:
                target = server.target(call, replica.product)
            except FeatureNotSupported:
                continue
            translated = spliced.get(target.sql)
            if translated is None:
                translated = spliced[target.sql] = splice_texts(
                    target.sql, target.positions, call.texts
                )
            store = self._stores[replica.key]
            for fault in store.append(replica.product, translated, traits, encoded):
                self._count_storage_fault(fault)
            self.stats.wal_records += 1

    def _count_storage_fault(self, fault) -> None:
        bucket = classify_storage_effect(fault.effect)
        if bucket == "torn":
            self.stats.wal_torn_writes += 1
        elif bucket == "lost":
            self.stats.wal_lost_flushes += 1
        elif bucket == "corrupt":
            self.stats.wal_corruptions += 1

    # -- checkpoints ----------------------------------------------------

    def maybe_checkpoint(self) -> None:
        """Durably checkpoint every ACTIVE replica on the supervisor's
        cadence rule (:meth:`ReplicaSupervisor.checkpoint_due`)."""
        active = self._server.supervisor.checkpoint_due(
            self.checkpoint_interval, self._last_checkpoint_writes
        )
        for replica in active:
            self.checkpoint_replica(replica)
        if active:
            self._last_checkpoint_writes = self.stats.writes

    def checkpoint_replica(self, replica: "Replica") -> str:
        """Write one replica's durable checkpoint at its current WAL
        position (also the re-baseline step after recovery/rebuild)."""
        name = self._stores[replica.key].checkpoint(replica.product)
        self.stats.durable_checkpoints += 1
        return name

    def on_replica_recovered(self, replica: "Replica") -> None:
        """Server hook: a replica just rejoined via supervisor replay
        or online rebuild; its durable baseline must catch up."""
        self._stores[replica.key].rebase(self._translated_ddl_history(replica))
        self.checkpoint_replica(replica)

    def _translated_ddl_history(self, replica: "Replica") -> list[str]:
        """The replica's DDL history recomputed from the middleware
        write log: the text each DDL call is in the replica's dialect
        (translation is pure, so this is always available)."""
        history: list[str] = []
        server = self._server
        for sql in server._write_log:
            call, traits = server.statement_call(sql)
            if traits.kind not in DDL_KINDS:
                continue
            try:
                history.append(server.literal_text(call, replica.product))
            except FeatureNotSupported:
                continue
        return history

    # -- restart recovery ----------------------------------------------

    def recover_server(self) -> ServerRecovery:
        """Full restart: recover every replica from the medium, restore
        the middleware write log, and heal minority replicas by
        supervisor replay.  Call on a freshly constructed server
        attached to the surviving medium."""
        server = self._server
        outcome = ServerRecovery()

        shared_scan = self._shared.scan()
        server.restore_write_log([r.sql for r in shared_scan.records])
        self._shared.truncate_to_valid()
        outcome.write_log = len(shared_scan.records)

        for replica in server.replicas:
            try:
                report = self._stores[replica.key].recover(replica.product)
            except EngineCrash:
                replica.product.restart()
                outcome.crashed.append(replica.key)
                server.supervisor.quarantine(replica)
                continue
            outcome.reports[replica.key] = report
            replica.state = ReplicaState.ACTIVE

        outcome.healed = self._heal_minority()
        outcome.residual_disagreements = server.verify_consistency()
        self.stats.durable_recoveries += 1
        return outcome

    def _heal_minority(self) -> list[str]:
        """Adjudicate recovered states: replicas outside the largest
        signature group are quarantined (supervisor replay repairs them
        from the restored write log)."""
        server = self._server
        active = server.active_replicas()
        if len(active) < 2:
            return []
        groups: dict[str, list] = {}
        for replica in active:
            groups.setdefault(replica.product.state_signature(), []).append(replica)
        if len(groups) == 1:
            return []
        majority = max(
            groups.values(),
            key=lambda members: (len(members), -server.replicas.index(members[0])),
        )
        healed: list[str] = []
        for members in groups.values():
            if members is majority:
                continue
            for replica in members:
                healed.append(replica.key)
                server.supervisor.quarantine(replica)
        return healed
