"""A single-product durable session: WAL + checkpoints for one server.

The middleware-level :class:`~repro.durability.manager.DurabilityManager`
wires durability into a :class:`~repro.middleware.server.DiverseServer`;
this module is the one-replica version used wherever a full diverse
deployment would only get in the way — the durability bug bank, the
power-cut property tests, and the recovery tests.

Every committed write statement is appended through the session's
:class:`~repro.durability.manager.ReplicaStore` — the same object, and
so the same bytes, the middleware keeps per replica — running through
the product's storage-phase faults (a seeded
:class:`~repro.faults.effects.TornWriteEffect` tears real bytes), and
checkpoints are taken on a write-count cadence.  ``power_cut`` +
``recover`` simulate kill -9 and restart.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.verdicts import WRITE_KINDS
from repro.durability.manager import ReplicaStore, classify_storage_effect
from repro.durability.medium import MemoryMedium, StorageMedium
from repro.durability.recovery import RecoveryReport
from repro.errors import SqlError
from repro.servers.product import ServerProduct
from repro.sqlengine.engine import ParsedStatement, Result
from repro.sqlengine.lexer import split_statements


class DurableSession:
    """One server product with a write-ahead log and checkpoints."""

    def __init__(
        self,
        product: ServerProduct,
        medium: Optional[StorageMedium] = None,
        *,
        name: Optional[str] = None,
        checkpoint_interval: Optional[int] = None,
    ) -> None:
        self.product = product
        self.medium = medium if medium is not None else MemoryMedium()
        self.name = name or product.key
        self.store = ReplicaStore(self.medium, self.name)
        self.checkpoint_interval = checkpoint_interval
        self._writes_since_checkpoint = 0
        #: (sql, bucket) pairs for every storage fault that fired.
        self.storage_fault_log: list[tuple[str, str]] = []

    # -- execution ------------------------------------------------------

    def execute(self, sql: str) -> Result:
        """Execute one statement; committed writes reach the WAL, and
        every ``checkpoint_interval`` of them publishes a checkpoint
        (never inside an open transaction — the WAL's BEGIN/COMMIT
        markers must not straddle the watermark)."""
        parsed = ParsedStatement.parse(sql)
        result = self.product.execute(parsed)
        if parsed.traits.kind not in WRITE_KINDS:
            return result
        for fault in self.store.append(self.product, sql, parsed.traits):
            self.storage_fault_log.append(
                (sql, classify_storage_effect(fault.effect))
            )
        self._writes_since_checkpoint += 1
        interval = self.checkpoint_interval
        if (
            interval
            and self._writes_since_checkpoint >= interval
            and not self.product.in_transaction
        ):
            self.store.checkpoint(self.product)
            self._writes_since_checkpoint = 0
        return result

    def execute_script(self, sql: str) -> list[Result]:
        """Run a multi-statement script, erroring statements skipped
        (bug-script semantics: errors are part of the scenario)."""

        results: list[Result] = []
        for statement in split_statements(sql):
            try:
                results.append(self.execute(statement))
            except SqlError:
                continue
        return results

    # -- crash / restart ------------------------------------------------

    def power_cut(self) -> StorageMedium:
        """The disk image a power cut leaves behind (memory media are
        cloned so the original session can keep running)."""
        if isinstance(self.medium, MemoryMedium):
            return self.medium.clone()
        return self.medium

    def recover(self) -> RecoveryReport:
        """Restart recovery in place: rebuild the engine from the
        medium, re-derive the DDL history, re-baseline the WAL."""
        report = self.store.recover(self.product)
        self._writes_since_checkpoint = 0
        return report

    @classmethod
    def resume(
        cls,
        product: ServerProduct,
        medium: StorageMedium,
        *,
        name: Optional[str] = None,
    ) -> tuple["DurableSession", RecoveryReport]:
        """Open a session over an existing disk image and recover it —
        the full restart path (fresh process, surviving medium).  The
        session takes no checkpoints until its ``checkpoint_interval``
        is set."""
        session = cls(product, medium, name=name)
        report = session.recover()
        return session, report
