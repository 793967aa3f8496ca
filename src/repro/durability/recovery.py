"""ARIES-lite restart recovery: checkpoint restore + WAL redo.

The restart sequence for one replica product:

1. **Analysis** — scan the WAL's valid record prefix (everything past
   the first torn/corrupt/gapped record is distrusted and discarded).
2. **Restore** — apply the newest checkpoint whose chain (its base,
   then its deltas in order) validates *and* applies cleanly; fall back
   to older chain points, then to a fresh install with full-history
   redo.  A checkpoint whose watermark lies
   beyond the salvaged WAL prefix is rejected too: it would encode
   state the (damaged) log can no longer vouch for, breaking the
   prefix-consistency contract.
3. **Redo** — replay WAL records with ``lsn >= watermark`` in order.
   Statements that error replay as errors (the engine's SqlError-
   continue semantics, identical to supervisor log replay); a record
   the product's dialect refuses is skipped with a warning.
4. **Undo** — the engine's transaction journal rolls back any
   transaction left open at the end of the log (``ServerProduct.restart``),
   so a power cut mid-transaction recovers to the last commit point.
5. **Re-baseline** — truncate the WAL to its valid prefix, making
   recovery idempotent: running it twice lands on the same state.

Throughout, the product is in its recovery phase
(:meth:`~repro.servers.product.ServerProduct.recovering`), so recovery-scoped
faults (:class:`repro.faults.triggers.RecoveryTrigger`) fire exactly
as they do during supervisor replay — recovery itself stays under
test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.verdicts import DDL_KINDS
from repro.durability.checkpoint import CheckpointInvalid, CheckpointStore, chain_tables
from repro.durability.wal import WalScan, WriteAheadLog
from repro.errors import FeatureNotSupported, SqlError
from repro.servers.product import ServerProduct
from repro.sqlengine.engine import ParsedStatement


@dataclass
class RecoveryReport:
    """What one restart recovery did (telemetry + test oracle)."""

    #: Name of the checkpoint restored, or ``None`` (full redo).
    checkpoint: Optional[str] = None
    #: WAL position redo resumed from (0 without a checkpoint).
    watermark: int = 0
    #: Valid WAL records found / redone past the watermark.
    wal_records: int = 0
    redone: int = 0
    #: Bytes discarded past the first invalid record, and why the scan
    #: stopped (``None`` for a clean log).
    dropped_bytes: int = 0
    stopped: Optional[str] = None
    #: A transaction was open at end-of-log and rolled back.
    aborted_transaction: bool = False
    #: Checkpoints that failed validation/application and were skipped.
    checkpoints_skipped: int = 0
    warnings: list[str] = field(default_factory=list)
    #: The DDL the recovered state was built from — the restored
    #: checkpoint's schema history plus every DDL record redone — which
    #: is the history the replica's next checkpoint must carry.
    ddl_history: list[str] = field(default_factory=list)


def apply_checkpoint(product: ServerProduct, base: dict, *deltas: dict) -> None:
    """Rebuild a product from a checkpoint chain (schema via the base's
    DDL replay, data via one bulk row load per table of the heaps
    :func:`chain_tables` rebuilds), payloads :func:`build_checkpoint`
    and :func:`build_delta` give or :func:`unpack_checkpoint` accepts.
    Raises :class:`CheckpointInvalid` when the chain cannot reproduce
    the state it claims: a malformed delta, DDL the product's dialect
    refuses, a table dump with no matching schema, or a row that does
    not decode."""
    tables = chain_tables(base, *deltas)
    product.reset()
    with product.recovering():
        for sql in base["ddl"]:
            try:
                product.execute(sql)
            except SqlError:
                continue  # errored at original execution; errors again
            except FeatureNotSupported as error:
                raise CheckpointInvalid(f"checkpoint DDL refused: {error}") from None
        try:
            for name, columns, rows in tables:
                product.load_rows(name, columns, rows)
        except ValueError as error:
            raise CheckpointInvalid(f"checkpoint row dump: {error}") from None


def recover_engine(
    product: ServerProduct, wal: WriteAheadLog, checkpoints: CheckpointStore
) -> RecoveryReport:
    """Restart one product from its durable state; see module docs.

    A record the product's dialect refuses is skipped like one that
    errors, with a warning: service never applied it (the middleware
    logs no record a replica refused)."""
    scan: WalScan = wal.scan()
    report = RecoveryReport(
        wal_records=len(scan.records),
        dropped_bytes=scan.dropped_bytes,
        stopped=scan.stopped,
    )

    for name, chain in checkpoints.chains():
        lsn = chain[-1]["lsn"]
        if lsn > len(scan.records):
            # The checkpoint is ahead of the salvaged log prefix:
            # trusting it would resurrect discarded history.
            report.checkpoints_skipped += 1
            report.warnings.append(
                f"checkpoint {name} watermark {lsn} beyond "
                f"salvaged WAL prefix {len(scan.records)}"
            )
            continue
        try:
            apply_checkpoint(product, *chain)
        except CheckpointInvalid as error:
            report.checkpoints_skipped += 1
            report.warnings.append(f"checkpoint {name} skipped: {error}")
            continue
        report.checkpoint = name
        report.watermark = lsn
        report.ddl_history = list(chain[0]["ddl"])
        break
    else:
        product.reset()

    with product.recovering():
        for record in scan.records:
            if record.lsn < report.watermark:
                continue
            ddl = False
            try:
                parsed = ParsedStatement.parse(record.sql)
                ddl = parsed.traits.kind in DDL_KINDS
                product.execute(parsed)
            except SqlError:
                pass  # errored at original execution; errors again
            except FeatureNotSupported as error:
                ddl = False  # never applied, so not schema history
                report.warnings.append(f"WAL record {record.lsn} refused: {error}")
            if ddl:
                report.ddl_history.append(record.sql)
            report.redone += 1

    if product.in_transaction:
        report.aborted_transaction = True
    product.restart()  # undo pass: roll back any open transaction
    wal.truncate_to_valid()
    return report
