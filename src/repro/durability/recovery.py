"""ARIES-lite restart recovery: checkpoint restore + WAL redo.

The restart sequence for one replica engine:

1. **Analysis** — scan the WAL's valid record prefix (everything past
   the first torn/corrupt/gapped record is distrusted and discarded).
2. **Restore** — apply the newest checkpoint that validates *and*
   applies cleanly; fall back to older checkpoints, then to a fresh
   install with full-history redo.  A checkpoint whose watermark lies
   beyond the salvaged WAL prefix is rejected too: it would encode
   state the (damaged) log can no longer vouch for, breaking the
   prefix-consistency contract.
3. **Redo** — replay WAL records with ``lsn >= watermark`` in order.
   Statements that error replay as errors (the engine's SqlError-
   continue semantics, identical to supervisor log replay).
4. **Undo** — the engine's transaction journal rolls back any
   transaction left open at the end of the log (``Engine.restart``),
   so a power cut mid-transaction recovers to the last commit point.
5. **Re-baseline** — truncate the WAL to its valid prefix, making
   recovery idempotent: running it twice lands on the same state.

Throughout, the engine is in its ``recover`` phase, so recovery-scoped
faults (:class:`repro.faults.triggers.RecoveryTrigger`) fire exactly
as they do during supervisor replay — recovery itself stays under
test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro import records
from repro.analysis.verdicts import DDL_KINDS
from repro.durability.checkpoint import CheckpointInvalid, CheckpointStore
from repro.durability.wal import WalScan, WriteAheadLog
from repro.errors import SqlError
from repro.sqlengine.engine import Executable, ParsedStatement


@dataclass
class RecoveryReport:
    """What one restart recovery did (telemetry + test oracle)."""

    replica: str
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


def apply_checkpoint(engine: Any, payload: dict) -> None:
    """Rebuild an engine from a checkpoint payload (schema via DDL
    replay, data via bulk row load).  Raises
    :class:`CheckpointInvalid` when the payload cannot reproduce the
    state it claims (e.g. a table dump with no matching schema)."""
    engine.reset()
    engine.restart()
    engine.phase = "recover"
    try:
        for sql in payload.get("ddl", ()):
            try:
                engine.execute(sql)
            except SqlError:
                continue  # errored at original execution; errors again
        for table in payload.get("tables", ()):
            data = engine.storage.get_optional(table["name"])
            if data is None:
                raise CheckpointInvalid(
                    f"checkpoint dumps table {table['name']!r} with no schema"
                )
            if data.column_count != table["columns"]:
                raise CheckpointInvalid(
                    f"checkpoint width mismatch on {table['name']!r}"
                )
            data.replace_rows(records.decode_row(row) for row in table["rows"])
    except records.ScalarInvalid as error:
        raise CheckpointInvalid(f"checkpoint row dump: {error}") from None
    finally:
        engine.phase = "serve"


def recover_engine(
    engine: Any,
    wal: WriteAheadLog,
    checkpoints: Optional[CheckpointStore] = None,
    *,
    replica: str = "?",
    execute: Optional[Callable[[Executable], Any]] = None,
) -> RecoveryReport:
    """Restart one engine from its durable state; see module docs.

    ``execute`` defaults to ``engine.execute``; pass the owning
    product's ``execute`` so dialect validation runs as in service.
    """
    run = execute or engine.execute
    scan: WalScan = wal.scan()
    report = RecoveryReport(
        replica=replica,
        wal_records=len(scan.records),
        dropped_bytes=scan.dropped_bytes,
        stopped=scan.stopped,
    )

    restored = False
    if checkpoints is not None:
        for name, payload in checkpoints.load_all():
            if payload["lsn"] > len(scan.records):
                # The checkpoint is ahead of the salvaged log prefix:
                # trusting it would resurrect discarded history.
                report.checkpoints_skipped += 1
                report.warnings.append(
                    f"checkpoint {name} watermark {payload['lsn']} beyond "
                    f"salvaged WAL prefix {len(scan.records)}"
                )
                continue
            try:
                apply_checkpoint(engine, payload)
            except CheckpointInvalid as error:
                report.checkpoints_skipped += 1
                report.warnings.append(f"checkpoint {name} skipped: {error}")
                continue
            report.checkpoint = name
            report.watermark = int(payload["lsn"])
            report.ddl_history = [str(sql) for sql in payload.get("ddl", ())]
            restored = True
            break
    if not restored:
        engine.reset()
        engine.restart()

    engine.phase = "recover"
    try:
        for record in scan.records:
            if record.lsn < report.watermark:
                continue
            try:
                parsed = ParsedStatement.parse(record.sql)
                if parsed.traits.kind in DDL_KINDS:
                    report.ddl_history.append(record.sql)
                run(parsed)
            except SqlError:
                pass  # errored at original execution; errors again
            report.redone += 1
    finally:
        engine.phase = "serve"

    if engine.transactions.in_transaction:
        report.aborted_transaction = True
    engine.restart()  # undo pass: roll back any open transaction
    wal.truncate_to_valid()
    return report


def engine_state_signature(engine: Any) -> str:
    """A canonical fingerprint of one engine's durable state.

    Covers the catalog (tables, views, indexes by name) and every
    table's row multiset in the checkpoint value codec.  Two engines
    with equal signatures hold the same logical database; the
    restart-recovery healer and the power-cut property tests compare
    these.
    """
    tables = {}
    for data in engine.storage.tables():
        rows = sorted(
            json.dumps(row, sort_keys=True, default=records.json_default)
            for row in data.snapshot()
        )
        tables[data.name.lower()] = rows
    catalog = engine.catalog
    indexes = sorted(
        index.name.lower()
        for table in catalog.tables()
        for index in catalog.indexes_on(table.name)
    )
    payload = {
        "tables": tables,
        "table_names": sorted(t.name.lower() for t in catalog.tables()),
        "views": sorted(v.name.lower() for v in catalog.views()),
        "indexes": indexes,
    }
    return json.dumps(payload, sort_keys=True)
