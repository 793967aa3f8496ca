"""The storage-fault bug bank: one minimized repro per storage class.

The paper's bug bank holds one known-fault script per reported bug;
this module extends the idea to the durability layer.  Each
:class:`StorageBugReport` pairs a repro script with exactly one seeded
storage-phase fault (:class:`~repro.faults.effects.TornWriteEffect`,
:class:`~repro.faults.effects.LostFlushEffect`,
:class:`~repro.faults.effects.ChecksumCorruptionEffect`) and the
ground-truth classification the WAL scanner must produce after a power
cut: which counter bucket fires, where the prefix scan stops, and how
many committed writes the crash may legitimately lose.

Scripts are banked *minimized*: the static dataflow slicer
(:func:`repro.analysis.dataflow.minimize_script`) shrinks each script
to the backward slice of its fault trigger, and the lint gate dedupes
banked entries by that trigger slice — two repros that minimize to the
same statement sequence exercise the same fault path and one of them
is redundant.  :func:`classify_repro` is the dynamic half: run the
minimized script through a :class:`~repro.durability.session.DurableSession`,
power-cut, recover, and compare the observed behaviour against the
banked ground truth (the lint's ``storage-groundtruth-drift`` check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.dataflow import SliceResult, minimize_script
from repro.dialects.translator import ScriptPieces
from repro.durability.session import DurableSession
from repro.errors import SqlError
from repro.faults.effects import (
    ChecksumCorruptionEffect,
    LostFlushEffect,
    TornWriteEffect,
)
from repro.faults.spec import Detectability, FailureKind, FaultSpec
from repro.faults.triggers import SqlPatternTrigger
from repro.servers import make_server


@dataclass(frozen=True)
class StorageBugReport:
    """One banked storage-fault repro with its ground truth."""

    bug_id: str
    server: str
    description: str
    #: Full (unminimized) repro script, reported-dialect SQL.
    script: str
    fault: FaultSpec
    #: Expected storage counter bucket ("torn" / "lost" / "corrupt").
    expected_bucket: str
    #: Acceptable prefix-scan stop reasons after the power cut.  A torn
    #: tail reads as ``torn-payload``; the same tear mid-log reads as
    #: ``checksum-mismatch`` (later appends fill the declared length),
    #: so ground truth is a set, not a single label.
    expected_stops: frozenset[str]
    #: Committed write statements the crash is allowed to lose — the
    #: damaged record plus everything the scanner must discard after it.
    expected_lost: int
    #: Statement indices anchored in the slice beyond the trigger
    #: matches — e.g. the witness append *after* a lost flush, which is
    #: downstream of the damage and invisible to the backward slice.
    anchors: tuple[int, ...] = ()

    def minimized(self) -> SliceResult:
        """The banked form: the script's static trigger slice."""
        return minimize_script(ScriptPieces(self.script), targets=self.anchors, faults=[self.fault])

    def matches(self, observed: "StorageClassification") -> bool:
        """Does a dynamic classification agree with the ground truth?"""
        return (
            observed.bucket == self.expected_bucket
            and observed.stopped in self.expected_stops
            and observed.lost_statements == self.expected_lost
            and observed.prefix_consistent
        )


@dataclass(frozen=True)
class StorageClassification:
    """What one power-cut run of a banked repro actually did."""

    #: Storage counter bucket of the fault that fired in service.
    bucket: str
    #: Stop reason of the post-crash prefix scan (None: clean log).
    stopped: Optional[str]
    #: Bytes past the salvaged prefix the scanner discarded.
    dropped_bytes: int
    #: WAL records redone during recovery.
    redone: int
    #: Committed writes absent from the recovered state.
    lost_statements: int
    #: Recovered state equals a pristine replay of the salvaged prefix.
    prefix_consistent: bool


def storage_fault_bank() -> list[StorageBugReport]:
    """One banked repro per storage fault class, IB dialect."""
    return [
        StorageBugReport(
            bug_id="STOR-TORN-1",
            server="IB",
            description="power cut mid-append tears the final WAL record",
            script=(
                "CREATE TABLE accounts (id INT PRIMARY KEY,"
                " balance DECIMAL(10,2));\n"
                "CREATE TABLE audit_note (id INT, note VARCHAR(40));\n"
                "INSERT INTO accounts VALUES (1, 100.00);\n"
                "INSERT INTO accounts VALUES (2, 250.00);\n"
                "INSERT INTO audit_note VALUES (1, 'opening');\n"
                "UPDATE accounts SET balance = 175.00 WHERE id = 1;"
            ),
            fault=FaultSpec(
                "STOR-TORN-1-F",
                "torn write on the account balance update",
                SqlPatternTrigger(r"UPDATE\s+accounts"),
                TornWriteEffect(keep_fraction=0.5),
                kind=FailureKind.STORAGE,
                detectability=Detectability.SELF_EVIDENT,
            ),
            expected_bucket="torn",
            expected_stops=frozenset({"torn-payload", "checksum-mismatch"}),
            expected_lost=1,
        ),
        StorageBugReport(
            bug_id="STOR-LOST-1",
            server="IB",
            description="lost flush drops a mid-log record; the LSN gap "
            "forces the scanner to discard the intact tail too",
            script=(
                "CREATE TABLE stock (s_id INT PRIMARY KEY, qty INT);\n"
                "CREATE TABLE restock_note (n INT);\n"
                "INSERT INTO stock VALUES (1, 10);\n"
                "INSERT INTO restock_note VALUES (0);\n"
                "UPDATE stock SET qty = 9 WHERE s_id = 1;\n"
                "INSERT INTO stock VALUES (2, 20);"
            ),
            fault=FaultSpec(
                "STOR-LOST-1-F",
                "lost flush on the stock quantity update",
                SqlPatternTrigger(r"UPDATE\s+stock"),
                LostFlushEffect(),
                kind=FailureKind.STORAGE,
                detectability=Detectability.NON_SELF_EVIDENT,
            ),
            expected_bucket="lost",
            expected_stops=frozenset({"lsn-gap"}),
            expected_lost=2,
            anchors=(5,),
        ),
        StorageBugReport(
            bug_id="STOR-CORRUPT-1",
            server="IB",
            description="a flipped payload byte fails the record checksum",
            script=(
                "CREATE TABLE orders_log (o_id INT PRIMARY KEY,"
                " total DECIMAL(8,2));\n"
                "CREATE TABLE scratch (x INT);\n"
                "INSERT INTO orders_log VALUES (1, 19.99);\n"
                "INSERT INTO orders_log VALUES (2, 5.00);"
            ),
            fault=FaultSpec(
                "STOR-CORRUPT-1-F",
                "bit rot on the second order insert",
                SqlPatternTrigger(r"INSERT\s+INTO\s+orders_log\s+VALUES\s*\(2"),
                ChecksumCorruptionEffect(offset=3, xor=0x40),
                kind=FailureKind.STORAGE,
                detectability=Detectability.SELF_EVIDENT,
            ),
            expected_bucket="corrupt",
            expected_stops=frozenset({"checksum-mismatch"}),
            expected_lost=1,
        ),
    ]


def trigger_slice_signature(minimized: SliceResult) -> tuple[str, ...]:
    """The dedupe key of a banked repro, from its
    :meth:`~StorageBugReport.minimized` slice: the statement sequence,
    whitespace normalized.  Two banked repros with equal signatures
    exercise the same fault path."""
    return tuple(" ".join(statement.split()) for statement in minimized.statements)


def classify_repro(report: StorageBugReport, minimized: SliceResult) -> StorageClassification:
    """Run a banked repro's minimized script (its
    :meth:`~StorageBugReport.minimized` slice), power-cut, recover, and
    classify what the durability layer observed.

    Checkpoints are disabled so recovery is pure WAL redo — the prefix
    consistency check compares the recovered engine against a pristine
    product replaying exactly the salvaged records.
    """
    session = DurableSession(
        make_server(report.server, [report.fault]), name=report.bug_id
    )
    session.execute_script(minimized.sql)
    buckets = {bucket for _, bucket in session.storage_fault_log}
    committed = session.store.wal.next_lsn

    disk = session.power_cut()
    recovered, outcome = DurableSession.resume(
        make_server(report.server), disk, name=report.bug_id
    )

    pristine = make_server(report.server)
    for record in recovered.store.wal.scan().records:
        try:
            pristine.execute(record.sql)
        except SqlError:
            continue
    prefix_consistent = (
        recovered.product.state_signature() == pristine.state_signature()
    )

    return StorageClassification(
        bucket=buckets.pop() if len(buckets) == 1 else "|".join(sorted(buckets)),
        stopped=outcome.stopped,
        dropped_bytes=outcome.dropped_bytes,
        redone=outcome.redone,
        lost_statements=committed - outcome.redone,
        prefix_consistent=prefix_consistent,
    )
