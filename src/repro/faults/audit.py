"""Fault-catalog auditing.

:class:`FaultAuditEntry` is the audit record of one seeded fault.  The
dynamic audit over an executed study — which faults fired, on which
bug scripts, and which *never* fired (a bug script or trigger drifting
out of sync) — reads a :class:`~repro.study.runner.StudyResult`, so it
lives with the study (:func:`repro.study.runner.audit_faults`).

The checks here run nothing: the two bug banks that live outside the
corpus — the storage bank of :mod:`repro.durability.bank` and the
concurrency-anomaly bank defined here (:func:`concurrency_fault_bank`)
— are checked against their own repro scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.analysis.conflicts import AnomalyKind
from repro.analysis.reachability import script_contexts
from repro.dialects.translator import ScriptPieces
from repro.faults.effects import DirtyReadEffect, Effect, LostUpdateEffect, PhantomRowEffect
from repro.faults.spec import Detectability, FailureKind, FaultSpec
from repro.faults.triggers import SqlPatternTrigger


@dataclass
class FaultAuditEntry:
    """Audit record for one seeded fault."""

    fault_id: str
    server: str
    description: str
    heisenbug: bool
    #: Bug scripts the fault fired on in an executed study.
    fired_on_bugs: list[str] = field(default_factory=list)


def dead_repro_faults(
    bank: Iterable[tuple[Any, Sequence[ScriptPieces]]],
) -> list[FaultAuditEntry]:
    """Banked faults whose trigger matches no statement of their own
    repro: ``bank`` pairs each banked repro (its ``server`` and
    ``fault``) with the pieces of its scripts — a storage repro's one
    script, a concurrency repro's setup and each session script.

    Storage faults fire on the WAL append of a committed write and
    concurrency faults on the reads their anomaly distorts, so the
    serve-phase statement contexts of the scripts are exactly the
    contexts the injector will see; a trigger no context satisfies can
    never tear, drop or corrupt a byte, nor smuggle a lost update, dirty
    read or phantom past the analyzer's certificates.
    """
    return [
        FaultAuditEntry(
            fault_id=repro.fault.fault_id,
            server=repro.server,
            description=repro.fault.description,
            heisenbug=repro.fault.heisenbug,
        )
        for repro, scripts in bank
        if not any(
            repro.fault.trigger.matches(ctx)
            for script in scripts
            for ctx in script_contexts(script)
        )
    ]


@dataclass(frozen=True)
class ConcurrencyRepro:
    """One banked anomaly: minimized two-session repro + seeded fault."""

    bug_id: str
    server: str
    description: str
    anomaly: AnomalyKind
    setup: str
    sessions: tuple[str, ...]
    fault: FaultSpec


def concurrency_fault_bank() -> list[ConcurrencyRepro]:
    """Minimized repros, one per anomaly family.

    Each entry pairs session scripts the analyzer must flag (the
    ``concurrency-certificate-drift`` lint check) with a
    :class:`~repro.faults.effects.ConcurrencyAnomalyEffect` fault whose
    trigger must match a statement of the repro (the
    ``concurrency-dead-fault`` check) — modelling a product whose broken
    isolation exhibits exactly that anomaly.
    """

    def spec(fault_id: str, description: str, pattern: str, effect: Effect) -> FaultSpec:
        return FaultSpec(
            fault_id,
            description,
            SqlPatternTrigger(pattern),
            effect,
            kind=FailureKind.CONCURRENCY,
            detectability=Detectability.NON_SELF_EVIDENT,
        )

    return [
        ConcurrencyRepro(
            bug_id="CONC-LOSTUPDATE",
            server="IB",
            description="concurrent balance increments overwrite each other",
            anomaly=AnomalyKind.LOST_UPDATE,
            setup=(
                "CREATE TABLE account (acct_id INTEGER PRIMARY KEY, "
                "balance INTEGER);\n"
                "INSERT INTO account (acct_id, balance) VALUES (1, 100)"
            ),
            sessions=(
                "BEGIN;\n"
                "SELECT balance FROM account WHERE acct_id = 1;\n"
                "UPDATE account SET balance = 110 WHERE acct_id = 1;\n"
                "COMMIT",
                "BEGIN;\n"
                "SELECT balance FROM account WHERE acct_id = 1;\n"
                "UPDATE account SET balance = 125 WHERE acct_id = 1;\n"
                "COMMIT",
            ),
            fault=spec(
                "CONC-LOSTUPDATE",
                "reads return the pre-update balance: a concurrent "
                "increment is silently lost",
                r"SELECT\s+balance\s+FROM\s+account",
                LostUpdateEffect(delta=10),
            ),
        ),
        ConcurrencyRepro(
            bug_id="CONC-DIRTYREAD",
            server="OR",
            description="a rolled-back wallet update is visible to readers",
            anomaly=AnomalyKind.DIRTY_READ,
            setup=(
                "CREATE TABLE wallet (wallet_id INTEGER PRIMARY KEY, "
                "amount INTEGER);\n"
                "INSERT INTO wallet (wallet_id, amount) VALUES (1, 40)"
            ),
            sessions=(
                "BEGIN;\n"
                "UPDATE wallet SET amount = 140 WHERE wallet_id = 1;\n"
                "ROLLBACK",
                "SELECT amount FROM wallet WHERE wallet_id = 1",
            ),
            fault=spec(
                "CONC-DIRTYREAD",
                "reads observe another transaction's uncommitted write",
                r"SELECT\s+amount\s+FROM\s+wallet",
                DirtyReadEffect(delta=100),
            ),
        ),
        ConcurrencyRepro(
            bug_id="CONC-PHANTOM",
            server="PG",
            description="a repeated predicate scan returns a phantom row",
            anomaly=AnomalyKind.PHANTOM,
            setup=(
                "CREATE TABLE audit_log (entry_id INTEGER PRIMARY KEY, "
                "severity INTEGER);\n"
                "INSERT INTO audit_log (entry_id, severity) VALUES (1, 2);\n"
                "INSERT INTO audit_log (entry_id, severity) VALUES (2, 4)"
            ),
            sessions=(
                "BEGIN;\n"
                "SELECT entry_id FROM audit_log WHERE severity > 1;\n"
                "SELECT entry_id FROM audit_log WHERE severity > 1;\n"
                "COMMIT",
                "INSERT INTO audit_log (entry_id, severity) VALUES (3, 5)",
            ),
            fault=spec(
                "CONC-PHANTOM",
                "a predicate scan returns a row no committed state contains",
                r"SELECT\s+entry_id\s+FROM\s+audit_log",
                PhantomRowEffect(),
            ),
        ),
        ConcurrencyRepro(
            bug_id="CONC-WRITESKEW",
            server="MS",
            description="two duty-roster updates each trust the other's pre-image",
            anomaly=AnomalyKind.WRITE_SKEW,
            setup=(
                "CREATE TABLE oncall (ward INTEGER PRIMARY KEY, "
                "day_duty INTEGER, night_duty INTEGER);\n"
                "INSERT INTO oncall (ward, day_duty, night_duty) "
                "VALUES (1, 1, 1)"
            ),
            sessions=(
                "BEGIN;\n"
                "SELECT night_duty FROM oncall WHERE ward = 1;\n"
                "UPDATE oncall SET day_duty = 0 WHERE ward = 1;\n"
                "COMMIT",
                "BEGIN;\n"
                "SELECT day_duty FROM oncall WHERE ward = 1;\n"
                "UPDATE oncall SET night_duty = 0 WHERE ward = 1;\n"
                "COMMIT",
            ),
            fault=spec(
                "CONC-WRITESKEW",
                "duty reads return soon-stale values, letting both wards "
                "go off duty",
                r"SELECT\s+day_duty\s+FROM\s+oncall",
                DirtyReadEffect(delta=1),
            ),
        ),
    ]
