"""Outcome classification: the paper's failure taxonomy, applied
mechanically by comparing a faulty run against a pristine oracle run."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.faults.spec import Detectability, FailureKind, FaultSpec
from repro.sqlengine.values import normalize_result

#: A faulty statement whose virtual cost exceeds the oracle's by this
#: factor is a performance failure (the study's "unacceptable time
#: penalty for the particular input").
PERFORMANCE_FACTOR = 100.0


class OutcomeKind(Enum):
    """Top-level classification of one (bug, server) cell."""

    CANNOT_RUN = "cannot_run"        # functionality missing (dialect-specific)
    FURTHER_WORK = "further_work"    # translation outstanding
    NO_FAILURE = "no_failure"        # ran; behaved like the oracle
    FAILURE = "failure"


@dataclass
class StatementOutcome:
    """Observed behaviour of one statement."""

    status: str  # 'ok' | 'error' | 'crash' | 'skipped'
    columns: tuple[str, ...] = ()
    rows: tuple[tuple, ...] = ()
    rowcount: int = 0
    virtual_cost: float = 0.0
    error: str = ""

    def signature(self) -> tuple:
        """Comparable signature (used for cross-server identicality)."""
        return (self.status, self.columns, self.rows, self.rowcount)


@dataclass
class ScriptOutcome:
    """Observed behaviour of a whole script run."""

    statements: list[StatementOutcome] = field(default_factory=list)
    crashed: bool = False

    def signature(self) -> tuple:
        return tuple(statement.signature() for statement in self.statements)

    def normalized_signature(self) -> tuple:
        """The signature with representation differences (column-name
        case, value spelling) normalised away, for cross-server
        identicality checks."""
        return tuple(
            (
                statement.status,
                *normalize_result(statement.columns, statement.rows),
                statement.rowcount,
            )
            if statement.status == "ok"
            else (statement.status,)
            for statement in self.statements
        )


@dataclass
class CellOutcome:
    """Final classification of one (bug, server) cell."""

    kind: OutcomeKind
    failure_kind: Optional[FailureKind] = None
    detectability: Optional[Detectability] = None
    faulty: Optional[ScriptOutcome] = None
    fired_faults: frozenset[str] = frozenset()

    @property
    def ran(self) -> bool:
        return self.kind in (OutcomeKind.NO_FAILURE, OutcomeKind.FAILURE)

    @property
    def failed(self) -> bool:
        return self.kind is OutcomeKind.FAILURE

    @property
    def self_evident(self) -> bool:
        return self.detectability is Detectability.SELF_EVIDENT


def _statement_differs(faulty: StatementOutcome, oracle: StatementOutcome) -> bool:
    """Material difference between faulty and oracle behaviour.

    Error *presence* is compared, not message text: two products (or a
    faulty and a pristine server) wording an error differently is not a
    failure; erring where the oracle succeeds (or vice versa) is.
    """
    if faulty.status != oracle.status:
        return True
    if faulty.status != "ok":
        return False
    return faulty.signature() != oracle.signature()


def classify_run(
    faulty: ScriptOutcome,
    oracle: ScriptOutcome,
    fired: frozenset[str] = frozenset(),
    fault_specs: dict[str, FaultSpec] | None = None,
) -> CellOutcome:
    """Classify a completed run against its oracle.

    ``fired``/``fault_specs`` supply the *kind* refinement the paper's
    authors made by reading the bug report: whether a non-crash anomaly
    counts as an "incorrect result" or an "other" failure.  Everything
    else — failure vs no failure, crash, performance, self-evidence —
    is decided purely from the observed behaviour.
    """
    fault_specs = fault_specs or {}

    if faulty.crashed:
        return CellOutcome(
            kind=OutcomeKind.FAILURE,
            failure_kind=FailureKind.ENGINE_CRASH,
            detectability=Detectability.SELF_EVIDENT,
            faulty=faulty,
            fired_faults=fired,
        )

    spurious_error = False
    result_diff = False
    metadata_only_diff = True
    perf = False
    for index, statement in enumerate(faulty.statements):
        reference = (
            oracle.statements[index]
            if index < len(oracle.statements)
            else StatementOutcome(status="skipped")
        )
        if statement.status == "error" and reference.status == "ok":
            spurious_error = True
            result_diff = True
            metadata_only_diff = False
        elif statement.status != reference.status:
            # e.g. succeeding where the standard demands an error
            # (DROP TABLE on a view, unvalidated DEFAULT): a silent,
            # non-self-evident incorrect behaviour.
            result_diff = True
            metadata_only_diff = False
        elif _statement_differs(statement, reference):
            result_diff = True
            if (
                statement.status == "ok"
                and statement.rows == reference.rows
                and statement.columns == reference.columns
            ):
                pass  # rowcount-only difference: metadata anomaly
            else:
                metadata_only_diff = False
        if (
            reference.status == "ok"
            and statement.status == "ok"
            and statement.virtual_cost > PERFORMANCE_FACTOR * max(reference.virtual_cost, 1.0)
        ):
            perf = True

    if not result_diff and perf:
        return CellOutcome(
            kind=OutcomeKind.FAILURE,
            failure_kind=FailureKind.PERFORMANCE,
            detectability=Detectability.SELF_EVIDENT,
            faulty=faulty,
            fired_faults=fired,
        )
    if not result_diff:
        return CellOutcome(kind=OutcomeKind.NO_FAILURE, faulty=faulty, fired_faults=fired)

    detectability = (
        Detectability.SELF_EVIDENT if spurious_error else Detectability.NON_SELF_EVIDENT
    )
    # Kind refinement: INCORRECT_RESULT by default; OTHER when the fired
    # fault declares it (or when only metadata differed).
    kind = FailureKind.INCORRECT_RESULT
    declared = [
        fault_specs[fault_id].kind for fault_id in fired if fault_id in fault_specs
    ]
    if FailureKind.OTHER in declared or (metadata_only_diff and not spurious_error):
        kind = FailureKind.OTHER
    return CellOutcome(
        kind=OutcomeKind.FAILURE,
        failure_kind=kind,
        detectability=detectability,
        faulty=faulty,
        fired_faults=fired,
    )
