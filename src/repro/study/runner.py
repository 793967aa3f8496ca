"""Study execution: run every bug script on every server, classify,
and collect the per-cell outcomes the table builders consume."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bugs.corpus import Corpus, build_corpus
from repro.bugs.report import BugReport
from repro.dialects.features import SERVER_KEYS, dialect
from repro.dialects.translator import ScriptPieces
from repro.errors import EngineCrash, FeatureNotSupported, SqlError
from repro.faults.audit import FaultAuditEntry
from repro.faults.spec import FaultSpec
from repro.servers.product import ServerProduct
from repro.sqlengine.engine import Executable
from repro.sqlengine.lexer import split_statements
from repro.study.classify import (
    CellOutcome,
    OutcomeKind,
    ScriptOutcome,
    StatementOutcome,
    classify_run,
)


def run_script(server: ServerProduct, sql: str | list[Executable]) -> ScriptOutcome:
    """Run a script statement by statement, like the study's client did:
    errors are recorded and execution continues; a crash ends the run.

    ``sql`` is the script text, or the pieces of its
    :class:`~repro.dialects.translator.ScriptPieces` when several
    servers run it."""
    outcome = ScriptOutcome()
    for statement in split_statements(sql) if isinstance(sql, str) else sql:
        try:
            result = server.execute(statement)
        except EngineCrash:
            outcome.statements.append(StatementOutcome(status="crash"))
            outcome.crashed = True
            break
        except (SqlError, FeatureNotSupported) as error:
            outcome.statements.append(
                StatementOutcome(status="error", error=str(error))
            )
            continue
        outcome.statements.append(
            StatementOutcome(
                status="ok",
                columns=tuple(result.columns),
                rows=tuple(result.rows),
                rowcount=result.rowcount,
                virtual_cost=result.virtual_cost,
            )
        )
    return outcome


@dataclass
class StudyResult:
    """All (bug, server) cell outcomes of one full study run."""

    corpus: Corpus
    cells: dict[tuple[str, str], CellOutcome] = field(default_factory=dict)

    def outcome(self, bug_id: str, server: str) -> CellOutcome:
        return self.cells[(bug_id, server)]

    def ran_on(self, report: BugReport) -> frozenset[str]:
        """Servers the bug's script actually ran on."""
        return frozenset(
            server
            for server in SERVER_KEYS
            if self.cells[(report.bug_id, server)].ran
        )

    def failed_on(self, report: BugReport) -> frozenset[str]:
        return frozenset(
            server
            for server in SERVER_KEYS
            if self.cells[(report.bug_id, server)].failed
        )


def audit_faults(study: StudyResult) -> dict[str, list[FaultAuditEntry]]:
    """Audit every server's catalog against the study's fired faults:
    which faults fired, and on which bug scripts."""
    corpus = study.corpus
    audit: dict[str, list[FaultAuditEntry]] = {}
    for server in SERVER_KEYS:
        entries = {
            fault.fault_id: FaultAuditEntry(
                fault_id=fault.fault_id,
                server=server,
                description=fault.description,
                heisenbug=fault.heisenbug,
            )
            for fault in corpus.faults_for(server)
        }
        for report in corpus:
            cell = study.cells.get((report.bug_id, server))
            if cell is None:
                continue
            for fault_id in cell.fired_faults:
                if fault_id in entries:
                    entries[fault_id].fired_on_bugs.append(report.bug_id)
        audit[server] = sorted(entries.values(), key=lambda entry: entry.fault_id)
    return audit


def dead_faults(study: StudyResult) -> list[FaultAuditEntry]:
    """Non-Heisenbug faults that never fired — a bug script or trigger
    drifting out of sync with the corpus."""
    return [
        entry
        for entries in audit_faults(study).values()
        for entry in entries
        if not entry.heisenbug and not entry.fired_on_bugs
    ]


class StudyRunner:
    """Runs the full study: one faulty + one pristine server per product,
    reset between bug scripts."""

    def __init__(
        self,
        corpus: Optional[Corpus] = None,
        *,
        stress_mode: bool = False,
        seed: int = 0,
        faults_by_server: Optional[dict[str, list[FaultSpec]]] = None,
    ) -> None:
        self.corpus = corpus or build_corpus()
        faults = faults_by_server or self.corpus.faults_by_server()
        self.faulty: dict[str, ServerProduct] = {
            key: ServerProduct(
                dialect(key), faults[key], seed=seed, stress_mode=stress_mode
            )
            for key in SERVER_KEYS
        }
        self.oracle: dict[str, ServerProduct] = {
            key: ServerProduct(dialect(key)) for key in SERVER_KEYS
        }
        self._fault_index: dict[str, dict[str, FaultSpec]] = {
            key: {fault.fault_id: fault for fault in faults[key]} for key in SERVER_KEYS
        }
        #: The report whose cells run now and its script's pieces, built
        #: for its first cell: the runner holds no other report's.
        self._current: Optional[tuple[BugReport, ScriptPieces]] = None

    def run_cell(
        self, report: BugReport, target: str, *, script: Optional[ScriptPieces] = None
    ) -> CellOutcome:
        """Classify one (bug, server) cell.

        ``script`` substitutes home-dialect pieces for the report's own
        (the lint hands its pieces of the report, and classifies each
        bug's static trigger slice through the exact same pipeline).
        Without it the cell runs the report's own pieces, which the
        report's cells in a row share, and a translation of them that
        is not kept past the cell.
        """
        home = target == report.reported_for
        if not home and target in report.translation_pending:
            return CellOutcome(kind=OutcomeKind.FURTHER_WORK)
        if script is not None:
            translate = script.translated
        else:
            if self._current is None or self._current[0] is not report:
                self._current = (report, ScriptPieces(report.script))
            script = self._current[1]
            # Each translation lives for its own cell only: memoised on
            # the shared pieces, its parses and the plans they key would
            # stay alive through the report's later cells.
            translate = script.translation
        try:
            pieces = script.pieces if home else translate(target).pieces
        except FeatureNotSupported:
            return CellOutcome(kind=OutcomeKind.CANNOT_RUN)

        faulty_server = self.faulty[target]
        oracle_server = self.oracle[target]
        faulty_server.reset()
        oracle_server.reset()
        if faulty_server.crashed:  # pragma: no cover - reset clears crashes
            faulty_server.restart()

        before = set(faulty_server.injector.fired_fault_ids)
        faulty = run_script(faulty_server, pieces)
        fired = frozenset(faulty_server.injector.fired_fault_ids - before)
        oracle = run_script(oracle_server, pieces)
        return classify_run(faulty, oracle, fired, self._fault_index[target])

    def run(self) -> StudyResult:
        result = StudyResult(corpus=self.corpus)
        for report in self.corpus:
            for target in SERVER_KEYS:
                result.cells[(report.bug_id, target)] = self.run_cell(report, target)
        return result


def run_study(
    corpus: Optional[Corpus] = None,
    *,
    stress_mode: bool = False,
    seed: int = 0,
    faults_by_server: Optional[dict[str, list[FaultSpec]]] = None,
) -> StudyResult:
    """Run the complete study (181 bugs x 4 servers) and classify.

    ``faults_by_server`` overrides the per-server fault catalogs (used
    by the later-release study to model upgraded products)."""
    return StudyRunner(
        corpus, stress_mode=stress_mode, seed=seed, faults_by_server=faults_by_server
    ).run()
