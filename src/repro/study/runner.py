"""Study execution: run every bug script on every server, classify,
and collect the per-cell outcomes the table builders consume."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bugs.corpus import Corpus, build_corpus
from repro.bugs.report import BugReport
from repro.dialects.features import SERVER_KEYS, dialect
from repro.dialects.translator import translate_script, translate_tokens
from repro.errors import EngineCrash, FeatureNotSupported, SqlError
from repro.faults.audit import FaultAuditEntry
from repro.faults.spec import FaultSpec
from repro.servers.product import ServerProduct
from repro.sqlengine.analysis import union_traits
from repro.sqlengine.engine import Executable, ParsedStatement, parse_once
from repro.sqlengine.lexer import render_tokens, split_statements, split_tokens, tokenize
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

    ``sql`` is the script text, or its statements already split and
    parsed (:func:`parse_pieces`) when several servers run it."""
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


def parse_pieces(sql: str) -> list[Executable]:
    """The statements of a script, each parsed once (see
    :func:`~repro.sqlengine.engine.parse_once`)."""
    return [parse_once(piece) for piece in split_statements(sql)]


class ScriptPieces:
    """A script scanned once, cut at its top-level semicolons once and
    each piece parsed once, for every server it runs on.

    Each piece's text is what :func:`split_statements` gives and its
    parse what :func:`parse_pieces` gives, so a server sees what it
    would have seen of the text.
    """

    def __init__(self, script: str) -> None:
        self.script = script
        self._tokens = tokenize(script)
        eof = self._tokens[-1]
        #: The pieces in the script's own dialect.
        self.home: list[Executable] = [
            parse_once(render_tokens(piece), [*piece, eof])
            for piece in split_tokens(self._tokens)
        ]
        parsed = [piece for piece in self.home if isinstance(piece, ParsedStatement)]
        #: The dialect gate's input, ``script_traits(parse_script(script))``;
        #: None when a piece is not exactly one statement.
        self._traits = (
            union_traits(piece.traits for piece in parsed)
            if len(parsed) == len(self.home)
            else None
        )

    def translated(self, target: str) -> list[Executable]:
        """``parse_pieces(translate_script(script, target))``, raising
        like :func:`translate_script`: the home pieces themselves when
        the translation renames nothing."""
        if self._traits is None:
            return parse_pieces(translate_script(self.script, target))
        text, renamed = translate_tokens(self._tokens, self._traits, dialect(target))
        return parse_pieces(text) if renamed else self.home


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
        #: The last script's pieces: the cells of one bug run in a row.
        self._last: Optional[ScriptPieces] = None

    def run_cell(
        self, report: BugReport, target: str, *, script: Optional[str] = None
    ) -> CellOutcome:
        """Classify one (bug, server) cell.

        ``script`` substitutes a home-dialect script for the report's
        own (the lint's slice cross-check classifies each bug's static
        trigger slice through the exact same pipeline).
        """
        source = report.script if script is None else script
        home = target == report.reported_for
        if not home and target in report.translation_pending:
            return CellOutcome(kind=OutcomeKind.FURTHER_WORK)
        if self._last is None or self._last.script != source:
            self._last = ScriptPieces(source)
        try:
            pieces = self._last.home if home else self._last.translated(target)
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
