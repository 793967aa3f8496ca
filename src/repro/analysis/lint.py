"""Corpus lint: the static analyzer turned into a CI gate.

``python -m repro lint`` runs five whole-corpus consistency checks —
each one a way the corpus, the dialect layer, the fault catalogs, and
the script-level analyses can silently drift apart:

``portability-drift``
    The static per-server portability prediction
    (:func:`repro.analysis.verdicts.predicted_hosts`) must equal the
    report's ground truth ``runnable_on | translation_pending``.  A
    mismatch means a script's features and its declared gate features
    disagree.

``translator-disagreement``
    For every (report, foreign server) pair, the dynamic translation
    outcome must match the static prediction, and the translator's
    output must reparse and revalidate in the target dialect.  Catches
    token-rewrite bugs the trait gate cannot see.

``dead-fault``
    Every seeded fault's trigger must be statically reachable from at
    least one statement of a hosting script
    (:class:`repro.analysis.reachability.FaultReachability`) —
    including Heisenbug faults the dynamic audit cannot judge.

``slice-drift``
    Every bug script's static trigger slice
    (:func:`repro.bugs.corpus.minimize_report`) must reproduce
    the same per-server outcome classification as the full script when
    run through the study pipeline.  A mismatch means the def-use graph
    dropped a statement the bug actually needs.

``agree-proven-divergence``
    For every statement and product pair the divergence analyzer marks
    ``AGREE_PROVEN``, the two pristine (fault-free) products must
    return identical normalized answers on the corpus.  A violation
    means the analyzer would tell the comparator to trust an agreement
    that does not exist.

The durability bug bank (:mod:`repro.durability.bank`) is gated by
three more checks:

``storage-dead-fault``
    Every banked storage fault's trigger must statically match at
    least one statement of its own repro script
    (:func:`repro.faults.audit.dead_repro_faults`) — a fault that
    never reaches the WAL append path tests nothing.

``storage-duplicate-slice``
    No two banked repros may minimize to the same trigger slice: equal
    slices exercise the same fault path and one entry is redundant.

``storage-groundtruth-drift``
    Replaying each banked repro through a power cut
    (:func:`repro.durability.bank.classify_repro`) must reproduce the
    banked ground truth: the expected counter bucket, an acceptable
    prefix-scan stop reason, the expected number of lost writes, and a
    prefix-consistent recovered state.

The concurrency-anomaly bank
(:func:`repro.faults.audit.concurrency_fault_bank`) is gated by two
checks:

``concurrency-dead-fault``
    Every banked concurrency fault's trigger must statically match at
    least one statement of its own repro — setup or either session
    script (:func:`repro.faults.audit.dead_repro_faults`).

``concurrency-certificate-drift``
    The conflict analyzer (:func:`repro.analysis.conflicts.analyze_sessions`)
    must still predict each banked repro's anomaly.  Drift here means
    the admission layer could issue a commuting certificate for an
    interleaving the bank proves is anomalous.

The plan rewrite registry is gated by one more error check:

``uncertified-rewrite``
    Every rule in :data:`repro.sqlengine.plan.REWRITE_RULES` must carry
    a machine-checked soundness certificate
    (:func:`repro.analysis.predicates.certify_rewrites`).  A rule the
    symbolic checker cannot certify is a transformation nothing proves
    answer-preserving.

Three *warning*-severity dead-code checks ride on the static analyses:
``dead-statement`` (a write whose definitions no SELECT observes and
the trigger slice does not anchor), ``dead-column`` (a created column
no statement ever reads), and ``dead-predicate`` (a WHERE clause the
ternary-logic abstraction proves always/never holds, or a CASE arm no
row can reach).  Warnings are reported but do not fail the lint; only
``error`` findings set a non-zero exit code.

Findings are de-duplicated per (check, subject, statement) site.
``python -m repro lint --json`` emits one JSON object per finding
(``code`` / ``severity`` / ``statement_index`` / ``script_id`` /
``detail``), sorted stably for CI diffing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from repro.analysis.conflicts import analyze_sessions
from repro.analysis.dataflow import ScriptGraph, SliceResult, build_graph
from repro.analysis.divergence import DivergenceKind, analyze_divergence
from repro.analysis.predicates import certify_rewrites, summarize_statement
from repro.analysis.reachability import FaultReachability
from repro.analysis.schema import ScriptSchema
from repro.analysis.verdicts import predicted_hosts
from repro.bugs.corpus import Corpus, minimize_report
from repro.bugs.report import BugReport
from repro.dialects.features import SERVER_KEYS, dialect
from repro.dialects.translator import ScriptPieces, translation_verdict
from repro.durability.bank import classify_repro, storage_fault_bank, trigger_slice_signature
from repro.errors import FeatureNotSupported, ReproError
from repro.faults.audit import concurrency_fault_bank, dead_repro_faults
from repro.servers.product import ServerProduct
from repro.sqlengine.engine import Engine, Executable, ParsedStatement, parse_once, statement_plans
from repro.sqlengine.plan import PROBE_SCRIPTS, REWRITE_RULES, PhysicalSelect
from repro.study.runner import StudyRunner, run_script
from repro.workload.generator import TpccGenerator
from repro.workload.schema import SCHEMA_STATEMENTS


@dataclass(frozen=True)
class LintFinding:
    """One corpus-consistency violation."""

    check: str
    subject: str
    detail: str
    severity: str = "error"
    #: Zero-based statement index inside the subject's script, when the
    #: finding pins down one statement (slice/divergence checks).
    statement_index: Optional[int] = None

    def __str__(self) -> str:
        where = (
            f" (statement {self.statement_index})"
            if self.statement_index is not None
            else ""
        )
        return f"[{self.check}] {self.subject}{where}: {self.detail}"

    def to_json(self) -> str:
        """One machine-readable line: code, severity, statement index,
        script id, and the human detail."""
        return json.dumps(
            {
                "code": self.check,
                "severity": self.severity,
                "statement_index": self.statement_index,
                "script_id": self.subject,
                "detail": self.detail,
            },
            sort_keys=True,
        )


def lint_corpus(corpus: "Corpus") -> list[LintFinding]:
    """Run every check; an empty list means the corpus is consistent.

    Each report's script is scanned and parsed once, into the
    :class:`ScriptPieces` every per-report check reads; the study runner
    and the pristine products serve every report in turn."""
    runner = StudyRunner(corpus)
    pristine = {server: ServerProduct(dialect(server)) for server in SERVER_KEYS}
    reachability = FaultReachability(corpus)
    rewrites = _RewriteCoverage()
    portability, translator, slices, agreement, dead_code, predicates = ([] for _ in range(6))
    for report in corpus:
        script = ScriptPieces(report.script)
        # First, while no engine has compiled a plan for these pieces:
        # the coverage pass reads the plans each statement holds.
        rewrites.add(script)
        reachability.add(report, script)
        predicted = predicted_hosts(script)
        graph = build_graph(script)
        sliced = minimize_report(report, script, graph)
        portability += _check_portability_drift(report, predicted)
        translator += _check_translator_agreement(report, script, predicted)
        slices += _check_slice_reproduction(runner, report, script, sliced)
        agreement += _check_agree_proven(pristine, report, script)
        dead_code += _check_dead_code(report, graph, sliced)
        predicates += _check_dead_predicates(report, script)
    return _dedupe(
        [
            *portability,
            *translator,
            *_check_dead_faults(reachability),
            *slices,
            *agreement,
            *_check_storage_bank(),
            *_check_concurrency_bank(),
            *_check_rewrite_certificates(),
            *dead_code,
            *rewrites.findings(),
            *predicates,
        ]
    )


def _dedupe(findings: list[LintFinding]) -> list[LintFinding]:
    """Collapse repeats of the same (check, subject, statement) site.

    Several checks walk overlapping structures (e.g. the same CASE
    expression reached through two expression roots); the first finding
    carries all the signal, the rest are noise in CI annotations."""
    seen: set[tuple[str, str, Optional[int]]] = set()
    unique: list[LintFinding] = []
    for finding in findings:
        key = (finding.check, finding.subject, finding.statement_index)
        if key in seen:
            continue
        seen.add(key)
        unique.append(finding)
    return unique


def _check_portability_drift(report: BugReport, predicted: frozenset[str]) -> list[LintFinding]:
    expected = frozenset(report.runnable_on | report.translation_pending)
    if predicted == expected:
        return []
    return [
        LintFinding(
            check="portability-drift",
            subject=report.bug_id,
            detail=(
                f"static prediction {sorted(predicted)} != "
                f"ground truth {sorted(expected)}"
            ),
        )
    ]


def _check_translator_agreement(
    report: BugReport, script: ScriptPieces, predicted: frozenset[str]
) -> list[LintFinding]:
    findings: list[LintFinding] = []
    for server in SERVER_KEYS:
        if server == report.reported_for:
            continue
        outcome = translation_verdict(script, server)
        statically_hosted = server in predicted
        if outcome.ok != statically_hosted:
            findings.append(
                LintFinding(
                    check="translator-disagreement",
                    subject=f"{report.bug_id}->{server}",
                    detail=(
                        f"translator {'accepted' if outcome.ok else 'refused'} "
                        f"but static prediction says "
                        f"{'can run' if statically_hosted else 'cannot run'}"
                        + (f" (missing {outcome.missing})" if outcome.missing else "")
                    ),
                )
            )
        elif outcome.ok and not outcome.reparse_ok:
            findings.append(
                LintFinding(
                    check="translator-disagreement",
                    subject=f"{report.bug_id}->{server}",
                    detail="translated output fails to reparse/revalidate "
                    "in the target dialect",
                )
            )
    return findings


def _check_dead_faults(reachability: FaultReachability) -> list[LintFinding]:
    return [
        LintFinding(
            check="dead-fault",
            subject=f"{server}:{fault.fault_id}",
            detail=f"trigger unreachable from any hosting script "
            f"({fault.description})",
        )
        for server, fault in reachability.unreachable()
    ]


def _check_slice_reproduction(
    runner: StudyRunner, report: BugReport, script: ScriptPieces, sliced: SliceResult
) -> list[LintFinding]:
    """The static trigger slice of a bug script must classify the same
    as the full script, on every server."""
    if not sliced.dropped:
        return []  # slice == full script: nothing to drift
    reduced_script = script.sliced(sliced.kept)
    fulls = [runner.run_cell(report, server, script=script) for server in SERVER_KEYS]
    reduceds = [runner.run_cell(report, server, script=reduced_script) for server in SERVER_KEYS]
    findings: list[LintFinding] = []
    for server, full, reduced in zip(SERVER_KEYS, fulls, reduceds):
        same = (
            full.kind is reduced.kind
            and full.failure_kind is reduced.failure_kind
            and full.detectability is reduced.detectability
        )
        if not same:
            findings.append(
                LintFinding(
                    check="slice-drift",
                    subject=f"{report.bug_id}@{server}",
                    detail=(
                        f"full script classifies as {_cell_label(full)} but "
                        f"its trigger slice (dropped statements "
                        f"{list(sliced.dropped)}) classifies as "
                        f"{_cell_label(reduced)}"
                    ),
                )
            )
    return findings


def _cell_label(cell) -> str:
    parts = [cell.kind.name]
    if cell.failure_kind is not None:
        parts.append(cell.failure_kind.name)
    if cell.detectability is not None:
        parts.append(cell.detectability.name)
    return "/".join(parts)


def _check_agree_proven(
    pristine: dict[str, ServerProduct], report: BugReport, script: ScriptPieces
) -> list[LintFinding]:
    """AGREE_PROVEN product pairs must never dynamically diverge on a
    corpus script without an active fault."""
    servers = sorted(report.runnable_on)
    if len(servers) < 2:
        return []
    outcomes = {}
    for server in servers:
        try:
            hosted = script if server == report.reported_for else script.translated(server)
        except FeatureNotSupported:  # pragma: no cover - drift check
            continue
        pristine[server].reset()
        outcomes[server] = run_script(pristine[server], hosted.pieces).normalized_signature()
    findings: list[LintFinding] = []
    schema = ScriptSchema()
    for index, piece in enumerate(script.statements()):
        divergence = analyze_divergence(piece.statement, schema)
        schema.observe(piece.statement)
        for a, b in combinations([server for server in servers if server in outcomes], 2):
            if divergence.verdict(a, b, normalized=True).kind is not DivergenceKind.AGREE_PROVEN:
                continue
            sig_a, sig_b = outcomes[a], outcomes[b]
            if index >= len(sig_a) or index >= len(sig_b):
                continue  # an earlier crash truncated the run
            if sig_a[index] != sig_b[index]:
                findings.append(
                    LintFinding(
                        check="agree-proven-divergence",
                        subject=f"{report.bug_id}:{a}-{b}",
                        statement_index=index,
                        detail=(
                            "analyzer proved agreement but pristine "
                            f"products answered differently: "
                            f"{sig_a[index]!r} vs {sig_b[index]!r}"
                        ),
                    )
                )
    return findings


def _check_storage_bank() -> list[LintFinding]:
    """The durability bug bank's own gate: reachable triggers, unique
    trigger slices, and power-cut classifications matching the banked
    ground truth."""
    bank = storage_fault_bank()
    findings: list[LintFinding] = [
        LintFinding(
            check="storage-dead-fault",
            subject=f"{entry.server}:{entry.fault_id}",
            detail=f"trigger matches no statement of its repro script "
            f"({entry.description})",
        )
        for entry in dead_repro_faults((report, [ScriptPieces(report.script)]) for report in bank)
    ]
    minimized = {report.bug_id: report.minimized() for report in bank}
    slices: dict[tuple[str, ...], str] = {}
    for report in bank:
        signature = trigger_slice_signature(minimized[report.bug_id])
        first = slices.setdefault(signature, report.bug_id)
        if first != report.bug_id:
            findings.append(
                LintFinding(
                    check="storage-duplicate-slice",
                    subject=report.bug_id,
                    detail=f"trigger slice identical to {first}: the two "
                    "repros exercise the same fault path",
                )
            )
    for report in bank:
        observed = classify_repro(report, minimized[report.bug_id])
        if not report.matches(observed):
            findings.append(
                LintFinding(
                    check="storage-groundtruth-drift",
                    subject=report.bug_id,
                    detail=(
                        f"power-cut replay observed bucket={observed.bucket} "
                        f"stop={observed.stopped} lost={observed.lost_statements} "
                        f"prefix_consistent={observed.prefix_consistent}; bank "
                        f"expects bucket={report.expected_bucket} "
                        f"stop in {sorted(report.expected_stops)} "
                        f"lost={report.expected_lost}"
                    ),
                )
            )
    return findings


def _check_concurrency_bank() -> list[LintFinding]:
    """The concurrency-anomaly bank's gate: reachable triggers and a
    conflict analyzer that still predicts every banked anomaly."""
    bank = [
        (entry, [ScriptPieces(script) for script in (entry.setup, *entry.sessions)])
        for entry in concurrency_fault_bank()
    ]
    findings: list[LintFinding] = [
        LintFinding(
            check="concurrency-dead-fault",
            subject=f"{entry.server}:{entry.fault_id}",
            detail=f"trigger matches no statement of its repro sessions "
            f"({entry.description})",
        )
        for entry in dead_repro_faults(bank)
    ]
    for entry, (setup, *sessions) in bank:
        report = analyze_sessions(sessions, setup=setup)
        if entry.anomaly.value not in report.verdict.anomaly_kinds:
            findings.append(
                LintFinding(
                    check="concurrency-certificate-drift",
                    subject=entry.bug_id,
                    detail=(
                        f"analyzer verdict {report.verdict.status.value} "
                        f"(anomalies {sorted(report.verdict.anomaly_kinds)}) "
                        f"no longer predicts the banked anomaly "
                        f"{entry.anomaly.value!r}"
                    ),
                )
            )
    return findings


def _check_rewrite_certificates() -> list[LintFinding]:
    """Every registered plan rewrite rule must carry a machine-checked
    soundness certificate (:func:`repro.analysis.predicates.certify_rewrites`).
    An uncertifiable rule — no certifier registered, or an obligation
    that fails its enumeration/structural law — is an *error*: the
    planner would be applying a transformation nothing proves
    answer-preserving."""
    return [
        LintFinding(
            check="uncertified-rewrite",
            subject=certificate.rule,
            detail=f"rewrite soundness not certified: {certificate.detail}",
        )
        for certificate in certify_rewrites().values()
        if not certificate.certified
    ]


def _check_dead_predicates(report: BugReport, script: ScriptPieces) -> list[LintFinding]:
    """Warning-severity dead-predicate findings from the ternary-logic
    abstraction: WHERE clauses that can never (or always) hold and CASE
    arms no row can reach (:func:`repro.analysis.predicates.summarize_statement`)."""
    findings: list[LintFinding] = []
    schema = ScriptSchema()
    for index, piece in enumerate(script.statements()):
        summary = summarize_statement(piece.statement, schema)
        schema.observe(piece.statement)
        for dead in summary.dead:
            findings.append(
                LintFinding(
                    check="dead-predicate",
                    subject=report.bug_id,
                    severity="warning",
                    statement_index=index,
                    detail=f"{dead.site}: {dead.detail}",
                )
            )
    return findings


def _check_dead_code(
    report: BugReport, graph: ScriptGraph, sliced: SliceResult
) -> list[LintFinding]:
    """Warning-severity dead-code findings from a script's def-use
    ``graph``.  Statements its trigger slice ``sliced`` anchors are
    excluded — being invisible to SELECTs is often precisely the bug's
    point."""
    findings: list[LintFinding] = []
    kept = set(sliced.kept)
    dead = [index for index in graph.dead_statements() if index not in kept]
    if dead:
        findings.append(
            LintFinding(
                check="dead-statement",
                subject=report.bug_id,
                severity="warning",
                statement_index=dead[0],
                detail=(
                    f"write statement(s) {dead} define cells no SELECT "
                    "observes and the trigger slice does not anchor"
                ),
            )
        )
    columns = graph.dead_columns()
    if columns:
        findings.append(
            LintFinding(
                check="dead-column",
                subject=report.bug_id,
                severity="warning",
                detail="created column(s) never read: "
                + ", ".join(f"{relation}.{column}" for relation, column in columns),
            )
        )
    return findings


class _RewriteCoverage:
    """Warning-severity dead-rewrite detection.

    Every rewrite rule registered in the planner
    (:data:`repro.sqlengine.plan.REWRITE_RULES`) must fire on at least
    one planner witness script, one corpus statement, or one generated
    TPC-C (sqlgen) statement; a rule no script exercises is dead weight
    whose correctness nothing tests.  Statements are replayed on a
    pristine engine because rule applicability depends on live catalog
    state (index selection reads the unique-key sets).  The witness
    scripts run first (one per registered rule, cheap): a rule that
    silently regressed into never applying is caught even when no
    corpus script happens to exercise it.  Each corpus script
    (:meth:`add`) and then TPC-C (:meth:`findings`) run only while a
    rule has not fired."""

    def __init__(self) -> None:
        self.exercised: set[str] = set()
        engine = Engine(name="lint")
        for sql in PROBE_SCRIPTS:
            self._run(engine, parse_once(sql))

    def _run(self, engine: Engine, piece: Executable) -> None:
        """Run one statement and note the rules its SELECT plans
        applied (a statement that errors by design may still have
        compiled one)."""
        try:
            engine.execute(piece)
        except ReproError:
            pass
        if isinstance(piece, ParsedStatement):
            for plan in statement_plans(piece.statement):
                if isinstance(plan, PhysicalSelect):
                    self.exercised.update(plan.plan.applied_rules)

    def add(self, script: ScriptPieces) -> None:
        """Replay one corpus script; its pieces must hold no plan yet,
        so the plans read are the ones this replay compiled."""
        if set(REWRITE_RULES) - self.exercised:
            engine = Engine(name="lint")
            for piece in script.pieces:
                self._run(engine, piece)

    def findings(self) -> list[LintFinding]:
        if set(REWRITE_RULES) - self.exercised:
            engine = Engine(name="lint")
            for sql in SCHEMA_STATEMENTS:
                engine.execute(sql)
            generator = TpccGenerator(seed=1)
            for transaction in generator.transactions(4):
                for sql in transaction.statements:
                    self._run(engine, parse_once(sql))
        return [
            LintFinding(
                check="dead-rewrite",
                subject=rule,
                severity="warning",
                detail=(
                    "plan rewrite rule never fires on any corpus, generated "
                    "TPC-C, or planner witness statement"
                ),
            )
            for rule in sorted(set(REWRITE_RULES) - self.exercised)
        ]


def run_lint(
    corpus: "Corpus",
    emit: Callable[[str], None] = print,
    *,
    as_json: bool = False,
) -> int:
    """Run the lint, report findings, return a process exit code.

    Only ``error``-severity findings fail the lint; warnings are
    reported (and serialized under ``--json``) but exit 0."""
    findings = lint_corpus(corpus)
    if as_json:
        # CI diffing wants a stable order regardless of which check
        # produced a finding first.
        findings = sorted(
            findings,
            key=lambda finding: (
                finding.check,
                finding.subject,
                finding.statement_index if finding.statement_index is not None else -1,
                finding.detail,
            ),
        )
    errors = [finding for finding in findings if finding.severity == "error"]
    warnings = len(findings) - len(errors)
    for finding in findings:
        emit(finding.to_json() if as_json else str(finding))
    if errors:
        if not as_json:
            emit(f"lint: {len(errors)} error(s), {warnings} warning(s)")
        return 1
    if not as_json:
        emit(
            f"lint: corpus clean, {warnings} warning(s) (portability "
            "predictions, translator agreement, fault reachability, slice "
            "reproduction, proven agreement, storage-fault bank, "
            "concurrency-fault bank, rewrite certificates, dead-code, "
            "dead-rewrite and dead-predicate warnings)"
        )
    return 0
