"""Builders for the paper's Tables 1-4 and the Section-7 statistics,
computed from an executed :class:`~repro.study.runner.StudyResult`."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.divergence import DivergenceKind, analyze_divergence
from repro.analysis.schema import ScriptSchema
from repro.bugs import groundtruth as gt
from repro.dialects.features import SERVER_KEYS
from repro.faults.spec import FailureKind
from repro.sqlengine.lexer import split_statements
from repro.sqlengine.parser import parse_statement
from repro.study.classify import CellOutcome, OutcomeKind
from repro.study.runner import StudyResult

PAIRS = [
    ("IB", "PG"),
    ("IB", "OR"),
    ("IB", "MS"),
    ("PG", "OR"),
    ("PG", "MS"),
    ("OR", "MS"),
]


def _failure_row_key(cell: CellOutcome) -> str:
    kind = cell.failure_kind
    if kind is FailureKind.PERFORMANCE:
        return "perf"
    if kind is FailureKind.ENGINE_CRASH:
        return "crash"
    suffix = "se" if cell.self_evident else "nse"
    if kind is FailureKind.INCORRECT_RESULT:
        return f"inc_{suffix}"
    return f"other_{suffix}"


# --------------------------------------------------------------------------
# Table 1
# --------------------------------------------------------------------------


def build_table1(study: StudyResult) -> dict[str, dict[str, dict[str, int]]]:
    """Reproduce Table 1: per reported server, outcomes on all servers."""
    table: dict[str, dict[str, dict[str, int]]] = {}
    for reported in SERVER_KEYS:
        reports = study.corpus.reported_for(reported)
        table[reported] = {}
        for target in SERVER_KEYS:
            row = {
                "total": len(reports),
                "cannot_run": 0,
                "further_work": 0,
                "run": 0,
                "no_failure": 0,
                "failure": 0,
                "perf": 0,
                "crash": 0,
                "inc_se": 0,
                "inc_nse": 0,
                "other_se": 0,
                "other_nse": 0,
            }
            for report in reports:
                cell = study.outcome(report.bug_id, target)
                if cell.kind is OutcomeKind.CANNOT_RUN:
                    row["cannot_run"] += 1
                elif cell.kind is OutcomeKind.FURTHER_WORK:
                    row["further_work"] += 1
                elif cell.kind is OutcomeKind.NO_FAILURE:
                    row["run"] += 1
                    row["no_failure"] += 1
                else:
                    row["run"] += 1
                    row["failure"] += 1
                    row[_failure_row_key(cell)] += 1
            table[reported][target] = row
    return table


# --------------------------------------------------------------------------
# Table 2
# --------------------------------------------------------------------------


@dataclass
class Table2Row:
    total: int = 0
    none_fail: int = 0
    one_fails: int = 0
    two_fail: int = 0
    more_than_two: int = 0  # the paper found none; we report it anyway


def build_table2(study: StudyResult) -> dict[str, Table2Row]:
    """Reproduce Table 2: per runnable-server-combination outcome counts."""
    table: dict[str, Table2Row] = {group: Table2Row() for group in gt.PAPER_TABLE2}
    for report in study.corpus:
        ran = study.ran_on(report)
        group = gt.canonical_group(ran)
        row = table.setdefault(group, Table2Row())
        row.total += 1
        failures = len(study.failed_on(report))
        if failures == 0:
            row.none_fail += 1
        elif failures == 1:
            row.one_fails += 1
        elif failures == 2:
            row.two_fail += 1
        else:
            row.more_than_two += 1
    return table


# --------------------------------------------------------------------------
# Table 3
# --------------------------------------------------------------------------


@dataclass
class Table3Row:
    run: int = 0
    fail_any: int = 0
    one_se: int = 0
    one_nse: int = 0
    both_nondetectable: int = 0
    both_detectable_se: int = 0
    both_detectable_nse: int = 0

    @property
    def detectable_fraction(self) -> float:
        """Fraction of observed failures a 2-version pair detects."""
        if self.fail_any == 0:
            return 1.0
        return 1.0 - self.both_nondetectable / self.fail_any


def _identical_failures(study: StudyResult, bug_id: str, x: str, y: str) -> bool:
    """True when the two servers' failing runs are indistinguishable
    after representation normalisation (the non-detectable case)."""
    cell_x = study.outcome(bug_id, x)
    cell_y = study.outcome(bug_id, y)
    if cell_x.faulty is None or cell_y.faulty is None:
        return False
    return cell_x.faulty.normalized_signature() == cell_y.faulty.normalized_signature()


def build_table3(study: StudyResult) -> dict[tuple[str, str], Table3Row]:
    """Reproduce Table 3: the six 2-version pairs."""
    table: dict[tuple[str, str], Table3Row] = {}
    for x, y in PAIRS:
        row = Table3Row()
        for report in study.corpus:
            ran = study.ran_on(report)
            if x not in ran or y not in ran:
                continue
            row.run += 1
            cell_x = study.outcome(report.bug_id, x)
            cell_y = study.outcome(report.bug_id, y)
            failing = [cell for cell in (cell_x, cell_y) if cell.failed]
            if not failing:
                continue
            row.fail_any += 1
            if len(failing) == 1:
                if failing[0].self_evident:
                    row.one_se += 1
                else:
                    row.one_nse += 1
                continue
            # Both servers fail on this bug's script.
            if cell_x.self_evident or cell_y.self_evident:
                row.both_detectable_se += 1
            elif _identical_failures(study, report.bug_id, x, y):
                row.both_nondetectable += 1
            else:
                row.both_detectable_nse += 1
        table[(x, y)] = row
    return table


# --------------------------------------------------------------------------
# Table 4
# --------------------------------------------------------------------------


def build_table4(study: StudyResult) -> dict[str, dict[str, int]]:
    """Reproduce Table 4: the coincident-failure matrix.

    Counts bugs failing both at home and in the column server, matching
    the paper's table (its 13th cross-server bug, MSSQL 56775, fails
    only PostgreSQL and is reported separately by ``heisenbug_extras``).
    """
    matrix = {
        reported: {target: 0 for target in SERVER_KEYS if target != reported}
        for reported in SERVER_KEYS
    }
    for report in study.corpus:
        failed = study.failed_on(report)
        if report.reported_for not in failed:
            continue
        for target in failed - {report.reported_for}:
            matrix[report.reported_for][target] += 1
    return matrix


def heisenbug_extras(study: StudyResult) -> list[tuple[str, frozenset[str]]]:
    """Bugs failing only outside their reported server (paper: 56775)."""
    extras = []
    for report in study.corpus:
        failed = study.failed_on(report)
        if failed and report.reported_for not in failed:
            extras.append((report.bug_id, failed))
    return extras


# --------------------------------------------------------------------------
# Identicality triage (dialect artifacts vs identical incorrect results)
# --------------------------------------------------------------------------


@dataclass
class IdenticalPairBreakdown:
    """The both-nondetectable cells of Table 3, triaged.

    ``identical_incorrect``
        Both servers returned byte-identical wrong answers — the
        paper's genuinely non-detectable coincident failures.
    ``dialect_artifacts``
        The answers only became identical under representation
        normalisation, and every raw difference sits on a statement the
        divergence analyzer proves ``BENIGN_DIALECT`` with a
        normalizer-folded rule — identically *rendered*, not
        identically *wrong*.
    ``unexplained``
        Normalisation folded a raw difference the analyzer cannot
        attribute to a dialect rule (none on the shipped corpus; any
        entry here deserves investigation).
    """

    identical_incorrect: list[tuple[str, tuple[str, str]]] = None
    dialect_artifacts: list[tuple[str, tuple[str, str]]] = None
    unexplained: list[tuple[str, tuple[str, str]]] = None

    def __post_init__(self) -> None:
        self.identical_incorrect = self.identical_incorrect or []
        self.dialect_artifacts = self.dialect_artifacts or []
        self.unexplained = self.unexplained or []


def separate_identical_pairs(study: StudyResult) -> IdenticalPairBreakdown:
    """Split Table 3's "identical failure" cells into identical
    incorrect results vs identically rendered dialect artifacts."""
    breakdown = IdenticalPairBreakdown()
    for x, y in PAIRS:
        for report in study.corpus:
            ran = study.ran_on(report)
            if x not in ran or y not in ran:
                continue
            cell_x = study.outcome(report.bug_id, x)
            cell_y = study.outcome(report.bug_id, y)
            if not (cell_x.failed and cell_y.failed):
                continue
            if cell_x.self_evident or cell_y.self_evident:
                continue
            if not _identical_failures(study, report.bug_id, x, y):
                continue
            entry = (report.bug_id, (x, y))
            sig_x = cell_x.faulty.signature()
            sig_y = cell_y.faulty.signature()
            if sig_x == sig_y:
                breakdown.identical_incorrect.append(entry)
                continue
            # Raw answers differ but normalized answers agree: decide
            # per differing statement whether a dialect rule the
            # normalizer folds explains it.
            differing = [
                index
                for index in range(min(len(sig_x), len(sig_y)))
                if sig_x[index] != sig_y[index]
            ]
            schema = ScriptSchema()
            verdicts = []
            for index, statement_sql in enumerate(split_statements(report.script)):
                stmt = parse_statement(statement_sql)
                if index in differing:
                    divergence = analyze_divergence(stmt, schema)
                    verdicts.append(divergence.verdict(x, y, normalized=False))
                schema.observe(stmt)
            benign = verdicts and all(
                verdict.kind is DivergenceKind.BENIGN_DIALECT
                and verdict.atom is not None
                and verdict.atom.normalizer_folds
                for verdict in verdicts
            )
            if benign:
                breakdown.dialect_artifacts.append(entry)
            else:
                breakdown.unexplained.append(entry)
    return breakdown


# --------------------------------------------------------------------------
# Section 7 statistics
# --------------------------------------------------------------------------


@dataclass
class FailureShares:
    total_failures: int
    incorrect: int
    crash: int
    performance: int
    other: int

    @property
    def incorrect_fraction(self) -> float:
        return self.incorrect / self.total_failures if self.total_failures else 0.0

    @property
    def crash_fraction(self) -> float:
        return self.crash / self.total_failures if self.total_failures else 0.0


def failure_type_shares(study: StudyResult) -> FailureShares:
    """Section 7: shares of failure types among home-server failures
    (paper: 64.5% incorrect result, 17.1% engine crash)."""
    counters = {kind: 0 for kind in FailureKind}
    for report in study.corpus:
        cell = study.outcome(report.bug_id, report.reported_for)
        if cell.failed:
            counters[cell.failure_kind] += 1
    total = sum(counters.values())
    return FailureShares(
        total_failures=total,
        incorrect=counters[FailureKind.INCORRECT_RESULT],
        crash=counters[FailureKind.ENGINE_CRASH],
        performance=counters[FailureKind.PERFORMANCE],
        other=counters[FailureKind.OTHER],
    )


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

_T1_ROWS = [
    ("total", "Total bug scripts"),
    ("cannot_run", "Cannot be run (missing)"),
    ("further_work", "Further work"),
    ("run", "Total bug scripts run"),
    ("no_failure", "No failure observed"),
    ("failure", "Failure observed"),
    ("perf", "  Poor performance"),
    ("crash", "  Engine crash"),
    ("inc_se", "  Incorrect, self-evident"),
    ("inc_nse", "  Incorrect, non-self-evident"),
    ("other_se", "  Other, self-evident"),
    ("other_nse", "  Other, non-self-evident"),
]


def render_table1(table: dict[str, dict[str, dict[str, int]]]) -> str:
    """Plain-text rendering of Table 1 in the paper's column layout."""
    lines = []
    for reported in SERVER_KEYS:
        targets = [reported] + [key for key in SERVER_KEYS if key != reported]
        lines.append(f"Bugs reported for {reported}, run on: "
                     + "  ".join(f"{t:>4}" for t in targets))
        for key, label in _T1_ROWS:
            values = "  ".join(f"{table[reported][t][key]:>4}" for t in targets)
            lines.append(f"  {label:<32} {values}")
        lines.append("")
    return "\n".join(lines)


def render_table2(table: dict[str, Table2Row]) -> str:
    lines = [f"{'group':<6} {'total':>5} {'none':>5} {'one':>5} {'two':>5} {'>2':>4}"]
    for group in gt.PAPER_TABLE2:
        row = table.get(group, Table2Row())
        lines.append(
            f"{group:<6} {row.total:>5} {row.none_fail:>5} {row.one_fails:>5} "
            f"{row.two_fail:>5} {row.more_than_two:>4}"
        )
    return "\n".join(lines)


def render_table3(table: dict[tuple[str, str], Table3Row]) -> str:
    lines = [
        f"{'pair':<8} {'run':>4} {'fail':>5} {'1-SE':>5} {'1-NSE':>6} "
        f"{'ND':>4} {'D-SE':>5} {'D-NSE':>6} {'detect%':>8}"
    ]
    for pair, row in table.items():
        lines.append(
            f"{pair[0]}+{pair[1]:<5} {row.run:>4} {row.fail_any:>5} {row.one_se:>5} "
            f"{row.one_nse:>6} {row.both_nondetectable:>4} {row.both_detectable_se:>5} "
            f"{row.both_detectable_nse:>6} {100 * row.detectable_fraction:>7.1f}%"
        )
    return "\n".join(lines)


def render_table4(matrix: dict[str, dict[str, int]]) -> str:
    lines = ["reported \\ fails-in " + "  ".join(f"{k:>4}" for k in SERVER_KEYS)]
    for reported in SERVER_KEYS:
        cells = "  ".join(
            f"{matrix[reported].get(target, 0) if target != reported else '-':>4}"
            for target in SERVER_KEYS
        )
        lines.append(f"{reported:<19} {cells}")
    return "\n".join(lines)
