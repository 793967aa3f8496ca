"""Command-line entry point: ``python -m repro [command]``.

Commands
--------
``study`` (default)
    Run the full 181-bug study and print the reproduced Tables 1-4
    plus the Section-7 statistics.
``tables``
    Like ``study`` but terse: one line per table with the match status
    against the published cells.
``tpcc [N]``
    Run N TPC-C-style transactions (default 100) through a 1-version
    and a 2-version configuration and print throughput/dependability.
``crashstorm [N]`` / ``hangstorm [N]`` / ``diskstorm [N]`` / ``netstorm [N]``
/ ``racestorm [N]``
    Fault-storm drills (default 120 transactions each), dispatched
    through the registry in :mod:`repro.storms`: a 3-version majority
    configuration battered at one layer — repeated replica crashes
    (in service and during recovery replay), replica hangs against a
    statement deadline, WAL tear/loss/corruption with a power-cut
    restart and online rebuild, (``netstorm``) the served wire
    frontend under drop/delay/duplicate/reorder/corrupt/reset/
    partition network faults with concurrent terminals, session
    resumption, and exactly-once dedupe telemetry, or (``racestorm``)
    statement-interleaved TPC-C terminals with conflict-aware
    admission racing concurrency-anomaly faults seeded on one replica.
``conflicts [N]``
    Statically analyze N interleaved TPC-C terminal scripts (default
    2): the cross-session statement-pair conflict census and the
    serializability verdict, with a concrete witness interleaving for
    every predicted anomaly.
``report [PATH]``
    Write a full markdown study report (default: study_report.md).
``export [PATH]``
    Export the corpus (scripts + ground truth) as JSON
    (default: corpus.json).
``lint [--json]``
    Statically lint the corpus and fault catalogs: portability
    predictions vs ground truth, translator agreement, fault-trigger
    reachability, slice-vs-reproduction drift, proven-agreement
    violations, the storage and concurrency fault banks, and
    warning-severity dead-code findings.  ``--json`` emits one JSON
    object per finding (code, severity, statement index, script id).
    Exit status 1 when any *error*-severity finding is reported (CI
    gate); warnings report without failing.
``slice BUG_ID``
    Print a bug script's static trigger slice — the minimal statement
    subsequence that preserves the bug's reproduction — with the
    dropped statement indices.
``explain "SQL"``
    Show the optimized logical plan the engine compiles for one SELECT
    against the TPC-C schema (rewrites applied; each ``?`` planned as
    the kind of the operand it is compared with), or a one-line note
    for any other statement.
``tlp "SQL"``
    Show the ternary-logic abstraction of one SELECT against the hunt
    schema: the WHERE clause's abstract truth set, dead-predicate
    findings, and the TLP partition triple (base query plus the
    ``p`` / ``NOT p`` / ``p IS NULL`` partitions) with its certificate
    — or the blockers that make the statement unpartitionable.
``hunt [N]``
    Run a generative bug-hunt campaign of N rounds (default 200):
    NULL-rich generated predicates checked per product by the static
    TLP partition oracle and PQS-style pivot containment, with
    cross-product votes triaged through the dialect divergence
    analyzer (BENIGN_DIALECT divergences filtered).  Prints the
    campaign counters and the deduplicated finding bank with minimized
    repro scripts.  Exit 1 when any finding is banked.

Every command validates its arguments up front: bad arguments print a
usage line to stderr and exit 2 (never a traceback).
"""

from __future__ import annotations

import sys

from repro.bugs import build_corpus
from repro.bugs import groundtruth as gt
from repro.study import (
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    failure_type_shares,
    run_study,
    separate_identical_pairs,
)
from repro.study.tables import render_table1, render_table2, render_table3, render_table4


def _run_study():
    corpus = build_corpus()
    return corpus, run_study(corpus)


def cmd_study() -> int:
    _, study = _run_study()
    print(render_table1(build_table1(study)))
    print(render_table2(build_table2(study)))
    print()
    print(render_table3(build_table3(study)))
    print()
    print(render_table4(build_table4(study)))
    shares = failure_type_shares(study)
    print(
        f"\nincorrect-result failures: {100 * shares.incorrect_fraction:.1f}% "
        f"(paper 64.5%); crashes: {100 * shares.crash_fraction:.1f}% (paper 17.1%)"
    )
    breakdown = separate_identical_pairs(study)
    print(
        f"identical coincident failures: "
        f"{len(breakdown.identical_incorrect)} identical incorrect result(s), "
        f"{len(breakdown.dialect_artifacts)} identically rendered dialect "
        f"artifact(s), {len(breakdown.unexplained)} unexplained"
    )
    return 0


def cmd_tables() -> int:
    _, study = _run_study()
    table1 = build_table1(study)
    t1_match = all(
        table1[r][t][k] == v
        for r, targets in gt.PAPER_TABLE1.items()
        for t, expected in targets.items()
        for k, v in expected.items()
    )
    table3 = build_table3(study)
    t3_match = all(
        (
            row.run, row.fail_any, row.one_se, row.one_nse,
            row.both_nondetectable, row.both_detectable_se,
            row.both_detectable_nse,
        ) == gt.PAPER_TABLE3[pair]
        for pair, row in table3.items()
    )
    table4 = build_table4(study)
    t4_match = all(
        table4[r][t] == v
        for r, columns in gt.PAPER_TABLE4.items()
        for t, v in columns.items()
    )
    table2 = build_table2(study)
    t2_deviations = sum(
        1
        for group, paper in gt.PAPER_TABLE2.items()
        if (
            table2[group].total, table2[group].none_fail,
            table2[group].one_fails, table2[group].two_fail,
        ) != paper
    )
    print(f"Table 1: {'EXACT' if t1_match else 'MISMATCH'} (192 cells)")
    print(f"Table 2: {t2_deviations} cells deviate (documented; totals and "
          f"two-server rows exact)")
    print(f"Table 3: {'EXACT' if t3_match else 'MISMATCH'} (42 cells)")
    print(f"Table 4: {'EXACT' if t4_match else 'MISMATCH'}")
    return 0 if (t1_match and t3_match and t4_match) else 1


def cmd_tpcc(count: int) -> int:
    from repro.middleware import DiverseServer
    from repro.servers import make_interbase, make_oracle, make_server
    from repro.workload import WorkloadRunner

    for label, endpoint in [
        ("1v IB", make_server("IB")),
        ("2v IB+OR", DiverseServer([make_interbase(), make_oracle()],
                                   adjudication="compare")),
    ]:
        runner = WorkloadRunner(endpoint, seed=1)
        runner.setup()
        metrics = runner.run(count)
        print(f"{label:<10} {metrics.statements_per_second:>8.0f} stmt/s  "
              f"errors={metrics.sql_errors} "
              f"disagreements={metrics.detected_disagreements}")
    return 0


def cmd_report(path: str) -> int:
    from repro.study.reporting import study_report_markdown

    _, study = _run_study()
    try:
        with open(path, "w") as handle:
            handle.write(study_report_markdown(study))
    except OSError as error:
        print(f"cannot write {path!r}: {error}", file=sys.stderr)
        return 2
    print(f"wrote {path}")
    return 0


def cmd_lint(as_json: bool = False) -> int:
    from repro.analysis.lint import run_lint

    return run_lint(build_corpus(), as_json=as_json)


def cmd_slice(bug_id: str) -> int:
    from repro.bugs import minimize_report

    corpus = build_corpus()
    matches = [report for report in corpus if report.bug_id == bug_id]
    if not matches:
        known = ", ".join(sorted(report.bug_id for report in corpus)[:4])
        print(
            f"usage: python -m repro slice BUG_ID\n"
            f"  unknown bug id {bug_id!r} (known ids look like: {known}, ...)",
            file=sys.stderr,
        )
        return 2
    report = matches[0]
    sliced = minimize_report(report)
    total = len(sliced.kept) + len(sliced.dropped)
    anchors = dict(sliced.anchors)
    print(f"{report.bug_id}: kept {len(sliced.kept)}/{total} statement(s), "
          f"dropped {list(sliced.dropped)}")
    for index, statement in zip(sliced.kept, sliced.statements):
        reason = anchors.get(index)
        note = f"  -- anchor: {reason}" if reason else ""
        print(f"[{index:>2}] {statement};{note}")
    return 0


def cmd_conflicts(terminals: int) -> int:
    from repro.analysis.conflicts import analyze_sessions
    from repro.workload import TpccGenerator
    from repro.workload.schema import SCHEMA_STATEMENTS

    scripts = []
    for index in range(terminals):
        generator = TpccGenerator(seed=index + 1)
        statements: list[str] = []
        for transaction in generator.transactions(2):
            statements.extend(transaction.statements)
        scripts.append(";\n".join(statements))
    report = analyze_sessions(scripts, setup=";\n".join(SCHEMA_STATEMENTS))
    print(f"conflict analysis over {terminals} TPC-C terminal script(s), "
          f"{len(report.transactions)} transaction(s):")
    for kind, count in report.pair_counts.items():
        print(f"  {kind.value:<13} {count:>4} statement pair(s)")
    verdict = report.verdict
    line = f"verdict: {verdict.status.value}"
    if verdict.reason:
        line += f" ({verdict.reason})"
    print(line)
    for witness in verdict.anomalies:
        cells = ", ".join(f"{r}.{c}" for r, c in sorted(witness.cells))
        print(f"\npossible {witness.kind.value} between "
              f"{' and '.join(witness.transactions)} on {cells}")
        if witness.note:
            print(f"  {witness.note}")
        for step in witness.schedule:
            print(f"  {step}")
    return 0


def cmd_export(path: str) -> int:
    from repro.bugs.serialize import corpus_to_json

    try:
        with open(path, "w") as handle:
            handle.write(corpus_to_json(build_corpus()))
    except OSError as error:
        print(f"cannot write {path!r}: {error}", file=sys.stderr)
        return 2
    print(f"wrote {path}")
    return 0


def cmd_explain(sql: str) -> int:
    from repro.errors import SqlError
    from repro.servers import make_server
    from repro.workload.schema import SCHEMA_STATEMENTS

    server = make_server("PG")
    for statement in SCHEMA_STATEMENTS:
        server.execute(statement)
    try:
        print(server.explain(sql))
    except SqlError as error:
        print(
            f'usage: python -m repro explain "SQL"\n'
            f"  cannot explain {sql!r}: {error}",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_tlp(sql: str) -> int:
    from repro.analysis.predicates import _tlp_blockers, summarize_statement
    from repro.analysis.schema import ScriptSchema
    from repro.errors import SqlError
    from repro.sqlengine.parser import parse_statement
    from repro.sqlengine.sqlgen import DECOY_TABLE, HUNT_TABLE

    schema = ScriptSchema()
    for ddl in (HUNT_TABLE, DECOY_TABLE):
        schema.observe(parse_statement(ddl))
    try:
        stmt = parse_statement(sql)
        summary = summarize_statement(stmt, schema)
    except SqlError as error:
        print(
            f'usage: python -m repro tlp "SQL"\n'
            f"  cannot abstract {sql!r}: {error}",
            file=sys.stderr,
        )
        return 2
    print(f"statement kind: {summary.kind}")
    if summary.where_truth is not None:
        print(f"WHERE truth: {summary.where_truth.describe()}")
    for finding in summary.dead:
        print(f"dead predicate at {finding.site}: {finding.detail}")
    if summary.tlp is None:
        blockers = _tlp_blockers(stmt)
        reasons = "; ".join(blockers) if blockers else "not a plain SELECT"
        print(f"no TLP partition: {reasons}")
        return 0
    print(f"certificate: {summary.tlp.certificate.describe()}")
    print(f"base:        {summary.tlp.base.sql}")
    for label, partition in zip(
        ("p", "NOT p", "p IS NULL"), summary.tlp.partitions
    ):
        print(f"{label:<12} {partition.sql}")
    return 0


def cmd_hunt(count: int) -> int:
    from repro.hunt import run_hunt

    report = run_hunt(count)
    print(
        f"hunt: {report.statements} statement(s) over "
        f"{'/'.join(report.products)}, {report.tlp_checks} TLP check(s), "
        f"{report.pivot_checks} pivot check(s), {report.vote_checks} "
        f"vote(s), {report.benign_filtered} benign divergence(s) filtered, "
        f"{report.skipped_unportable} unportable skip(s), "
        f"{report.errors} error(s)"
    )
    if not report.findings:
        print("no findings banked")
        return 0
    print(
        f"{len(report.findings)} finding(s) banked "
        f"({report.duplicates_folded} duplicate(s) folded):"
    )
    for finding in report.findings:
        print(
            f"\n[{finding.oracle}] {finding.product} {finding.direction} "
            f"(+{finding.duplicates} duplicate(s))"
        )
        print(f"  {finding.detail}")
        print("  minimized repro:")
        for line in finding.script.splitlines():
            print(f"    {line}")
    return 1


def _parse_count(argv: list[str], default: int, command: str) -> int | None:
    """Parse the optional transaction-count argument.

    Returns ``None`` (after printing usage to stderr) when the argument
    is not a positive integer — the CLI exits 2 instead of tracing an
    uncaught ``ValueError`` at the user."""
    if len(argv) < 2:
        return default
    try:
        count = int(argv[1])
    except ValueError:
        print(
            f"usage: python -m repro {command} [N]\n"
            f"  N must be an integer transaction count, got {argv[1]!r}",
            file=sys.stderr,
        )
        return None
    if count < 1:
        print(
            f"usage: python -m repro {command} [N]\n"
            f"  N must be a positive transaction count, got {count}",
            file=sys.stderr,
        )
        return None
    return count


def main(argv: list[str]) -> int:
    from repro.storms import STORMS, run_storm

    command = argv[0] if argv else "study"
    if command in ("study", "tables"):
        if len(argv) > 1:
            print(
                f"usage: python -m repro {command}\n"
                f"  takes no arguments, got {argv[1:]!r}",
                file=sys.stderr,
            )
            return 2
        return cmd_study() if command == "study" else cmd_tables()
    if command == "tpcc":
        count = _parse_count(argv, 100, command)
        if count is None:
            return 2
        return cmd_tpcc(count)
    if command in STORMS:
        storm = STORMS[command]()
        count = _parse_count(argv, storm.default_count, command)
        if count is None:
            return 2
        return run_storm(storm, count)
    if command == "report":
        return cmd_report(argv[1] if len(argv) > 1 else "study_report.md")
    if command == "export":
        return cmd_export(argv[1] if len(argv) > 1 else "corpus.json")
    if command == "conflicts":
        count = _parse_count(argv, 2, command)
        if count is None:
            return 2
        return cmd_conflicts(count)
    if command == "lint":
        stray = [arg for arg in argv[1:] if arg != "--json"]
        if stray:
            print(
                f"usage: python -m repro lint [--json]\n"
                f"  unknown argument(s): {stray!r}",
                file=sys.stderr,
            )
            return 2
        return cmd_lint(as_json="--json" in argv[1:])
    if command == "slice":
        if len(argv) != 2:
            print("usage: python -m repro slice BUG_ID", file=sys.stderr)
            return 2
        return cmd_slice(argv[1])
    if command == "explain":
        if len(argv) < 2:
            print('usage: python -m repro explain "SQL"', file=sys.stderr)
            return 2
        return cmd_explain(" ".join(argv[1:]))
    if command == "tlp":
        if len(argv) < 2:
            print('usage: python -m repro tlp "SQL"', file=sys.stderr)
            return 2
        return cmd_tlp(" ".join(argv[1:]))
    if command == "hunt":
        count = _parse_count(argv, 200, command)
        if count is None:
            return 2
        return cmd_hunt(count)
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
