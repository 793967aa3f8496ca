"""Generative bug-hunt campaign: static TLP and PQS-style pivot oracles.

The study's corpus reproduces faults *somebody reported*.  ROADMAP item
3 asks the opposite question: can the middleware catch a wrong-result
bug nobody wrote a report for?  This driver answers it the way SQLancer
does — generate NULL-rich queries (:class:`PredicateGenerator`) and
check each one against oracles that need no reference implementation:

* **TLP** (ternary-logic partitioning, Rigger & Su): for a SELECT with
  predicate ``p``, the multiset union of ``p`` / ``NOT p`` /
  ``(p) IS NULL`` results must equal the un-filtered base query.  The
  partition triple comes from the static abstraction layer
  (:func:`repro.analysis.predicates.tlp_partition`) with a certificate,
  and the check runs *per product* — a single replica convicts itself,
  no cross-replica vote needed.
* **Pivot** (PQS-style): a predicate constructed to be TRUE on one
  known row must return that row.  Catches filters that drop qualifying
  rows.
* **Vote**: the products' answers to the same query are compared as
  multisets, with every divergence triaged through the dialect
  abstract interpreter — ``BENIGN_DIALECT`` divergences are filtered,
  not alarmed on (zero false positives on pristine products is the CI
  gate).

The campaign runs each product's engine directly, not through the
middleware.  Every statement it runs is parsed once per campaign and
handed to every product as one :class:`ParsedStatement`: the generated
query and the pivot query from their text, the TLP base and partitions
as built from the tree :func:`tlp_partition` holds.  Over equal
catalogs the products share one compiled plan per statement.  The
memo that keeps one statement per text spans the campaign, bounded by
``_PARSED_MEMO_SIZE``.

Hits are auto-minimized via the static slicer
(:func:`repro.analysis.dataflow.minimize_script` — the decoy-table
traffic drops out) and banked deduplicated by (oracle, product, failure
direction), so one underlying fault firing on hundreds of generated
queries reports once.

``python -m repro hunt [N]`` runs a campaign; ``tests/test_hunt.py``
gates it with the two seeded predicate bugs
(:class:`~repro.faults.PredicateFoldBugEffect`,
:class:`~repro.faults.PartitionDropBugEffect`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.analysis.dataflow import minimize_script
from repro.analysis.divergence import DivergenceKind, analyze_divergence
from repro.analysis.predicates import tlp_partition
from repro.analysis.schema import ScriptSchema
from repro.analysis.verdicts import statement_portability
from repro.dialects.features import SERVER_KEYS
from repro.dialects.translator import ScriptPieces
from repro.errors import SqlError
from repro.faults.spec import FaultSpec
from repro.servers import make_server
from repro.sqlengine.engine import Executable, ParsedStatement, executable_text, parse_once
from repro.sqlengine.sqlgen import PredicateGenerator

#: Run the pivot oracle every Nth generated round.
_PIVOT_EVERY = 3

#: Upper bound on the statements a campaign remembers parsed (and so
#: compiled); evicts oldest.
_PARSED_MEMO_SIZE = 1024


@dataclass(frozen=True)
class HuntFinding:
    """One banked (deduplicated) wrong-result find."""

    oracle: str       # 'tlp' | 'pivot' | 'vote'
    product: str      # server key ('IB'), or 'A/B' for a vote pair
    direction: str    # which way the result went wrong
    statement: str    # the convicting query
    detail: str
    script: str       # minimized repro (DDL + surviving rows + query)
    duplicates: int = 0

    def rekey(self) -> tuple[str, str, str]:
        return (self.oracle, self.product, self.direction)


@dataclass
class HuntReport:
    """Campaign outcome: counters plus the deduplicated finding bank."""

    products: tuple[str, ...]
    seed: int
    statements: int = 0
    tlp_checks: int = 0
    pivot_checks: int = 0
    vote_checks: int = 0
    benign_filtered: int = 0
    skipped_unportable: int = 0
    errors: int = 0
    duplicates_folded: int = 0
    findings: list[HuntFinding] = field(default_factory=list)

    def to_payload(self) -> dict[str, Any]:
        return {
            "products": list(self.products),
            "seed": self.seed,
            "statements": self.statements,
            "tlp_checks": self.tlp_checks,
            "pivot_checks": self.pivot_checks,
            "vote_checks": self.vote_checks,
            "benign_filtered": self.benign_filtered,
            "skipped_unportable": self.skipped_unportable,
            "errors": self.errors,
            "duplicates_folded": self.duplicates_folded,
            "findings": [
                {
                    "oracle": finding.oracle,
                    "product": finding.product,
                    "direction": finding.direction,
                    "statement": finding.statement,
                    "detail": finding.detail,
                    "duplicates": finding.duplicates,
                }
                for finding in self.findings
            ],
        }


class _Bank:
    """Deduplicating finding store: first repro wins, repeats count."""

    def __init__(self) -> None:
        self._by_key: dict[tuple[str, str, str], HuntFinding] = {}
        self.folded = 0

    def deposit(self, finding: HuntFinding) -> None:
        key = finding.rekey()
        existing = self._by_key.get(key)
        if existing is None:
            self._by_key[key] = finding
        else:
            self.folded += 1
            self._by_key[key] = HuntFinding(
                oracle=existing.oracle,
                product=existing.product,
                direction=existing.direction,
                statement=existing.statement,
                detail=existing.detail,
                script=existing.script,
                duplicates=existing.duplicates + 1,
            )

    def findings(self) -> list[HuntFinding]:
        return list(self._by_key.values())


def _multiset(result) -> Counter:
    return Counter(tuple(row) for row in result.rows)


def _repro_script(setup: list[str], statement: str) -> str:
    """Minimized repro: static slice of setup + query anchored on the
    query (decoy traffic and unrelated writes drop out)."""
    statements = setup + [statement]
    script = ";\n".join(statements) + ";"
    try:
        return minimize_script(ScriptPieces(script), targets=[len(statements) - 1]).sql
    except SqlError:
        return script


def run_hunt(
    count: int = 200,
    *,
    seed: int = 0,
    products: Iterable[str] = SERVER_KEYS,
    faults: Optional[dict[str, list[FaultSpec]]] = None,
    triage: bool = True,
) -> HuntReport:
    """Run one hunt campaign: ``count`` generated SELECT rounds.

    ``products`` selects the replicas (a single key makes every oracle
    strictly intra-product); ``faults`` seeds per-product fault specs;
    ``triage=False`` disables the BENIGN_DIALECT filter on the vote
    oracle (to measure how many false alarms the triage absorbs).
    """
    products = tuple(products)
    faults = faults or {}
    generator = PredicateGenerator(seed=seed)
    setup = generator.schema_statements()

    servers = {key: make_server(key, faults.get(key, ())) for key in products}
    schema = ScriptSchema()
    for statement in setup:
        parsed_setup = ParsedStatement.parse(statement)
        schema.observe(parsed_setup.statement)
        for server in servers.values():
            server.execute(parsed_setup)

    report = HuntReport(products=products, seed=seed)
    bank = _Bank()
    #: The campaign's statements by text, each parsed once and run on
    #: every product: one statement object per text, so its plan is
    #: compiled once and shared by the products (while remembered).
    parsed: dict[str, Executable] = {}

    def remember(sql: Executable) -> Executable:
        text = executable_text(sql)
        entry = parsed.get(text)
        if entry is None:
            entry = parse_once(sql) if isinstance(sql, str) else sql
            if len(parsed) >= _PARSED_MEMO_SIZE:
                del parsed[next(iter(parsed))]
            parsed[text] = entry
        return entry

    def run_on(key: str, sql: Executable) -> Optional[Counter]:
        try:
            return _multiset(servers[key].execute(remember(sql)))
        except SqlError:
            report.errors += 1
            return None

    for round_index in range(count):
        sql = generator.select_statement()
        report.statements += 1
        entry = parsed.get(sql)
        if not isinstance(entry, ParsedStatement):
            entry = ParsedStatement.parse(sql)
            remember(entry)
        stmt, traits = entry.statement, entry.traits
        hosts = [
            key
            for key in products
            if statement_portability(traits, key).can_run
        ]
        report.skipped_unportable += len(products) - len(hosts)

        results = {}
        for key in hosts:
            outcome = run_on(key, sql)
            if outcome is not None:
                results[key] = outcome

        _vote_oracle(sql, stmt, schema, results, report, bank, setup, triage)
        _tlp_oracle(sql, stmt, schema, results, report, bank, setup, run_on)

        if round_index % _PIVOT_EVERY == 0:
            _pivot_oracle(generator, products, report, bank, setup, run_on)

    report.findings = bank.findings()
    report.duplicates_folded = bank.folded
    return report


def _vote_oracle(sql, stmt, schema, results, report, bank, setup, triage):
    """Cross-product multiset comparison with BENIGN_DIALECT triage."""
    if len(results) < 2:
        return
    report.vote_checks += 1
    keys = list(results)
    divergence = None
    for index in range(1, len(keys)):
        a, b = keys[0], keys[index]
        if results[a] == results[b]:
            continue
        if triage:
            if divergence is None:
                divergence = analyze_divergence(stmt, schema)
            verdict = divergence.verdict(a, b, rows_differ=True)
            if verdict.kind is DivergenceKind.BENIGN_DIALECT:
                report.benign_filtered += 1
                continue
        bank.deposit(
            HuntFinding(
                oracle="vote",
                product=f"{a}/{b}",
                direction="result-mismatch",
                statement=sql,
                detail=(
                    f"{a} and {b} return different row multisets "
                    f"({sum(results[a].values())} vs "
                    f"{sum(results[b].values())} rows)"
                ),
                script=_repro_script(setup, sql),
            )
        )


def _tlp_oracle(sql, stmt, schema, results, report, bank, setup, run_on):
    """Per-product partition-union check: base == p + NOT p + p IS NULL."""
    triple = tlp_partition(stmt, schema)
    if triple is None:
        return
    for key in results:
        base = run_on(key, triple.base)
        if base is None:
            continue
        union: Counter = Counter()
        failed = False
        for partition in triple.partitions:
            part = run_on(key, partition)
            if part is None:
                failed = True
                break
            union.update(part)
        if failed:
            continue
        report.tlp_checks += 1
        if union == base:
            continue
        over = sum((union - base).values())
        under = sum((base - union).values())
        direction = (
            "partition-union-over-counts"
            if over >= under
            else "partition-union-under-counts"
        )
        bank.deposit(
            HuntFinding(
                oracle="tlp",
                product=key,
                direction=direction,
                statement=sql,
                detail=(
                    f"{key}: partition union differs from base by "
                    f"+{over}/-{under} rows "
                    f"({triple.certificate.describe()})"
                ),
                script=_repro_script(setup, sql),
            )
        )


def _pivot_oracle(generator, products, report, bank, setup, run_on):
    """PQS-style containment: the pivot row must come back."""
    sql, pivot_id = generator.pivot_case()
    for key in products:
        rows = run_on(key, sql)
        if rows is None:
            continue
        report.pivot_checks += 1
        if any(row[0] == pivot_id for row in rows):
            continue
        bank.deposit(
            HuntFinding(
                oracle="pivot",
                product=key,
                direction="pivot-row-missing",
                statement=sql,
                detail=(
                    f"{key}: row id={pivot_id} satisfies the predicate "
                    "by construction but is absent from the result"
                ),
                script=_repro_script(setup, sql),
            )
        )
