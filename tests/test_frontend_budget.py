"""The front-end budget: how often each path that runs one statement
on several engines scans and parses it.

``tokenize`` and the three ``parse_*`` entry points are wrapped in
every ``repro`` module that holds them (``from x import f`` copies the
reference, as ``benchmarks/e2e/trace.py`` also knows), and the tests
assert exact counts, so a second scan or parse cannot come back
silently.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

import repro.hunt
from repro.dialects.translator import ScriptPieces, translate_tokens
from repro.durability import DurabilityManager, MemoryMedium
from repro.errors import FeatureNotSupported
from repro.middleware import DiverseServer
from repro.servers import make_server
from repro.sqlengine import engine as engine_module
from repro.sqlengine import lexer, parser
from repro.sqlengine.engine import parse_once
from repro.sqlengine.lexer import split_statements
from repro.study.runner import StudyRunner

KEYS = ("IB", "PG", "OR", "MS")

#: (module, name, bucket) of each counted front-end entry point.
ENTRY_POINTS = (
    (lexer, "tokenize", "scans"),
    (parser, "parse_statement", "parses"),
    (parser, "parse_prepared", "parses"),
    (parser, "parse_script", "parses"),
)


class FrontEnd:
    """Counts of scans and parses, and the texts handed to each."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.parsed_texts: list[str] = []
        self.scanned_texts: list[str] = []

    def reset(self) -> None:
        self.counts.clear()
        self.parsed_texts.clear()
        self.scanned_texts.clear()

    @property
    def scans(self) -> int:
        return self.counts["scans"]

    @property
    def parses(self) -> int:
        return self.counts["parses"]


@pytest.fixture
def front_end(monkeypatch) -> FrontEnd:
    seen = FrontEnd()
    for module, name, bucket in ENTRY_POINTS:
        original = getattr(module, name)

        def counted(source, *args, _original=original, _bucket=bucket):
            seen.counts[_bucket] += 1
            if isinstance(source, str):
                texts = seen.parsed_texts if _bucket == "parses" else seen.scanned_texts
                texts.append(source)
            return _original(source, *args)

        for holder in list(sys.modules.values()):
            if not getattr(holder, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, key, counted)
    return seen


def four_version(**config) -> DiverseServer:
    server = DiverseServer([make_server(key) for key in KEYS], **config)
    server.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10))")
    server.execute("INSERT INTO t (a, b) VALUES (1, 'x')")
    return server


#: Literal statements of shapes the set-up did not run, and the same
#: shapes with other literals.
NEW_SHAPES = [
    ("SELECT a, b FROM t WHERE a = 1", "SELECT a, b FROM t WHERE a = 7"),
    ("INSERT INTO t VALUES (2, 'y')", "INSERT INTO t VALUES (3, 'it''s')"),
    ("UPDATE t SET b = 'z' WHERE a = 1", "UPDATE t SET b = 'w' WHERE a = 2"),
]


@pytest.mark.parametrize("sql", [first for first, _ in NEW_SHAPES])
def test_literal_statement_is_scanned_and_parsed_once(front_end, sql):
    server = four_version()
    front_end.reset()
    server.execute(sql)
    # The scan lifts the literals; the one parse is the new shape's.
    assert (front_end.scans, front_end.parses) == (1, 1)


@pytest.mark.parametrize("first, second", NEW_SHAPES)
def test_new_literals_of_a_known_shape_compile_nothing(front_end, monkeypatch, first, second):
    compiled = []

    def counting(stmt, *args, _compile=engine_module.compile_statement):
        compiled.append(stmt)
        return _compile(stmt, *args)

    monkeypatch.setattr(engine_module, "compile_statement", counting)
    server = four_version()
    server.execute(first)
    front_end.reset()
    compiled.clear()
    server.execute(second)
    assert (front_end.scans, front_end.parses) == (1, 0)
    assert compiled == []
    assert server.pipeline.stats.lift_misses == 4


def test_repeated_literal_statement_uses_no_front_end(front_end):
    server = four_version()
    server.execute("SELECT b FROM t WHERE a = 1")
    front_end.reset()
    server.execute("SELECT b FROM t WHERE a = 1")
    assert (front_end.scans, front_end.parses) == (0, 0)


def test_warm_prepared_durable_write_is_neither_scanned_nor_parsed(front_end):
    server = four_version(durability=DurabilityManager(MemoryMedium()))
    insert = server.prepare("INSERT INTO t VALUES (?, ?)")
    insert.execute((2, "y"))
    front_end.reset()
    insert.execute((-3, "it's"))
    # Every replica's WAL record is spliced from the translated template
    # its handle holds; nothing scans the bound text.
    assert (front_end.scans, front_end.parses) == (0, 0)
    assert server.stats.wal_records == 4 * 4
    bound_sql = server.write_log[-1]
    tokens, traits = lexer.tokenize(bound_sql), parse_once(bound_sql).traits
    for replica in server.replicas:
        logged = server.durability.store(replica.key).wal.scan().records[-1].sql
        assert logged == translate_tokens(tokens, traits, replica.product.descriptor)[0]


def test_literal_durable_write_logs_the_translations_it_ran(front_end):
    server = four_version(durability=DurabilityManager(MemoryMedium()))
    records = server.stats.wal_records
    sql = "INSERT INTO t (b, a) VALUES ('it''s', 2)"  # a new shape
    front_end.reset()
    server.execute(sql)
    assert (front_end.scans, front_end.parses) == (1, 1)
    assert server.stats.wal_records == records + 4
    tokens, traits = lexer.tokenize(sql), parse_once(sql).traits
    for replica in server.replicas:
        logged = server.durability.store(replica.key).wal.scan().records[-1].sql
        assert logged == translate_tokens(tokens, traits, replica.product.descriptor)[0]


def _renamed_targets(report) -> int:
    """How many of the bug's foreign targets its translation renames a
    token for (they re-parse the translated text)."""
    pieces = ScriptPieces(report.script)
    return sum(
        pieces.translated(key) is not pieces for key in KEYS if key != report.reported_for
    )


@pytest.mark.parametrize("renamed", [False, True])
def test_study_bug_scans_once_and_parses_each_piece_once(front_end, corpus, renamed):
    report = next(
        report for report in corpus
        if len(report.runnable_on) == 4
        and len(split_statements(report.script)) > 3
        and (_renamed_targets(report) > 0) == renamed
    )
    runner = StudyRunner(corpus)
    pieces = len(split_statements(report.script))
    renames = _renamed_targets(report)
    front_end.reset()
    for target in KEYS:
        runner.run_cell(report, target)
    # One scan and one parse per piece serve all four cells; a target
    # whose translation renames a token scans its text once and parses
    # each of its pieces.
    assert front_end.scans == 1 + renames
    assert front_end.parses == pieces + renames * pieces


def test_lint_scans_each_script_once_and_shares_its_parses(front_end, corpus, monkeypatch):
    """One lint scans each corpus script, and each translation of one
    that renames a token, exactly once (two targets may render the same
    translated text); every check reads those pieces and none changes a
    tree it shares."""
    from repro.analysis import lint

    built: list[ScriptPieces] = []

    class Recorded(ScriptPieces):
        def __init__(self, script: str) -> None:
            super().__init__(script)
            built.append(self)

    monkeypatch.setattr(lint, "ScriptPieces", Recorded)
    front_end.reset()
    lint.lint_corpus(corpus)
    scans = Counter(front_end.scanned_texts)
    shared = [pieces for pieces in built if pieces.script in {r.script for r in corpus}]
    assert len(shared) == len(corpus)
    for pieces in list(shared):
        for key in KEYS:
            try:
                translated = pieces.translated(key)  # memoised: scans nothing
            except FeatureNotSupported:
                continue
            if translated is not pieces:
                shared.append(translated)
    assert len(shared) > len(corpus)
    expected = Counter(pieces.script for pieces in shared)
    assert {text: scans[text] for text in expected} == expected
    assert all(expected[report.script] == 1 for report in corpus)
    for pieces in shared:
        for piece in pieces.pieces:
            assert piece.statement == parser.parse_statement(piece.sql), piece.sql


def test_hunt_round_parses_each_distinct_text_once(front_end, monkeypatch):
    # Over a campaign the hunt parses its set-up, each generated
    # statement and each pivot query once, and nothing else: the TLP
    # base and partitions are built from the tree the oracle holds.
    # Each distinct statement it runs compiles once for all products.
    rounds = 12
    generated: list[str] = []
    partitioned: list[str] = []
    compiled = []

    class Recording(repro.hunt.PredicateGenerator):
        def select_statement(self, **kwargs):
            generated.append(super().select_statement(**kwargs))
            return generated[-1]

        def pivot_case(self):
            sql, pivot_id = super().pivot_case()
            generated.append(sql)
            return sql, pivot_id

    def partition(stmt, schema, _partition=repro.hunt.tlp_partition):
        triple = _partition(stmt, schema)
        if triple is not None:
            partitioned.extend(piece.sql for piece in (triple.base, *triple.partitions))
        return triple

    def counting(stmt, *args, _compile=engine_module.compile_statement):
        compiled.append(stmt)
        return _compile(stmt, *args)

    monkeypatch.setattr(repro.hunt, "PredicateGenerator", Recording)
    monkeypatch.setattr(repro.hunt, "tlp_partition", partition)
    monkeypatch.setattr(engine_module, "compile_statement", counting)
    setup = Recording(seed=3).schema_statements()
    front_end.reset()
    report = repro.hunt.run_hunt(rounds, seed=3)
    assert report.tlp_checks and report.pivot_checks and not report.errors
    pivots = len(range(0, rounds, repro.hunt._PIVOT_EVERY))
    # No generated text repeats in this campaign, so each is one parse.
    assert len(generated) == len(set(generated)) == rounds + pivots
    texts = Counter(front_end.parsed_texts)
    assert max(texts.values()) == 1
    assert set(texts) == set(setup) | set(generated)
    # A partition ``WHERE p`` may be the generated text itself; every
    # other TLP text was rendered, never parsed.
    tlp_only = set(partitioned) - set(generated)
    assert tlp_only and not tlp_only & set(texts)
    assert front_end.parses == front_end.scans == len(setup) + rounds + pivots
    inserts = [sql for sql in setup if sql.startswith("INSERT")]
    assert len(compiled) == len(set(inserts) | set(generated) | set(partitioned))
