"""Literal lifting: a literal statement run as a prepared call on its
shape is the literal statement, to every observer.

``DiverseServer.execute`` lifts the value literals of a SELECT, INSERT,
UPDATE or DELETE into parameters and runs the shape
(:func:`repro.sqlengine.params.lift_literals`).  Each statement below
runs twice on the same product: through a one-product
``DiverseServer`` (lifted wherever it lifts) and through the product's
own ``execute`` of the literal text in its dialect.  Every engine run
must answer the same — rows, columns, rowcount, cost, or error class
and message — a spy fault's trigger must see the same ``(ctx.sql,
tags)``, and both engines must end in the same state.  The statements
are every statement of each bug script on each product the study ran it
on, carrying its corpus faults, the TPC-C literal stream and
hunt-generated queries.

The spy's ``ctx.sql`` is the splice identity at work: for a lifted
statement it is the product's translation of the shape with the
literals spliced back, and it must equal the product's translation of
the literal text, for every (statement, dialect) that reaches an engine.
"""

from __future__ import annotations

import functools

import pytest

from repro.analysis.divergence import analyze_divergence
from repro.analysis.schema import ScriptSchema
from repro.bugs.groundtruth import SERVER_KEYS
from repro.dialects.features import dialect
from repro.dialects.translator import translate_script, translate_tokens
from repro.durability import engine_state_signature
from repro.errors import EngineCrash, MiddlewareError, ReproError, SqlError
from repro.faults import (
    AlwaysTrigger,
    ErrorEffect,
    FaultSpec,
    RelationTrigger,
    RowDropEffect,
    ValueSkewEffect,
)
from repro.faults.effects import PartitionDropBugEffect, PredicateFoldBugEffect
from repro.faults.triggers import Trigger
from repro.middleware import DiverseServer
from repro.middleware.supervisor import ReplicaState
from repro.servers import make_server
from repro.sqlengine.engine import Engine, EnginePrepared, parse_once
from repro.sqlengine.lexer import split_statements, tokenize
from repro.sqlengine.params import lift_literals
from repro.sqlengine.sqlgen import PredicateGenerator
from repro.workload import TpccGenerator
from repro.workload.schema import SCHEMA_STATEMENTS, populate_statements


class SpyTrigger(Trigger):
    """Never fires; records what every consultation saw."""

    def __init__(self, seen: list) -> None:
        self.seen = seen

    def matches(self, ctx) -> bool:
        self.seen.append((ctx.sql, tuple(sorted(ctx.all_tags)), ctx.traits.kind))
        return False


def spies(seen: list) -> list[FaultSpec]:
    """Spy faults consulted before and after each engine run."""
    return [
        FaultSpec("spy-before", "records the statement", SpyTrigger(seen), ErrorEffect("spy")),
        FaultSpec("spy-after", "records the statement", SpyTrigger(seen), RowDropEffect()),
    ]


@pytest.fixture
def engine_runs(monkeypatch) -> list:
    """Every engine run's outcome, in order, through both entry points
    the middleware may use."""
    runs: list = []

    def recorded(run):
        def wrapper(self, *args, **kwargs):
            try:
                result = run(self, *args, **kwargs)
            except ReproError as error:
                runs.append(("error", type(error).__name__, str(error)))
                raise
            runs.append(
                ("ok", result.kind, result.columns, result.rows, result.rowcount,
                 result.virtual_cost)
            )
            return result

        return wrapper

    monkeypatch.setattr(Engine, "execute", recorded(Engine.execute))
    monkeypatch.setattr(EnginePrepared, "execute", recorded(EnginePrepared.execute))
    return runs


def _outcome(action, *args) -> tuple:
    try:
        action(*args)
    except ReproError as error:
        return (type(error).__name__, str(error))
    return ("ok",)


@functools.cache
def literal_form(sql: str, key: str):
    """What product ``key`` runs for literal text ``sql``: its
    translation, parsed (the literal statement with its literals), or
    the text itself when it does not parse."""
    tokens, parsed = literal_parse(sql)
    if isinstance(parsed, str):
        return translate_script(sql, key)
    text, renamed = translate_tokens(tokens, parsed.traits, dialect(key))
    return parse_once(text) if renamed else parsed._replace(sql=text)


@functools.cache
def literal_parse(sql: str):
    tokens = tokenize(sql)
    return tokens, parse_once(sql, tokens)


class Pair:
    """Product ``key`` twice: behind a one-product ``DiverseServer``,
    which lifts, and on its own, running the literal texts."""

    def __init__(self, key: str, faults: list) -> None:
        self.key = key
        self.lifted_seen: list = []
        self.literal_seen: list = []
        # With one replica no vote is taken, so the static analysis has
        # nothing to decide; the four-version corpus adjudication
        # (test_prepared.py) covers it.
        self.server = DiverseServer(
            [make_server(key, [*faults, *spies(self.lifted_seen)])],
            adjudication="primary",
            auto_recover=False,
            static_analysis=False,
        )
        self.product = make_server(key, [*faults, *spies(self.literal_seen)])

    def reset(self) -> None:
        """Fresh installs on both sides; the server keeps its caches."""
        self.server.replicas[0].product.reset()
        self.server.replicas[0].state = ReplicaState.ACTIVE
        self.product.reset()

    def execute_literal(self, sql: str):
        return self.product.execute(literal_form(sql, self.key))

    def run(self, statements: list[str], engine_runs: list) -> None:
        """Run ``statements`` on both sides and assert they are
        indistinguishable, up to a crash (after which the server stops
        asking the replica)."""
        for sql in statements:
            engine_runs.clear()
            self.lifted_seen.clear()
            self.literal_seen.clear()
            lifted = _outcome(self.server.execute, sql)
            lifted_runs = list(engine_runs)
            engine_runs.clear()
            literal = _outcome(self.execute_literal, sql)
            context = (self.key, sql)
            assert lifted_runs == engine_runs, context
            assert self.lifted_seen == self.literal_seen, context
            if not engine_runs:
                # Refused before any engine ran, for the same reason (the
                # middleware reports a dialect refusal as a plain SqlError).
                assert lifted[1:] == literal[1:], context
            if engine_runs and engine_runs[-1][1] == EngineCrash.__name__:
                break
        engine = self.server.replicas[0].product.engine
        assert engine_state_signature(engine) == engine_state_signature(self.product.engine)

    @property
    def shapes(self) -> int:
        """How many shapes ran prepared."""
        return sum(
            1 for handle in self.server._prepared.values()
            if not isinstance(handle, SqlError) and handle.param_count and handle.lifts
        )


def run_both(key: str, faults: list, statements: list[str], engine_runs: list) -> int:
    """Run ``statements`` lifted and literal on a fresh pair for
    product ``key``; returns how many shapes ran prepared."""
    pair = Pair(key, faults)
    pair.run(statements, engine_runs)
    return pair.shapes


def test_corpus_statements_run_lifted_as_literal(study, engine_runs):
    """Every statement of every (bug script, product) cell the study ran."""
    corpus = study.corpus
    for key in SERVER_KEYS:
        pair = Pair(key, corpus.faults_for(key))
        for report in corpus:
            if key in study.ran_on(report):
                pair.reset()
                pair.run(split_statements(report.script), engine_runs)
        assert pair.shapes > 50


def test_tpcc_literal_stream_runs_lifted_as_literal(engine_runs):
    generator = TpccGenerator(seed=1)
    statements = [*SCHEMA_STATEMENTS, *populate_statements()]
    for transaction in generator.transactions(8):
        statements.extend(transaction.statements)
    for key in SERVER_KEYS:
        assert run_both(key, [], statements, engine_runs) > 0


def test_hunt_statements_run_lifted_as_literal(engine_runs):
    generator = PredicateGenerator(seed=3)
    statements = generator.schema_statements()
    statements += [generator.select_statement() for _ in range(25)]
    for key in SERVER_KEYS:
        assert run_both(key, [], statements, engine_runs) > 0


#: One statement per rule that keeps a literal as written, with what
#: the rule leaves of its shape (None: the statement does not lift).
STAYS_LITERAL = [
    ("SELECT a, b FROM t WHERE a > 0 LIMIT 2", "SELECT a, b FROM t WHERE a > ? LIMIT 2"),
    ("SELECT a FROM t WHERE b IS NULL OR b = 'x' AND TRUE", "SELECT a FROM t WHERE b IS NULL OR b = ? AND TRUE"),
    ("SELECT CAST(a AS VARCHAR(5)) FROM t", "SELECT CAST (a AS VARCHAR (?)) FROM t"),
    ("SELECT a, b FROM t ORDER BY 1", "SELECT a, b FROM t ORDER BY ?"),
    ("SELECT a + 1, COUNT(*) FROM t GROUP BY a + 1", "SELECT a + ?, COUNT (*) FROM t GROUP BY a + ?"),
    (
        "SELECT a FROM t WHERE a IN (SELECT a FROM t ORDER BY a + 1 LIMIT 1)",
        "SELECT a FROM t WHERE a IN (SELECT a FROM t ORDER BY a + ? LIMIT 1)",
    ),
    ("SELECT a FROM t WHERE a = 1 OR a < 1e400", "SELECT a FROM t WHERE a = ? OR a < 1e400"),
    ("SELECT a FROM t WHERE a = ?", None),
    ("CREATE TABLE u (x INTEGER DEFAULT 5 CHECK (x > 0), y VARCHAR(3))", None),
    ("INSERT INTO u (y) VALUES ('abc')", "INSERT INTO u (y) VALUES (?)"),
    ("INSERT INTO u VALUES (-1, 'abc')", "INSERT INTO u VALUES (- ?, ?)"),
    ("SELECT a FROM t WHERE (1 + NULL) IS NULL", "SELECT a FROM t WHERE (? + NULL) IS NULL"),
    ("SELECT a FROM t WHERE NOT (1 = NULL)", "SELECT a FROM t WHERE NOT (? = NULL)"),
]

#: The texts whose shape runs as a prepared statement.
RUNS_LIFTED = {
    "SELECT a, b FROM t WHERE a > 0 LIMIT 2",
    "SELECT a FROM t WHERE b IS NULL OR b = 'x' AND TRUE",
    "INSERT INTO u (y) VALUES ('abc')",
}


def test_literals_that_stay_literal_keep_their_behaviour(engine_runs):
    setup = [
        "CREATE TABLE t (a INTEGER, b VARCHAR(10))",
        "INSERT INTO t VALUES (1, 'x')",
        "INSERT INTO t VALUES (2, NULL)",
        "INSERT INTO t VALUES (3, 'y')",
    ]
    # The middleware refuses a literal "?" before any engine sees it.
    statements = [*setup, *(sql for sql, _ in STAYS_LITERAL if "?" not in sql)]
    run_both("PG", [], statements, engine_runs)
    # Faults that a folded constant hides from the compiled plan.
    flags = [
        FaultSpec(type(effect).__name__, "flag", AlwaysTrigger(), effect)
        for effect in (PartitionDropBugEffect(), PredicateFoldBugEffect())
    ]
    run_both("PG", flags, statements, engine_runs)
    server = DiverseServer([make_server("PG")], adjudication="primary")
    for sql in setup:
        server.execute(sql)
    for sql, shape in STAYS_LITERAL:
        lifted = server.pipeline.lifted(sql)
        assert (lifted and lifted.shape) == shape, sql
        if shape is not None:
            assert (server._shape(shape) is not None) == (sql in RUNS_LIFTED), sql
    with pytest.raises(SqlError, match=r"^number 1e400 out of range at line 1$"):
        server.execute("SELECT a FROM t WHERE a = 1 OR a < 1e400")
    with pytest.raises(MiddlewareError, match=r"^statement has 1 unbound parameter\(s\)"):
        server.execute("SELECT a FROM t WHERE a = ?")
    # A refused shape is refused once: its parse error is kept.
    assert isinstance(server._prepared["SELECT CAST (a AS VARCHAR (?)) FROM t"], SqlError)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT a / 2 FROM t",
        "SELECT a * 1.5, a + 1e3 FROM t",
        "SELECT b || 'x' FROM t",
        "SELECT a FROM t WHERE c = 'ab' AND b = 'cd'",
        "UPDATE t SET b = 'z' WHERE a BETWEEN 1 AND 3",
        "INSERT INTO t VALUES (1, 'x', 'y')",
    ],
)
def test_lifted_parameters_are_typed_as_their_literals(sql):
    """The divergence analysis of a shape, its parameters typed by the
    lifted values' classes, is the literal statement's."""
    schema = ScriptSchema()
    schema.observe(parse_once("CREATE TABLE t (a INTEGER, b VARCHAR(5), c CHAR(4))").statement)
    lifted, tokens = lift_literals(tokenize(sql))
    shape = parse_once(lifted.shape, tokens)
    classes = tuple(map(type, lifted.values))
    assert analyze_divergence(shape.statement, schema, classes) == (
        analyze_divergence(parse_once(sql).statement, schema)
    )


def test_lifted_division_is_triaged_as_a_dialect_divergence():
    """Oracle's integer division is exact where the other three
    truncate, so an Oracle answer that differs on ``a / 2`` is a dialect
    divergence: masked, not suspected — as for the literal statement,
    whose literal ``2`` types the division as integer by integer."""
    exact = FaultSpec(
        "OR-exact", "exact division", RelationTrigger({"t"}, kind="select"), ValueSkewEffect(0.5)
    )
    server = DiverseServer(
        [make_server(key, [exact] if key == "OR" else []) for key in SERVER_KEYS],
        auto_recover=False,
    )
    server.execute("CREATE TABLE t (a INTEGER)")
    server.execute("INSERT INTO t VALUES (7)")
    assert server.execute("SELECT a / 2 FROM t").rows == [(3,)]
    assert server.pipeline.lifted("SELECT a / 2 FROM t").shape == "SELECT a / ? FROM t"
    stats = server.stats
    assert (stats.benign_dialect_divergences, stats.fault_indicating_divergences) == (1, 0)
    assert len(server.active_replicas()) == 4
