"""The executor budget: how often a filtered scan calls ``sql_compare``.

A total WHERE over one table splits into pushed conjuncts, and the
filter kernel (``repro.sqlengine.plan.physical.compile_filter``) fetches
the operand of each ``column <op> parameter|literal`` conjunct once per
execution.  A row compares with Python's operator when the stored value
and the operand are both exactly ``int``, and through ``sql_compare``
otherwise; the first conjunct that rejects a row stops the rest.
``sql_compare`` is wrapped in the module the kernel reads it from, and
the tests assert exact counts.  The kernel's edges (NULL, NUMERIC,
float, CHAR padding, bool) are checked against the tree-walker, and so
is a WHERE that may raise, which must not be split.  Last, every TPC-C
template runs on all four products with the same answers as on the
tree-walker (:class:`tests.reference.ReferenceEngine`), every statement
served by a cached compiled plan.
"""

from __future__ import annotations

from decimal import Decimal

import pytest

import repro.sqlengine.plan.physical
from repro.errors import SqlError
from repro.servers import make_server
from repro.sqlengine import Engine
from repro.sqlengine import engine as engine_module
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.plan import compile_select
from repro.workload.generator import TpccGenerator, TransactionMix
from repro.workload.schema import SCHEMA_STATEMENTS, populate_statements
from tests.reference import ReferenceEngine, reference_server

KEYS = ("IB", "PG", "OR", "MS")


@pytest.fixture
def compared(monkeypatch) -> list:
    """The operand pairs handed to the kernel's ``sql_compare``."""
    calls: list = []
    original = repro.sqlengine.plan.physical.sql_compare

    def counted(left, right):
        calls.append((left, right))
        return original(left, right)

    monkeypatch.setattr(repro.sqlengine.plan.physical, "sql_compare", counted)
    return calls


def table(cls: type = Engine) -> Engine:
    """Six rows, no key (so no index lookup): ``a`` 0-5, ``b`` = a % 2,
    ``n`` = a.50, ``c`` 'ab' on row 0 and the digit of ``a`` elsewhere."""
    engine = cls(name="budget")
    engine.execute("CREATE TABLE t (a INTEGER, b INTEGER, n NUMERIC(6,2), c CHAR(4))")
    for a in range(6):
        c = "ab" if a == 0 else str(a)
        engine.execute(f"INSERT INTO t VALUES ({a}, {a % 2}, {a}.50, '{c}')")
    return engine


def test_integer_filter_with_int_parameter_never_calls_sql_compare(compared):
    engine = table()
    result = engine.prepare("SELECT a FROM t WHERE b = ? AND a > 1").execute((1,))
    assert result.rows == [(3,), (5,)]
    assert compared == []


def test_integer_dml_filters_never_call_sql_compare(compared):
    engine = table()
    update = engine.prepare("UPDATE t SET a = a + 10 WHERE b = ? AND a < 4")
    assert update.execute((1,)).rowcount == 2
    assert engine.prepare("DELETE FROM t WHERE b = ? AND a > 10").execute((1,)).rowcount == 2
    assert compared == []


def test_first_conjunct_that_rejects_a_row_stops_the_rest(compared):
    engine = table()
    result = engine.execute("SELECT a FROM t WHERE n < 3 AND n > 1")
    assert result.rows == [(1,), (2,)]
    # `n < 3` is tested on every row, `n > 1` only on the three rows
    # `n < 3` admits, row by row.
    assert compared == [
        (Decimal(f"{a}.50"), bound) for a in range(6) for bound in (3, 1) if a < 3 or bound == 3
    ]


def test_int_conjunct_rejecting_first_spares_the_numeric_one(compared):
    engine = table()
    assert engine.execute("SELECT a FROM t WHERE b = 1 AND n < 100").rows == [
        (1,), (3,), (5,)
    ]
    assert len(compared) == 3
    compared.clear()
    assert engine.execute("SELECT a FROM t WHERE n < 100 AND b = 1").rowcount == 3
    assert len(compared) == 6


EDGES = [
    # NULL parameter: `col <op> NULL` is never TRUE.
    ("SELECT a FROM t WHERE b = ? AND a > 0", (None,)),
    ("SELECT a FROM t WHERE a > 0 AND b = NULL", ()),
    # NUMERIC column, int operand.
    ("SELECT a FROM t WHERE n > ? AND b = 1", (2,)),
    ("SELECT a FROM t WHERE n >= 2 AND n <= 4", ()),
    # float parameter on an INTEGER column.
    ("SELECT a FROM t WHERE a < ? AND b = 0", (3.5,)),
    ("SELECT a FROM t WHERE a = ? AND b = 1", (3.0,)),
    # CHAR padding is insignificant.
    ("SELECT a FROM t WHERE c = 'ab  ' AND a >= 0", ()),
    ("SELECT a FROM t WHERE c = ? AND a >= 0", ("ab",)),
    ("SELECT a FROM t WHERE c <> ? AND b = 1", ("3   ",)),
    # bool parameter on a numeric column.
    ("SELECT a FROM t WHERE b = ? AND a > 0", (True,)),
    ("SELECT a FROM t WHERE n > ? AND a < 3", (False,)),
    ("UPDATE t SET a = a + 1 WHERE b = ? AND a < 4", (True,)),
    ("UPDATE t SET a = a + 1 WHERE b = ? AND a < 4", (None,)),
    ("DELETE FROM t WHERE n > ? AND b = 0", (1,)),
    ("DELETE FROM t WHERE c = ? AND a = 0", ("ab",)),
]


def outcome(engine: Engine, sql: str, params: tuple) -> tuple:
    try:
        result = engine.prepare(sql).execute(params)
    except SqlError as error:
        return ("error", type(error).__name__, str(error))
    after = engine.execute("SELECT a, b, n, c FROM t ORDER BY a").rows
    return (result.kind, result.rows, result.rowcount, after)


@pytest.mark.parametrize(("sql", "params"), EDGES)
def test_kernel_edges_equal_the_walker(sql, params):
    assert outcome(table(), sql, params) == outcome(table(ReferenceEngine), sql, params)


def test_where_that_may_raise_is_not_split():
    # `c > 1` compares a string with a number: row 0 ('ab') raises.  The
    # walker evaluates both sides of AND on every row, so it raises on
    # row 0 although `a > 2` rejects it; a split filter would stop there.
    sql = "SELECT a FROM t WHERE a > 2 AND c > 1"
    planned = table()
    plan = compile_select(parse_statement(sql), planned.catalog).plan
    assert "predicate_pushdown" not in plan.applied_rules
    assert outcome(planned, sql, ()) == outcome(table(ReferenceEngine), sql, ())
    assert outcome(planned, sql, ())[:2] == ("error", "TypeMismatch")


@pytest.mark.parametrize("prepared", [True, False], ids=["prepared", "literal"])
@pytest.mark.parametrize("key", KEYS)
def test_tpcc_templates_never_fall_back_to_the_walker(key, prepared, monkeypatch):
    # Each (statement, parameter types) pair the compiled server looks
    # up compiles exactly once, and its answers equal the walker's.
    compiles = []
    looked_up = {}

    def counting(stmt, *args, _compile=engine_module.compile_statement):
        compiles.append(stmt)
        return _compile(stmt, *args)

    def recording(self, stmt, params, _lookup=Engine._cached_plan):
        # Holding the statement keeps its id from being reused.
        looked_up[id(stmt), tuple(map(type, params))] = stmt
        return _lookup(self, stmt, params)

    monkeypatch.setattr(engine_module, "compile_statement", counting)
    monkeypatch.setattr(Engine, "_cached_plan", recording)
    servers = [make_server(key), reference_server(key)]
    for sql in SCHEMA_STATEMENTS + populate_statements():
        for server in servers:
            server.execute(sql)
    generator = TpccGenerator(seed=1)
    profiles, _ = TransactionMix().choices()
    for _ in range(3):
        for profile in profiles:
            transaction = getattr(generator, profile)()
            calls = (
                transaction.calls
                if prepared
                else [(sql, None) for sql in transaction.statements]
            )
            for sql, params in calls:
                compiled, walker = (server.execute(sql, params) for server in servers)
                assert (compiled.columns, compiled.rows, compiled.rowcount) == (
                    walker.columns, walker.rows, walker.rowcount
                ), sql
    assert len(compiles) == len(looked_up) > len(SCHEMA_STATEMENTS)
