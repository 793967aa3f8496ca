"""The write budget: what a TPC-C write checks, casts and renders.

A write's plan decides when it compiles which constraints it checks
and how it coerces each column (``repro.sqlengine.plan.dml``).  Every
TPC-C template runs on all four products with ``_check_uniqueness``
and ``cast_value`` wrapped in the module the plans read them from, and
the tests assert exact counts: no unique probe for an UPDATE (none of
the six assigns a key column), one per inserted row, and a cast only
for a value that is not an exact ``int`` stored into an INTEGER
column.  Through the middleware a prepared read renders no literal
text (``render_param``), a write renders its values once, for the
write log, and a value no parameter binds is refused before any
replica runs; each replica tests only its float and Decimal values for
NaN and infinity.
"""

from __future__ import annotations

from decimal import Decimal

import pytest

import repro.middleware.server
import repro.sqlengine.engine
import repro.sqlengine.plan.dml as dml
from repro.errors import SqlError
from repro.middleware import DiverseServer, ServerConfig
from repro.servers import make_server
from repro.sqlengine.engine import EnginePrepared
from repro.workload.generator import TpccGenerator, TransactionMix
from repro.workload.schema import SCHEMA_STATEMENTS, populate_statements

KEYS = ("IB", "PG", "OR", "MS")

#: ``cast_value`` calls per written row of each TPC-C write template,
#: by the template's opening words: its values that are not an exact
#: ``int`` stored into an INTEGER column.
CASTS = {
    "UPDATE district SET d_next_o_id": 0,
    "INSERT INTO orders": 1,  # o_carrier_id is NULL
    "INSERT INTO order_line": 1,  # ol_amount, a Decimal into NUMERIC
    "UPDATE stock": 0,
    "UPDATE warehouse": 1,  # w_ytd += a float, into NUMERIC
    "UPDATE district SET d_ytd": 1,
    "UPDATE customer": 2,  # c_balance and c_ytd_payment, NUMERIC
    "INSERT INTO history": 2,  # h_amount (float) and h_data (str)
    "UPDATE orders": 0,
}


def _spy(monkeypatch, module, name: str) -> list:
    calls: list = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _calls(rounds: int = 3):
    """Every call of ``rounds`` rounds of each TPC-C profile, seed 1."""
    generator = TpccGenerator(seed=1)
    profiles, _ = TransactionMix().choices()
    for _ in range(rounds):
        for profile in profiles:
            yield from getattr(generator, profile)().calls


@pytest.mark.parametrize("key", KEYS)
def test_tpcc_writes_probe_and_cast_only_what_they_change(key, monkeypatch):
    server = make_server(key)
    for sql in SCHEMA_STATEMENTS + populate_statements():
        server.execute(sql)
    probes = _spy(monkeypatch, dml, "_check_uniqueness")
    casts = _spy(monkeypatch, dml, "cast_value")
    seen = set()
    for template, params in _calls():
        probes.clear()
        casts.clear()
        result = server.execute(template, params)
        if not template.startswith(("INSERT", "UPDATE")):
            assert probes == casts == [], template
            continue
        prefix = next(prefix for prefix in CASTS if template.startswith(prefix))
        seen.add(prefix)
        inserted = result.rowcount if template.startswith("INSERT") else 0
        assert len(probes) == inserted, template
        assert len(casts) == CASTS[prefix] * result.rowcount, template
    assert seen == set(CASTS)


def test_an_exact_int_into_integer_is_never_cast(monkeypatch):
    server = make_server("PG")
    server.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n SMALLINT, d NUMERIC(6,2))")
    casts = _spy(monkeypatch, dml, "cast_value")
    server.execute("INSERT INTO t VALUES (?, ?, ?)", (1, 2, 3))
    server.execute("UPDATE t SET n = ?, d = ? WHERE id = 1", (4, 5))
    server.execute("UPDATE t SET n = ? WHERE id = 1", (True,))
    assert [args[0] for args in casts] == [3, 5, True]
    assert server.execute("SELECT n, d FROM t").rows == [(1, Decimal("5.00"))]


def _middleware() -> DiverseServer:
    server = DiverseServer(
        [make_server(key) for key in KEYS], config=ServerConfig(adjudication="majority")
    )
    for sql in SCHEMA_STATEMENTS + populate_statements():
        server.execute(sql)
    return server


def test_a_prepared_read_renders_no_text(monkeypatch):
    server = _middleware()
    rendered = _spy(monkeypatch, repro.middleware.server, "render_param")
    reads = writes = 0
    for template, params in _calls(rounds=2):
        rendered.clear()
        server.execute(template, params)
        if template.startswith("SELECT"):
            reads += 1
            assert rendered == [], template
        elif params:
            writes += 1
            assert len(rendered) == len(params), template
    assert reads and writes
    assert server.verify_consistency() == {}


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), Decimal("NaN"), Decimal("-Infinity"), object(), b"1"],
    ids=repr,
)
def test_an_unbindable_value_is_refused_before_any_replica_runs(value, monkeypatch):
    server = _middleware()
    replica_runs = _spy(monkeypatch, EnginePrepared, "execute")
    with pytest.raises(SqlError, match="^cannot bind parameter value "):
        server.execute("SELECT w_name FROM warehouse WHERE w_id = ?", [value])
    assert replica_runs == []


def test_each_replica_tests_only_inexact_values_for_nan(monkeypatch):
    engine = make_server("IB").engine
    engine.execute("CREATE TABLE t (a INTEGER, b VARCHAR(4), c NUMERIC(6,2), d FLOAT)")
    tested = _spy(monkeypatch, repro.sqlengine.engine, "is_finite")
    insert = engine.prepare("INSERT INTO t VALUES (?, ?, ?, ?)")
    insert.execute((1, "x", Decimal("2.5"), 0.5))
    insert.execute((2, None, None, None))
    assert [args[0] for args in tested] == [Decimal("2.5"), 0.5]
    with pytest.raises(SqlError, match="NaN or infinite"):
        insert.execute((3, "y", Decimal("NaN"), 1.0))
