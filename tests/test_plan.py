"""Planned query execution: lowering, rewrites, compiled operators.

Covers the logical/physical plan layer end to end: lowering SELECTs
into operator trees, the rule-based rewrites (constant folding,
predicate pushdown, index selection), EXPLAIN rendering at every API
level, the one plan cache (one plan per statement, parameter-type
tuple, rule set and catalog content, shared by every engine that runs
the statement over an equal catalog), unique-index maintenance in
storage, point probes served from a scan when the index cannot answer,
planned DML, and the dual-plan divergence oracle that catches
rewrite-level wrong results on a single replica.  Answers are compared
with :class:`tests.reference.ReferenceEngine`, the tree-walker.
"""

from __future__ import annotations

import copy
import gc
from decimal import Decimal

import pytest

from repro.errors import CatalogError, ParseError, SqlError
from repro.faults import AlwaysTrigger, FaultSpec, PlanStageBugEffect, PredicateFoldBugEffect
from repro.hunt import run_hunt
from repro.middleware import DiverseServer, ServerConfig
from repro.middleware.rephrase import QueryRephraser
from repro.servers import make_interbase, make_server
from repro.sqlengine import Engine
from repro.sqlengine import engine as engine_module
from repro.sqlengine.engine import ParsedStatement, statement_plans
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.plan import (
    PROBE_SCRIPTS,
    REWRITE_RULES,
    PhysicalSelect,
    apply_rewrites,
    compile_select,
    explain_plan,
    explain_statement,
    lower_select,
)
from tests.reference import ReferenceEngine


def _engine(cls: type = Engine) -> Engine:
    engine = cls(name="plan-test")
    engine.execute(
        "CREATE TABLE accounts (id INTEGER PRIMARY KEY, owner VARCHAR(10), "
        "balance NUMERIC(8,2))"
    )
    engine.execute("CREATE TABLE branches (bid INTEGER PRIMARY KEY, city VARCHAR(10))")
    for i, (owner, balance) in enumerate(
        [("ann", "10.00"), ("bob", "20.50"), ("cat", "5.25"), ("dan", "20.50")]
    ):
        engine.execute(
            f"INSERT INTO accounts (id, owner, balance) "
            f"VALUES ({i}, '{owner}', {balance})"
        )
    engine.execute("INSERT INTO branches (bid, city) VALUES (1, 'york')")
    return engine


def _outcome(engine: Engine, sql: str, params: tuple) -> tuple:
    """What a prepared execution answers (rows and count, or the error)
    and the table it leaves behind."""
    try:
        result = engine.prepare(sql).execute(params)
    except SqlError as error:
        answer: tuple = ("error", type(error).__name__, str(error))
    else:
        answer = (result.rows, result.rowcount)
    table = engine.execute("SELECT id, owner, balance FROM accounts")
    return answer, sorted(table.rows, key=repr)


def _plan_for(engine: Engine, sql: str, param_kinds: tuple = ()):
    plan = lower_select(parse_statement(sql), engine.catalog, param_kinds)
    return apply_rewrites(plan)


# -- lowering and rewrites -------------------------------------------------


class TestLoweringAndRewrites:
    def test_lowering_builds_operator_tree(self):
        engine = _engine()
        plan = lower_select(
            parse_statement(
                "SELECT owner FROM accounts WHERE balance > 6 ORDER BY owner"
            ),
            engine.catalog,
        )
        text = explain_plan(plan)
        assert "Sort" in text
        assert "Filter" in text
        assert "Scan accounts" in text

    def test_constant_folding_applies(self):
        engine = _engine()
        plan = _plan_for(engine, "SELECT owner FROM accounts WHERE balance > 1 + 1")
        assert "constant_folding" in plan.applied_rules
        assert "(balance > 2)" in explain_plan(plan)

    def test_predicate_pushdown_applies_on_joins(self):
        engine = _engine()
        plan = _plan_for(
            engine,
            "SELECT owner FROM accounts, branches "
            "WHERE accounts.id = branches.bid AND balance > 6",
        )
        assert "predicate_pushdown" in plan.applied_rules

    def test_predicate_pushdown_splits_a_total_single_table_where(self):
        engine = _engine()
        plan = _plan_for(
            engine,
            "SELECT owner FROM accounts WHERE balance > ? AND owner <> 'bob'",
            ("n",),
        )
        assert "predicate_pushdown" in plan.applied_rules
        text = explain_plan(plan)
        assert "Filter (balance > ?) AND (owner <> 'bob') [pushed]" in text
        assert "runtime checks" not in text

    def test_predicate_pushdown_keeps_a_non_total_where_whole(self):
        # `owner > 1` compares a string with a number and may raise, so
        # the WHERE stays one expression evaluated whole on every row.
        engine = _engine()
        plan = _plan_for(
            engine, "SELECT owner FROM accounts WHERE balance > 6 AND owner > 1"
        )
        assert "predicate_pushdown" not in plan.applied_rules
        text = explain_plan(plan)
        assert "Filter ((balance > 6) AND (owner > 1))\n" in text
        assert "[pushed]" not in text

    def test_index_selection_uses_primary_key(self):
        engine = _engine()
        plan = _plan_for(engine, "SELECT owner FROM accounts WHERE id = 2")
        assert "index_selection" in plan.applied_rules
        assert "IndexLookup accounts via PRIMARY KEY" in explain_plan(plan)

    def test_every_registered_rule_has_a_live_witness(self):
        engine = Engine(name="witness")
        fired: set[str] = set()
        for sql in PROBE_SCRIPTS:
            parsed = ParsedStatement.parse(sql)
            engine.execute(parsed)
            for plan in statement_plans(parsed.statement):
                if isinstance(plan, PhysicalSelect):
                    fired.update(plan.plan.applied_rules)
        assert fired >= set(REWRITE_RULES)

    def test_rewrites_reach_every_block(self):
        # Each operand of a set operation and each derived table is a
        # block of its own, rewritten on its own.
        engine = _engine()
        plan = _plan_for(
            engine,
            "SELECT owner FROM (SELECT owner FROM accounts WHERE id = 1) d "
            "UNION SELECT city FROM branches WHERE bid > 1 + 1",
        )
        text = explain_plan(plan)
        assert "SetOp UNION" in text
        assert "Derived as d" in text
        assert "IndexLookup accounts via PRIMARY KEY" in text
        assert "(bid > 2)" in text


# -- compiled execution matches the walker ---------------------------------


class TestCompiledExecution:
    PROBES = [
        "SELECT id, owner, balance FROM accounts ORDER BY id",
        "SELECT owner FROM accounts WHERE balance > 6 ORDER BY owner",
        "SELECT owner FROM accounts WHERE id = 2",
        "SELECT COUNT(*), SUM(balance) FROM accounts",
        "SELECT owner, COUNT(*) FROM accounts GROUP BY owner ORDER BY owner",
        "SELECT DISTINCT balance FROM accounts ORDER BY balance",
        "SELECT owner FROM accounts ORDER BY balance DESC LIMIT 2",
        "SELECT owner, city FROM accounts, branches "
        "WHERE accounts.id = branches.bid",
        "SELECT owner FROM accounts WHERE owner LIKE 'a%'",
        "SELECT owner FROM accounts WHERE balance BETWEEN 6 AND 21",
    ]

    def test_planned_results_equal_walker(self):
        for sql in self.PROBES:
            planned, walker = _engine(), _engine(ReferenceEngine)
            left = planned.execute(sql)
            right = walker.execute(sql)
            assert left.columns == right.columns, sql
            assert left.rows == right.rows, sql

    def test_planned_errors_equal_walker(self):
        for sql in [
            "SELECT nosuch FROM accounts",
            "SELECT owner + 1 FROM accounts",
        ]:
            planned, walker = _engine(), _engine(ReferenceEngine)
            with pytest.raises(SqlError) as planned_error:
                planned.execute(sql)
            with pytest.raises(SqlError) as walker_error:
                walker.execute(sql)
            assert str(planned_error.value) == str(walker_error.value), sql

    def test_planned_dml_matches_walker(self):
        planned, walker = _engine(), _engine(ReferenceEngine)
        script = [
            "INSERT INTO accounts (id, owner, balance) VALUES (9, 'eve', 1.00)",
            "UPDATE accounts SET balance = balance + 1 WHERE id = 9",
            "UPDATE accounts SET owner = 'zed' WHERE balance > 20",
            "DELETE FROM accounts WHERE owner = 'zed'",
        ]
        for sql in script:
            assert planned.execute(sql).rowcount == walker.execute(sql).rowcount, sql
        probe = "SELECT id, owner, balance FROM accounts ORDER BY id"
        assert planned.execute(probe).rows == walker.execute(probe).rows

    def test_unique_violation_detected_through_index(self):
        engine = _engine()
        with pytest.raises(SqlError):
            engine.execute(
                "INSERT INTO accounts (id, owner, balance) VALUES (2, 'dup', 0)"
            )
        with pytest.raises(SqlError):
            engine.execute("UPDATE accounts SET id = 0 WHERE id = 3")

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT owner FROM accounts WHERE id = ?",
            "UPDATE accounts SET balance = balance + 1 WHERE id = ?",
            "DELETE FROM accounts WHERE id = ?",
        ],
    )
    @pytest.mark.parametrize(
        "value", ["2", True, None, 2.0, Decimal("2"), 2], ids=repr
    )
    def test_any_parameter_type_on_a_numeric_key_answers_as_the_walker(
        self, sql, value
    ):
        outcomes = [
            _outcome(_engine(cls), sql, (value,)) for cls in (Engine, ReferenceEngine)
        ]
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "stray",
        [[1, "dup", Decimal("1.00")], ["7", "odd", Decimal("7.00")]],
        ids=["duplicate-key", "string-key"],
    )
    def test_point_probes_scan_when_the_index_cannot_answer(self, stray):
        # Rows written past the engine: a duplicate key poisons the
        # primary-key index, a string in the numeric key column gives it
        # a second stored kind.  Either way the lookup plan serves the
        # statement from a scan, with the same answers as the walker.
        engines = []
        for cls in (Engine, ReferenceEngine):
            engine = _engine(cls)
            engine.storage.get("accounts").insert(stray)
            engines.append(engine)
        planned, walker = engines
        index = planned.storage.get("accounts").unique_index((0,))
        assert index is None or index.kinds[0] == {"n", "s"}
        select = "SELECT owner FROM accounts WHERE id = ?"
        update = "UPDATE accounts SET owner = 'upd' WHERE id = ?"
        for key in (1, 2, 7):
            for sql in (select, update):
                assert _outcome(planned, sql, (key,)) == _outcome(walker, sql, (key,))
        plan = compile_select(parse_statement(select), planned.catalog, ("n",)).plan
        assert "index_selection" in plan.applied_rules


def _keyed_pair(cls: type, column_type: str, left: list, right: list) -> Engine:
    """Two tables whose ``k`` columns hold ``left`` and ``right``, written
    past the engine so a column can hold values of several kinds."""
    engine = cls(name="join-keys")
    for table, values in (("lk", left), ("rk", right)):
        engine.execute(f"CREATE TABLE {table} (k {column_type}, tag VARCHAR(5))")
        for index, value in enumerate(values):
            engine.storage.get(table).insert([value, f"{table[0]}{index}"])
    return engine


_NUMERIC_KEYS = [1, Decimal("1.00"), True, 2, None, Decimal("2.5"), False, 3]
_PLAIN_KEYS = [1, Decimal("2.0"), None, 0, 2, Decimal("2.50")]


class TestSortAndJoinKeys:
    JOIN = "SELECT lk.tag, rk.tag FROM lk, rk WHERE lk.k = rk.k"

    @pytest.mark.parametrize(
        "column_type, left, right",
        [
            ("INTEGER", _NUMERIC_KEYS, list(reversed(_NUMERIC_KEYS))),
            ("INTEGER", [*_PLAIN_KEYS, "2 "], _PLAIN_KEYS),
            ("INTEGER", _PLAIN_KEYS, ["1  ", *_PLAIN_KEYS]),
            ("CHAR(4)", ["ab", "ab  ", "b", None, "c "], ["ab ", "b", "c", "ab"]),
        ],
        ids=["numeric-kinds", "padded-probe", "padded-build", "char-keys"],
    )
    def test_mixed_key_kinds_join_as_the_walker(self, column_type, left, right):
        planned, walker = (
            _keyed_pair(cls, column_type, left, right) for cls in (Engine, ReferenceEngine)
        )
        assert "HashJoin" in explain_statement(self.JOIN, planned.catalog)
        rows = planned.execute(self.JOIN).rows
        assert rows == walker.execute(self.JOIN).rows
        assert rows

    @pytest.mark.parametrize(
        "column_type, values",
        [
            ("INTEGER", [3, 1, 2, 1, 3]),
            ("INTEGER", [3, None, 1, 2, None, 1]),
            ("NUMERIC(6,2)", [Decimal("1.50"), 1, Decimal("1.5"), 2, Decimal("0.25")]),
            ("CHAR(4)", ["b  ", "a", "a   ", "b", "ab"]),
            ("VARCHAR(4)", ["b", "a ", None, "a", "b "]),
            ("FLOAT", [0.1, Decimal("0.1"), 0.5, 1, 0.1]),
            ("INTEGER", [True, 1, Decimal("1.0"), False, "1 ", 0]),
        ],
        ids=["int", "int-null", "int-decimal", "char", "varchar-null", "float", "mixed"],
    )
    @pytest.mark.parametrize("direction", ["", " DESC"])
    def test_order_by_each_key_kind_sorts_as_the_walker(self, column_type, values, direction):
        sql = f"SELECT tag FROM lk ORDER BY k{direction}"
        planned, walker = (
            _keyed_pair(cls, column_type, values, []) for cls in (Engine, ReferenceEngine)
        )
        assert planned.execute(sql).rows == walker.execute(sql).rows

    @pytest.mark.parametrize(
        "sql, error",
        [
            # Row 0 raises in the second key, row 2 in the first: the
            # keys are evaluated row by row, so the cast error wins.
            (
                "SELECT id FROM accounts ORDER BY 10 / (id - 2), CAST(owner AS INTEGER)",
                "TypeMismatch",
            ),
            # An expression key that raises on row 0 comes before the
            # out-of-range ordinal that follows it.
            ("SELECT id FROM accounts ORDER BY 10 / (id - 0), 5", "DivisionByZero"),
            ("SELECT id FROM accounts ORDER BY 5, 10 / (id - 0)", "BindError"),
        ],
    )
    def test_order_by_raises_the_walkers_first_error(self, sql, error):
        raised = []
        for cls in (Engine, ReferenceEngine):
            with pytest.raises(SqlError) as caught:
                _engine(cls).execute(sql)
            raised.append((type(caught.value).__name__, str(caught.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] == error


# -- the plan cache --------------------------------------------------------


def _plans_by_key(statement) -> dict:
    """``(parameter types, rewrite, catalog token) -> plan`` for the
    plans cached for ``statement``."""
    return {
        key[1:]: engine_module._PLANS[key]
        for key in engine_module._PLAN_KEYS.get(id(statement), ())
    }


@pytest.fixture
def compiles(monkeypatch) -> list:
    """The statements handed to the compiler, one entry per compile
    (clear it once the set-up has run)."""
    compiled: list = []

    def counting(stmt, *args, _compile=engine_module.compile_statement):
        plan = _compile(stmt, *args)
        compiled.append(stmt)
        return plan

    monkeypatch.setattr(engine_module, "compile_statement", counting)
    return compiled


class TestPlanCache:
    def test_prepared_handle_reuses_one_plan(self, compiles):
        engine = _engine()
        compiles.clear()
        handle = engine.prepare("SELECT owner FROM accounts WHERE id = ?")
        handle.execute((1,))
        handle.execute((2,))
        assert len(statement_plans(handle.statement)) == 1
        assert compiles == [handle.statement]

    def test_ddl_invalidates_cached_plans(self):
        engine = _engine()
        handle = engine.prepare("SELECT owner FROM accounts WHERE id = ?")
        handle.execute((1,))
        [(_, _, before)] = _plans_by_key(handle.statement)
        engine.execute("CREATE TABLE extra (x INTEGER)")
        assert engine.catalog.content_token() != before
        handle.execute((1,))
        plans = _plans_by_key(handle.statement)
        assert [token for _, _, token in plans] == [before, engine.catalog.content_token()]
        first, second = plans.values()
        assert second is not first

    def test_failed_compile_is_not_cached(self):
        engine = _engine()
        handle = engine.prepare("INSERT INTO later (x) VALUES (1)")
        for _ in range(2):
            with pytest.raises(CatalogError, match="table 'later' does not exist"):
                handle.execute(())
        assert statement_plans(handle.statement) == []
        engine.execute("CREATE TABLE later (x INTEGER)")
        assert handle.execute(()).rowcount == 1
        assert len(statement_plans(handle.statement)) == 1

    def test_missing_relation_raises_only_when_read(self):
        # The walker built every FROM item, so a missing table raises
        # even beside an empty one, but a subquery nobody evaluates
        # never reads its relation.
        for cls in (Engine, ReferenceEngine):
            engine = _engine(cls)
            engine.execute("CREATE TABLE empty (x INTEGER)")
            with pytest.raises(CatalogError, match="relation 'nosuch' does not exist"):
                engine.execute("SELECT * FROM empty, nosuch")
            result = engine.execute(
                "SELECT x FROM empty WHERE EXISTS (SELECT 1 FROM nosuch)"
            )
            assert result.rows == []

    def test_rule_set_is_part_of_the_key(self):
        engine = _engine()
        handle = engine.prepare("SELECT owner FROM accounts WHERE id = ?")
        handle.execute((1,))
        engine.rewrite = False
        handle.execute((1,))
        handle.execute((2,))
        plans = {rewrite: plan.plan for (_, rewrite, _), plan in _plans_by_key(handle.statement).items()}
        assert list(plans) == [True, False]
        assert "index_selection" in plans[True].applied_rules
        assert plans[False].applied_rules == []

    def test_one_plan_per_parameter_type_tuple(self):
        engine = _engine()
        handle = engine.prepare("SELECT owner FROM accounts WHERE id = ?")
        for value in (2, "2", 3, None, "3", 2.0, 1):
            handle.execute((value,))
        plans = {types: plan.plan for (types, _, _), plan in _plans_by_key(handle.statement).items()}
        assert list(plans) == [(int,), (str,), (type(None),), (float,)]
        # A numeric parameter pins the key; a string one may raise
        # against a number, so its plan keeps the WHERE whole and scans.
        assert "index_selection" in plans[(int,)].applied_rules
        assert "index_selection" in plans[(float,)].applied_rules
        assert plans[(str,)].applied_rules == []

    def test_reset_and_restore_never_serve_a_plan_for_other_content(self):
        # A reset or restore whose generation counter lands where an
        # older catalog's was must not find that catalog's plan: the key
        # is the content.
        engine = _engine()
        parsed = ParsedStatement.parse("SELECT * FROM accounts WHERE id = 1")
        assert engine.execute(parsed).columns == ["id", "owner", "balance"]
        snapshot = engine.snapshot()
        engine.execute("ALTER TABLE accounts ADD COLUMN note VARCHAR(5) DEFAULT 'n'")
        assert engine.execute(parsed).rows == [(1, "bob", Decimal("20.50"), "n")]
        engine.restore(snapshot)
        assert engine.execute(parsed).rows == [(1, "bob", Decimal("20.50"))]
        engine.reset()
        engine.execute("CREATE TABLE accounts (id INTEGER, kind VARCHAR(3))")
        engine.execute("INSERT INTO accounts VALUES (1, 'new')")
        result = engine.execute(parsed)
        assert (result.columns, result.rows) == (["id", "kind"], [(1, "new")])
        assert len(statement_plans(parsed.statement)) == 3

    def test_plans_live_as_long_as_their_statement(self):
        engine = _engine()
        parsed = ParsedStatement.parse("SELECT owner FROM accounts WHERE id = 1")
        engine.execute(parsed)
        key = id(parsed.statement)
        assert key in engine_module._PLAN_KEYS
        del parsed
        gc.collect()
        assert key not in engine_module._PLAN_KEYS
        assert all(plan_key[0] != key for plan_key in engine_module._PLANS)


#: A schema script, and variants of it that differ in one object each.
_SHARED_SCHEMA = (
    "CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(8), c INTEGER)",
    "CREATE VIEW v AS SELECT a, b FROM t WHERE c > 0",
    "CREATE TABLE u (x INTEGER)",
    "INSERT INTO t VALUES (1, 'one', 1)",
    "INSERT INTO t VALUES (2, 'two', 2)",
)
_VARIANTS = {
    "index": _SHARED_SCHEMA + ("CREATE UNIQUE INDEX t_b ON t (b)",),
    "column-type": (
        "CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(9), c INTEGER)",
        *_SHARED_SCHEMA[1:],
    ),
    "check": (
        "CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(8), c INTEGER CHECK (c > -9))",
        *_SHARED_SCHEMA[1:],
    ),
    "view-body": (
        _SHARED_SCHEMA[0],
        "CREATE VIEW v AS SELECT a, b FROM t WHERE c > 1",
        *_SHARED_SCHEMA[2:],
    ),
    "dropped-table": _SHARED_SCHEMA + ("DROP TABLE u",),
}


def _shared_engine(script=_SHARED_SCHEMA, name: str = "shared", cls: type = Engine) -> Engine:
    engine = cls(name=name)
    for sql in script:
        engine.execute(sql)
    return engine


class TestPlanSharing:
    """One statement run on several engines compiles once per catalog
    content, and a shared plan answers for the engine that runs it."""

    def test_equal_catalogs_compile_once(self, compiles):
        a, b = _shared_engine(name="a"), _shared_engine(name="b")
        b.execute("INSERT INTO t VALUES (3, 'three', 3)")
        assert a.catalog.content_token() == b.catalog.content_token()
        compiles.clear()
        select = ParsedStatement.parse("SELECT a, b FROM v WHERE a > 1")
        insert = ParsedStatement.parse("INSERT INTO t VALUES (4, 'four', 4)")
        for statement in (select, insert, select):
            a.execute(statement)
        for statement in (select, insert, select):
            b.execute(statement)
        assert compiles == [select.statement, insert.statement]
        # Each engine's rows, though the plans were compiled on `a`.
        assert a.execute(select).rows == [(2, "two"), (4, "four")]
        assert b.execute(select).rows == [(2, "two"), (3, "three"), (4, "four")]

    @pytest.mark.parametrize("variant", sorted(_VARIANTS))
    def test_catalogs_that_differ_compile_separately(self, compiles, variant):
        a = _shared_engine(name="a")
        b = _shared_engine(_VARIANTS[variant], name="b")
        assert a.catalog.content_token() != b.catalog.content_token()
        compiles.clear()
        select = ParsedStatement.parse("SELECT a, b FROM v WHERE b <> 'x'")
        answers = [engine.execute(select).rows for engine in (a, b)]
        assert compiles == [select.statement, select.statement]
        expected = [
            _shared_engine(script, cls=ReferenceEngine).execute(select.sql).rows
            for script in (_SHARED_SCHEMA, _VARIANTS[variant])
        ]
        assert answers == expected

    def test_alter_table_on_one_engine_leaves_the_other_alone(self, compiles):
        a, b = _shared_engine(name="a"), _shared_engine(name="b")
        compiles.clear()
        select = ParsedStatement.parse("SELECT * FROM t")
        insert = ParsedStatement.parse("INSERT INTO t VALUES (7, 'seven', 7)")
        update = ParsedStatement.parse("UPDATE t SET c = c + 1 WHERE a = 7")
        for statement in (select, insert, update):
            a.execute(statement)
        a.execute("ALTER TABLE t ADD COLUMN d INTEGER DEFAULT 0")
        assert a.execute(select).columns == ["a", "b", "c", "d"]
        # `b` still has the old content, so it runs the plans compiled
        # on `a` before the ALTER: none may read `a`'s altered schema.
        for statement in (insert, update):
            b.execute(statement)
        result = b.execute(select)
        assert result.columns == ["a", "b", "c"]
        assert result.rows == [(1, "one", 1), (2, "two", 2), (7, "seven", 8)]
        assert len(compiles) == 4

    def test_restore_to_a_snapshot_before_ddl_runs_a_correct_plan(self):
        engine = _shared_engine()
        snapshot = engine.snapshot()
        select = ParsedStatement.parse("SELECT * FROM t WHERE a > 0")
        engine.execute("ALTER TABLE t ADD COLUMN d INTEGER DEFAULT 5")
        engine.execute("INSERT INTO t VALUES (3, 'three', 3, 3)")
        assert len(engine.execute(select).rows) == 3
        engine.restore(snapshot)
        result = engine.execute(select)
        assert result.columns == ["a", "b", "c"]
        assert result.rows == [(1, "one", 1), (2, "two", 2)]

    def test_a_rephrased_deep_copy_carries_no_plans(self):
        engine = _shared_engine()
        parsed = ParsedStatement.parse("SELECT a FROM t WHERE a = 1 OR b = 'two'")
        engine.execute(parsed)
        assert statement_plans(parsed.statement)
        rephrased = QueryRephraser().rephrase(parsed.statement)
        assert statement_plans(rephrased) == []
        copied = copy.deepcopy(parsed.statement)
        assert statement_plans(copied) == []

    def test_a_fault_on_one_product_fires_only_there(self):
        # The fold bug is a behaviour flag the plan consults at run time;
        # PG runs plans the other products compiled first.
        fault = FaultSpec(
            fault_id="fold-bug",
            description="fold-bug",
            trigger=AlwaysTrigger(),
            effect=PredicateFoldBugEffect(),
        )
        report = run_hunt(30, seed=7, faults={"PG": [fault]})
        assert report.findings
        tlp = [finding for finding in report.findings if finding.oracle == "tlp"]
        assert [finding.product for finding in tlp] == ["PG"]
        assert all("PG" in finding.product.split("/") for finding in report.findings)


# -- storage unique indexes ------------------------------------------------


class TestUniqueIndexMaintenance:
    def test_index_tracks_insert_update_delete(self):
        engine = _engine()
        data = engine.storage.get("accounts")
        index = data.unique_index((0,))
        assert index is not None and len(index.map) == len(data.rows())
        engine.execute(
            "INSERT INTO accounts (id, owner, balance) VALUES (7, 'gil', 3)"
        )
        assert len(index.map) == len(data.rows())
        engine.execute("UPDATE accounts SET id = 8 WHERE id = 7")
        assert (("n", 8),) in index.map
        engine.execute("DELETE FROM accounts WHERE id = 8")
        assert len(index.map) == len(data.rows())

    def test_transaction_undo_restores_index(self):
        engine = _engine()
        data = engine.storage.get("accounts")
        before = set(engine.storage.get("accounts").snapshot())
        engine.execute("BEGIN")
        engine.execute("UPDATE accounts SET id = 77 WHERE id = 1")
        engine.execute("DELETE FROM accounts WHERE id = 2")
        engine.execute("ROLLBACK")
        assert set(data.snapshot()) == before
        index = data.unique_index((0,))
        assert index is not None and len(index.map) == len(data.rows())
        # Point lookups still resolve after undo.
        assert engine.execute("SELECT owner FROM accounts WHERE id = 1").rows == [
            ("bob",)
        ]

    def test_duplicate_data_poisons_index(self):
        from repro.sqlengine.storage import TableData

        data = TableData("d", 2)
        data.insert([1, "a"])
        data.insert([1, "b"])  # storage layer itself doesn't enforce keys
        assert data.unique_index((0,)) is None


# -- EXPLAIN surfaces ------------------------------------------------------


class TestExplain:
    def test_explain_statement_renders_rules_and_checks(self):
        engine = _engine()
        text = explain_statement(
            "SELECT owner FROM accounts WHERE id = ?", engine.catalog
        )
        assert text.startswith("plan:")
        assert "IndexLookup accounts via PRIMARY KEY" in text
        assert "rewrites: predicate_pushdown, index_selection" in text
        assert "runtime checks" not in text

    def test_explain_statement_renders_every_shape(self):
        engine = _engine()
        engine.execute("CREATE VIEW rich AS SELECT DISTINCT owner FROM accounts")
        text = explain_statement(
            "SELECT owner FROM rich r LEFT JOIN branches ON owner = city "
            "WHERE EXISTS (SELECT 1 FROM branches) "
            "EXCEPT SELECT owner FROM accounts",
            engine.catalog,
        )
        assert text.startswith("plan:")
        assert "SetOp EXCEPT" in text
        assert "Join LEFT ON (owner = city)" in text
        assert "View rich as r" in text
        assert "Filter (EXISTS (SELECT 1 FROM branches))" in text
        ddl = explain_statement("CREATE TABLE z (x INTEGER)", engine.catalog)
        assert "executed directly by the engine" in ddl

    def test_sql_server_explain(self):
        server = make_server("PG")
        server.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)")
        assert "IndexLookup t" in server.explain("SELECT b FROM t WHERE a = 1")

    @pytest.mark.parametrize("sql", ["", "SELECT 1; SELECT 2"])
    def test_explain_of_all_but_one_statement_is_a_parse_error(self, sql):
        with pytest.raises(ParseError):
            make_server("PG").explain(sql)
        with pytest.raises(ParseError):
            DiverseServer([make_interbase(), make_server("PG")]).explain(sql)


# -- dual-plan divergence oracle -------------------------------------------


def _plan_bug() -> FaultSpec:
    return FaultSpec(
        fault_id="PLAN-1",
        description="compiled plan filter drops the last row",
        trigger=AlwaysTrigger(),
        effect=PlanStageBugEffect(),
    )


class TestDualPlanOracle:
    def _serve(self, replica):
        server = DiverseServer(
            [replica], config=ServerConfig(adjudication="primary", dual_plan=True)
        )
        server.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b CHAR(4))")
        for i in range(5):
            server.execute("INSERT INTO t (a, b) VALUES (?, ?)", (i, "x"))
        return server

    def test_clean_replica_has_zero_divergences(self):
        server = self._serve(make_interbase())
        result = server.execute("SELECT a, b FROM t WHERE a > 0 ORDER BY a")
        assert result.rows[0] == (1, "x   ")
        assert server.stats.dual_plan_checks > 0
        assert server.stats.dual_plan_divergences == 0
        assert server.dual_plan_log == []

    def test_planner_level_fault_is_flagged(self):
        replica = make_interbase()
        replica.injector.add(_plan_bug())
        server = self._serve(replica)
        result = server.execute("SELECT a, b FROM t WHERE a > 0 ORDER BY a")
        assert server.stats.dual_plan_divergences == 1
        assert server.dual_plan_log == [
            ("SELECT a, b FROM t WHERE a > 0 ORDER BY a", "IB")
        ]
        assert any("dual-plan divergence" in w for w in result.warnings)

    def test_oracle_is_off_by_default(self):
        server = DiverseServer([make_interbase(), make_server("PG")])
        server.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        server.execute("INSERT INTO t (a) VALUES (1)")
        server.execute("SELECT a FROM t")
        assert server.stats.dual_plan_checks == 0

    def test_unrewritten_plan_skips_the_faulty_stage(self):
        # The seeded fault lives in the pushed-filter stage, which only
        # predicate pushdown builds: with no rules the answer is whole.
        replica = make_interbase()
        replica.injector.add(_plan_bug())
        engine = replica.engine
        engine.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        for i in range(3):
            engine.execute(f"INSERT INTO t (a) VALUES ({i})")
        sql = "SELECT a FROM t WHERE a >= 0 ORDER BY a"
        assert engine.execute(sql).rows == [(0,), (1,)]
        engine.rewrite = False
        assert engine.execute(sql).rows == [(0,), (1,), (2,)]
