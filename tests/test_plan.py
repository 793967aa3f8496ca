"""Planned query execution: lowering, rewrites, compiled operators.

Covers the logical/physical plan layer end to end: lowering SELECTs
into operator trees, the rule-based rewrites (constant folding,
predicate pushdown, projection pruning, index selection), EXPLAIN
rendering at every API level, the engine's generation-checked plan
cache, unique-index maintenance in storage, runtime fallback to the
tree-walker, planned DML, and the dual-plan divergence oracle that
catches planner-level wrong results on a single replica.
"""

from __future__ import annotations

import pytest

from repro.errors import ParseError, SqlError
from repro.faults import AlwaysTrigger, FaultSpec, PlanStageBugEffect
from repro.middleware import DiverseServer, ServerConfig
from repro.servers import make_interbase, make_postgres, make_server
from repro.sqlengine import Engine
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.plan import (
    PROBE_SCRIPTS,
    REWRITE_RULES,
    PhysicalSelect,
    PlanUnsupported,
    apply_rewrites,
    compile_select,
    explain_plan,
    explain_statement,
    lower_select,
)


def _engine() -> Engine:
    engine = Engine(name="plan-test")
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


def _plan_for(engine: Engine, sql: str):
    plan = lower_select(parse_statement(sql), engine.catalog)
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

    def test_projection_pruning_narrows_scans(self):
        engine = _engine()
        plan = _plan_for(engine, "SELECT owner FROM accounts")
        assert "projection_pruning" in plan.applied_rules
        # The scan only materializes the column the query reads.
        assert "Scan accounts [owner]" in explain_plan(plan)

    def test_index_selection_uses_primary_key(self):
        engine = _engine()
        plan = _plan_for(engine, "SELECT owner FROM accounts WHERE id = 2")
        assert "index_selection" in plan.applied_rules
        assert "IndexLookup accounts via PRIMARY KEY" in explain_plan(plan)

    def test_every_registered_rule_has_a_live_witness(self):
        engine = Engine(name="witness")
        fired: set[str] = set()
        for sql in PROBE_SCRIPTS:
            engine.execute(sql)
        for _, _, plan in engine._plans.values():
            if isinstance(plan, PhysicalSelect):
                fired.update(plan.plan.applied_rules)
        assert fired >= set(REWRITE_RULES)

    def test_subqueries_are_unplanned(self):
        engine = _engine()
        with pytest.raises(PlanUnsupported):
            compile_select(
                parse_statement(
                    "SELECT owner FROM accounts "
                    "WHERE EXISTS (SELECT 1 FROM branches)"
                ),
                engine,
            )


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
            planned, walker = _engine(), _engine()
            walker.use_planner = False
            left = planned.execute(sql)
            right = walker.execute(sql)
            assert left.columns == right.columns, sql
            assert left.rows == right.rows, sql

    def test_planned_errors_equal_walker(self):
        for sql in [
            "SELECT nosuch FROM accounts",
            "SELECT owner + 1 FROM accounts",
        ]:
            planned, walker = _engine(), _engine()
            walker.use_planner = False
            with pytest.raises(SqlError) as planned_error:
                planned.execute(sql)
            with pytest.raises(SqlError) as walker_error:
                walker.execute(sql)
            assert str(planned_error.value) == str(walker_error.value), sql

    def test_planned_dml_matches_walker(self):
        planned, walker = _engine(), _engine()
        walker.use_planner = False
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

    def test_parameter_kind_mismatch_falls_back_to_walker(self):
        planned, walker = _engine(), _engine()
        walker.use_planner = False
        sql = "SELECT owner FROM accounts WHERE id = ?"
        for params in [(2,), ("two",)]:
            outcomes = []
            for engine in (planned, walker):
                try:
                    outcomes.append(("ok", engine.prepare(sql).execute(params).rows))
                except SqlError as error:
                    outcomes.append(("error", str(error)))
            assert outcomes[0] == outcomes[1], params


# -- the plan cache --------------------------------------------------------


class TestPlanCache:
    def test_prepared_handle_reuses_one_plan(self):
        engine = _engine()
        engine._plans.clear()
        handle = engine.prepare("SELECT owner FROM accounts WHERE id = ?")
        handle.execute((1,))
        handle.execute((2,))
        plans = [p for (_s, _g, p) in engine._plans.values() if p is not None]
        assert len(plans) == 1

    def test_ddl_invalidates_cached_plans(self):
        engine = _engine()
        engine._plans.clear()
        handle = engine.prepare("SELECT owner FROM accounts WHERE id = ?")
        handle.execute((1,))
        stmt_id, (stmt, generation, plan) = next(iter(engine._plans.items()))
        engine.execute("CREATE TABLE extra (x INTEGER)")
        assert engine.catalog.generation > generation
        handle.execute((1,))
        _, new_generation, new_plan = engine._plans[stmt_id]
        assert new_generation == engine.catalog.generation
        assert new_plan is not plan

    def test_unsupported_statement_caches_negative_entry(self):
        engine = _engine()
        engine._plans.clear()
        handle = engine.prepare(
            "SELECT owner FROM accounts WHERE EXISTS (SELECT 1 FROM branches)"
        )
        handle.execute(())
        handle.execute(())
        entries = list(engine._plans.values())
        assert len(entries) == 1
        assert entries[0][2] is None  # compiled once, walker serves it

    def test_reset_clears_plans(self):
        engine = _engine()
        engine.execute("SELECT owner FROM accounts")
        assert engine._plans
        engine.reset()
        assert not engine._plans


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
        assert "rewrites:" in text
        assert "runtime checks: ?1:n" in text

    def test_explain_statement_names_walker_for_unplanned_shapes(self):
        engine = _engine()
        note = explain_statement(
            "SELECT owner FROM accounts WHERE EXISTS (SELECT 1 FROM branches)",
            engine.catalog,
        )
        assert "unplanned" in note and "tree-walker" in note
        ddl = explain_statement("CREATE TABLE z (x INTEGER)", engine.catalog)
        assert "executed directly by the engine" in ddl

    def test_sql_server_explain(self):
        server = make_server("PG")
        server.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)")
        assert "IndexLookup t" in server.explain("SELECT b FROM t WHERE a = 1")

    def test_diverse_server_explain_is_memoized_per_generation(self):
        server = DiverseServer([make_interbase(), make_postgres()])
        server.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)")
        first = server.explain("SELECT b FROM t WHERE a = 1")
        again = server.explain("SELECT b FROM t WHERE a = 1")
        assert first == again
        assert server.pipeline.stats.plan_hits == 1
        assert server.pipeline.stats.plan_misses == 1
        server.execute("CREATE TABLE u (x INTEGER)")  # bumps the generation
        server.explain("SELECT b FROM t WHERE a = 1")
        assert server.pipeline.stats.plan_misses == 2

    @pytest.mark.parametrize("sql", ["", "SELECT 1; SELECT 2"])
    def test_explain_of_all_but_one_statement_is_a_parse_error(self, sql):
        with pytest.raises(ParseError):
            make_server("PG").explain(sql)
        with pytest.raises(ParseError):
            DiverseServer([make_interbase(), make_postgres()]).explain(sql)


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
        replica.seed_fault(_plan_bug())
        server = self._serve(replica)
        result = server.execute("SELECT a, b FROM t WHERE a > 0 ORDER BY a")
        assert server.stats.dual_plan_divergences == 1
        assert server.dual_plan_log == [
            ("SELECT a, b FROM t WHERE a > 0 ORDER BY a", "IB")
        ]
        assert any("dual-plan divergence" in w for w in result.warnings)

    def test_oracle_is_off_by_default(self):
        server = DiverseServer([make_interbase(), make_postgres()])
        server.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        server.execute("INSERT INTO t (a) VALUES (1)")
        server.execute("SELECT a FROM t")
        assert server.stats.dual_plan_checks == 0

    def test_use_planner_kill_switch(self):
        engine = _engine()
        engine.use_planner = False
        engine._plans.clear()
        engine.execute("SELECT owner FROM accounts WHERE id = 1")
        assert not engine._plans  # walker path compiles nothing
