"""Static semantic analyzer: verdicts, schema tracking, portability,
reachability, the corpus lint, and the middleware behaviours the
verdicts drive (multiset voting, idempotence-gated write retries)."""

import datetime

import pytest

from repro.analysis import (
    FaultReachability,
    OrderVerdict,
    ScriptSchema,
    analyze_statement,
    predicted_hosts,
    script_contexts,
    script_portability,
)
from repro.analysis.lint import lint_corpus
from repro.bugs import build_corpus
from repro.dialects.features import SERVER_KEYS
from repro.dialects.translator import ScriptPieces
from repro.errors import AdjudicationFailure
from repro.faults import (
    ErrorEffect,
    FaultSpec,
    RelationTrigger,
    ScanOrderEffect,
    SqlPatternTrigger,
    StallEffect,
)
from repro.middleware import DiverseServer, ReplicaState, SupervisorPolicy
from repro.sqlengine.values import normalize_value
from repro.servers import make_server
from repro.sqlengine.parser import parse_statement


def verdict(sql, schema=None):
    return analyze_statement(parse_statement(sql), schema)


def schema_for(*ddl):
    schema = ScriptSchema()
    for sql in ddl:
        schema.observe(parse_statement(sql))
    return schema


ITEMS = "CREATE TABLE items (id INTEGER PRIMARY KEY, val INTEGER, lbl VARCHAR(10))"


class TestOrderVerdicts:
    def test_bare_select_is_unordered(self):
        assert verdict("SELECT id, val FROM items").order is OrderVerdict.UNORDERED

    def test_order_by_unique_key_is_total(self):
        schema = schema_for(ITEMS)
        v = verdict("SELECT id, val FROM items WHERE val > 5 ORDER BY id", schema)
        assert v.order is OrderVerdict.TOTAL

    def test_order_by_non_key_is_partial(self):
        schema = schema_for(ITEMS)
        assert (
            verdict("SELECT id, val FROM items ORDER BY val", schema).order
            is OrderVerdict.PARTIAL
        )

    def test_order_by_key_without_schema_degrades_to_partial(self):
        # No schema facts: the unique-key proof is unavailable, so the
        # analyzer must answer conservatively.
        assert (
            verdict("SELECT id FROM items ORDER BY id").order is OrderVerdict.PARTIAL
        )

    def test_aggregate_only_select_is_single_row_total(self):
        assert (
            verdict("SELECT COUNT(*), MAX(val) FROM items").order
            is OrderVerdict.TOTAL
        )

    def test_group_by_ordered_by_full_group_key_is_total(self):
        v = verdict("SELECT lbl, COUNT(*) FROM items GROUP BY lbl ORDER BY lbl")
        assert v.order is OrderVerdict.TOTAL

    def test_distinct_ordered_by_all_positions_is_total(self):
        v = verdict("SELECT DISTINCT val, lbl FROM items ORDER BY 1, 2")
        assert v.order is OrderVerdict.TOTAL

    def test_dedup_view_star_ordered_by_position_is_total(self):
        schema = schema_for(
            ITEMS.replace("items", "a"),
            ITEMS.replace("items", "b"),
            "CREATE VIEW vu (x) AS (SELECT val FROM a) UNION (SELECT val FROM b)",
        )
        assert (
            verdict("SELECT * FROM vu ORDER BY 1", schema).order is OrderVerdict.TOTAL
        )

    def test_limit_without_total_order_is_nondeterministic(self):
        assert (
            verdict("SELECT val FROM items LIMIT 3").order
            is OrderVerdict.NONDETERMINISTIC
        )
        assert (
            verdict("SELECT id, val FROM items ORDER BY val LIMIT 3").order
            is OrderVerdict.NONDETERMINISTIC
        )

    def test_limit_with_total_order_stays_total(self):
        schema = schema_for(ITEMS)
        v = verdict("SELECT id FROM items ORDER BY id LIMIT 3", schema)
        assert v.order is OrderVerdict.TOTAL

    def test_volatile_function_is_nondeterministic(self):
        v = verdict("SELECT GETDATE() FROM items")
        assert v.order is OrderVerdict.NONDETERMINISTIC
        assert v.volatile == frozenset({"GETDATE"})

    def test_non_select_has_no_order_question(self):
        assert verdict("DELETE FROM items").order is OrderVerdict.TOTAL

    def test_multiset_comparable_only_for_unordered_selects(self):
        assert verdict("SELECT val FROM items").multiset_comparable
        assert not verdict("SELECT val FROM items ORDER BY val").multiset_comparable
        assert not verdict("DELETE FROM items").multiset_comparable


class TestAccessVerdicts:
    def test_select_reads_only(self):
        v = verdict("SELECT val FROM items")
        assert v.access.reads == frozenset({"items"})
        assert v.access.writes == frozenset()
        assert not v.access.is_write
        assert v.access.reexecution_safe

    def test_self_referential_update_not_idempotent(self):
        v = verdict("UPDATE items SET val = val + 1 WHERE val > 5")
        assert v.access.is_write
        assert not v.access.idempotent
        assert not v.access.reexecution_safe

    def test_constant_update_keyed_elsewhere_is_reexecution_safe(self):
        v = verdict("UPDATE items SET lbl = 'x' WHERE id = 1")
        assert v.access.idempotent
        assert v.access.reexecution_safe

    def test_update_assigning_its_own_where_column_not_safe(self):
        # State-idempotent (val = 7 twice is val = 7), but the re-run's
        # WHERE no longer matches, so the rowcount is not reproducible.
        v = verdict("UPDATE items SET val = 7 WHERE val = 3")
        assert v.access.idempotent
        assert not v.access.reexecution_safe

    def test_update_reading_unassigned_columns_is_safe(self):
        v = verdict("UPDATE items SET val = id * 2 WHERE lbl = 'x'")
        assert v.access.reexecution_safe

    def test_delete_idempotent_but_not_reexecution_safe(self):
        v = verdict("DELETE FROM items WHERE val > 5")
        assert v.access.idempotent
        assert not v.access.reexecution_safe

    def test_insert_neither(self):
        v = verdict("INSERT INTO items (id, val) VALUES (1, 2)")
        assert not v.access.idempotent
        assert not v.access.reexecution_safe
        assert v.access.writes == frozenset({"items"})

    def test_ddl_never_reexecutes(self):
        assert not verdict(ITEMS).access.reexecution_safe
        assert not verdict("DROP TABLE items").access.idempotent

    def test_update_with_subquery_not_idempotent(self):
        v = verdict(
            "UPDATE items SET lbl = 'x' WHERE id IN (SELECT id FROM items)"
        )
        assert not v.access.idempotent


class TestScriptSchema:
    def test_unique_keys_from_pk_unique_and_index(self):
        schema = schema_for(
            "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER UNIQUE, c INTEGER, "
            "UNIQUE (c, b))",
            "CREATE UNIQUE INDEX ix_c ON t (c)",
        )
        keys = schema.unique_keys("t")
        assert frozenset({"a"}) in keys
        assert frozenset({"b"}) in keys
        assert frozenset({"c", "b"}) in keys
        assert frozenset({"c"}) in keys

    def test_drop_index_removes_its_key(self):
        schema = schema_for(
            "CREATE TABLE t (a INTEGER)",
            "CREATE UNIQUE INDEX ix_a ON t (a)",
            "DROP INDEX ix_a",
        )
        assert schema.unique_keys("t") == []

    def test_drop_table_forgets_everything(self):
        schema = schema_for(ITEMS, "DROP TABLE items")
        assert schema.table("items") is None

    def test_alter_add_unique_column_adds_key(self):
        schema = schema_for(
            "CREATE TABLE t (a INTEGER)",
            "ALTER TABLE t ADD COLUMN b INTEGER UNIQUE",
        )
        assert frozenset({"b"}) in schema.unique_keys("t")
        assert schema.table("t").columns == ["a", "b"]

    def test_dynamic_view_tags_predicted_for_readers_only(self):
        contexts = script_contexts(
            ScriptPieces(
                "CREATE TABLE t (a INTEGER);"
                "CREATE VIEW dv AS SELECT DISTINCT a FROM t;"
                "SELECT * FROM dv"
            )
        )
        by_sql = {ctx.sql: ctx for ctx in contexts if ctx.engine.phase == "serve"}
        create_view = by_sql["CREATE VIEW dv AS SELECT DISTINCT a FROM t"]
        reader = by_sql["SELECT * FROM dv"]
        # The CREATE VIEW's own traits name the view, but it does not
        # exist yet: no self-tagging.
        assert "view.used" not in create_view.all_tags
        assert {"view.used", "view.distinct_used"} <= reader.all_tags

    def test_writes_get_recover_phase_twins(self):
        contexts = script_contexts(ScriptPieces("CREATE TABLE t (a INTEGER); SELECT 1 FROM t"))
        phases = [ctx.engine.phase for ctx in contexts]
        assert phases == ["serve", "recover", "serve"]


class TestPortability:
    def test_plain_script_runs_everywhere(self):
        sql = ITEMS + "; INSERT INTO items (id, val) VALUES (1, 2)"
        assert predicted_hosts(ScriptPieces(sql)) == frozenset(SERVER_KEYS)

    def test_verdicts_name_missing_features(self):
        for verdicts in [script_portability(ScriptPieces("SELECT 1 FROM t LIMIT 1"))]:
            refused = [v for v in verdicts.values() if not v.can_run]
            accepted = [v for v in verdicts.values() if v.can_run]
            assert accepted, "LIMIT must be hosted somewhere"
            for v in refused:
                assert v.missing

    def test_predictions_match_corpus_ground_truth(self, corpus):
        for report in corpus.reports[:20]:
            assert predicted_hosts(ScriptPieces(report.script)) == frozenset(
                report.runnable_on | report.translation_pending
            ), report.bug_id


class TestReachabilityAndLint:
    def test_shipped_corpus_is_clean(self, pristine_lint):
        # Error-free; the corpus does carry warning-severity dead-code
        # findings (bulk setup writes no SELECT observes), which lint
        # reports without failing.
        findings = pristine_lint.findings
        assert [f for f in findings if f.severity == "error"] == []
        assert all(f.severity == "warning" for f in findings)

    def test_every_seeded_fault_reachable(self, corpus):
        reachability = FaultReachability(corpus)
        for report in corpus:
            reachability.add(report, ScriptPieces(report.script))
        assert reachability.unreachable() == []
        assert any(corpus.faults_for(server) for server in SERVER_KEYS)

    def test_seeded_dead_fault_is_found(self):
        mutated = build_corpus()
        report = mutated.reports[0]
        report.faults.setdefault(report.reported_for, []).append(
            FaultSpec(
                "LINT-DEAD",
                "trigger references a table no script creates",
                RelationTrigger(["no_such_table"], kind="select"),
                ErrorEffect("unreachable"),
            )
        )
        findings = [f for f in lint_corpus(mutated) if f.severity == "error"]
        assert [f.check for f in findings] == ["dead-fault"]
        assert "LINT-DEAD" in findings[0].subject

    def test_seeded_portability_drift_is_found(self):
        mutated = build_corpus()
        mutated.reports[0].runnable_on = frozenset()
        findings = lint_corpus(mutated)
        assert any(f.check == "portability-drift" for f in findings)

    def test_lint_cli_clean_on_shipped_corpus(self, pristine_lint):
        assert pristine_lint.text_status == 0
        assert "corpus clean" in pristine_lint.text_output


ORDER_FAULT = FaultSpec(
    "F-SCANORDER",
    "returns rows in reverse physical order",
    RelationTrigger(["accounts"], kind="select"),
    ScanOrderEffect(),
)


def diverse(adjudication="compare", ib_faults=(), **kwargs):
    server = DiverseServer(
        [make_server("IB", list(ib_faults)), make_server("OR"), make_server("MS")],
        adjudication=adjudication,
        **kwargs,
    )
    server.execute(
        "CREATE TABLE accounts (id INTEGER PRIMARY KEY, balance NUMERIC(10,2), "
        "lbl VARCHAR(10))"
    )
    server.execute(
        "INSERT INTO accounts (id, balance, lbl) VALUES "
        "(1, 100.00, 'a'), (2, 200.00, 'b'), (3, 300.00, 'c')"
    )
    return server


class TestMultisetVoting:
    def test_unordered_select_tolerates_benign_reorder(self):
        server = diverse(ib_faults=[ORDER_FAULT])
        result = server.execute("SELECT id, balance FROM accounts")
        assert len(result.rows) == 3
        assert server.stats.multiset_comparisons == 1
        assert server.stats.disagreements_detected == 0
        assert server.replica("IB").state is ReplicaState.ACTIVE

    def test_totally_ordered_select_still_detects_reorder(self):
        server = diverse(ib_faults=[ORDER_FAULT])
        with pytest.raises(AdjudicationFailure):
            server.execute("SELECT id, balance FROM accounts ORDER BY id")

    def test_partial_order_is_not_multiset_voted(self):
        server = diverse(ib_faults=[ORDER_FAULT])
        with pytest.raises(AdjudicationFailure):
            server.execute("SELECT id, balance FROM accounts ORDER BY lbl")
        assert server.stats.multiset_comparisons == 0

    def test_ablation_reverts_to_ordered_comparison(self):
        server = diverse(ib_faults=[ORDER_FAULT], static_analysis=False)
        with pytest.raises(AdjudicationFailure):
            server.execute("SELECT id, balance FROM accounts")
        assert server.stats.multiset_comparisons == 0


def stall_fault(pattern):
    return FaultSpec(
        "F-STALL",
        "one transient stall",
        SqlPatternTrigger(pattern),
        StallEffect(delay=400.0, once=True),
    )


class TestIdempotentWriteRetry:
    DEADLINE = SupervisorPolicy(statement_deadline=50.0)

    def test_safe_write_stall_is_retried_and_saved(self):
        server = diverse(
            adjudication="majority",
            ib_faults=[stall_fault(r"SET lbl = 'z'")],
            policy=self.DEADLINE,
        )
        server.execute("UPDATE accounts SET lbl = 'z' WHERE id = 1")
        assert server.stats.idempotent_write_retries == 1
        assert server.stats.retries_saved == 1
        assert server.stats.statement_timeouts == 0
        assert server.stats.quarantines == 0
        assert server.replica("IB").state is ReplicaState.ACTIVE

    def test_unsafe_write_stall_is_never_retried(self):
        server = diverse(
            adjudication="majority",
            ib_faults=[stall_fault(r"balance \+ 1")],
            policy=self.DEADLINE,
        )
        server.execute("UPDATE accounts SET balance = balance + 1 WHERE id = 1")
        assert server.stats.idempotent_write_retries == 0
        assert server.stats.statement_timeouts == 1

    def test_policy_knob_restores_blanket_rule(self):
        server = diverse(
            adjudication="majority",
            ib_faults=[stall_fault(r"SET lbl = 'z'")],
            policy=SupervisorPolicy(
                statement_deadline=50.0, idempotent_write_retry=False
            ),
        )
        server.execute("UPDATE accounts SET lbl = 'z' WHERE id = 1")
        assert server.stats.idempotent_write_retries == 0
        assert server.stats.statement_timeouts == 1

    def test_ablation_disables_write_retry(self):
        server = diverse(
            adjudication="majority",
            ib_faults=[stall_fault(r"SET lbl = 'z'")],
            policy=self.DEADLINE,
            static_analysis=False,
        )
        server.execute("UPDATE accounts SET lbl = 'z' WHERE id = 1")
        assert server.stats.idempotent_write_retries == 0
        assert server.stats.statement_timeouts == 1
        assert server.stats.quarantines == 1


class TestDateNormalization:
    def test_date_folds_to_midnight_timestamp(self):
        # Intentional dialect tolerance: products whose dialect has only
        # a combined date-time type return midnight timestamps for DATE
        # values; that must not read as disagreement.
        assert normalize_value(datetime.date(2004, 1, 1)) == normalize_value(
            datetime.datetime(2004, 1, 1, 0, 0)
        )

    def test_real_time_differences_survive(self):
        plain = normalize_value(datetime.date(2004, 1, 1))
        assert plain != normalize_value(datetime.datetime(2004, 1, 1, 0, 0, 1))
        assert plain != normalize_value(datetime.date(2004, 1, 2))
