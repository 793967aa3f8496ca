"""Whole-script dataflow: def/use graphs, slices, minimization."""

from repro.analysis import build_graph, minimize_script
from repro.analysis.dataflow import statement_def_use
from repro.analysis.schema import ScriptSchema
from repro.bugs import minimize_report
from repro.middleware.pipeline import StatementPipeline
from repro.sqlengine.analysis import extract_traits
from repro.sqlengine.parser import parse_statement
from repro.study.runner import split_statements


def def_use(sql, schema=None):
    stmt = parse_statement(sql)
    return statement_def_use(stmt, schema, extract_traits(stmt))


class TestDefUse:
    def test_create_table_defines_schema_and_columns(self):
        du = def_use("CREATE TABLE t (id INTEGER PRIMARY KEY, v CHAR(4))")
        assert ("t", "@schema") in du.defs
        assert ("t", "*") in du.defs
        assert ("t", "id") in du.defs and ("t", "v") in du.defs
        assert du.uses == frozenset()

    def test_foreign_key_reads_referenced_table_existence(self):
        du = def_use(
            "CREATE TABLE c (id INTEGER, p INTEGER REFERENCES parent (id))"
        )
        assert ("parent", "@schema") in du.uses

    def test_insert_defines_data_and_reads_prior_content(self):
        du = def_use("INSERT INTO t (id) VALUES (1)")
        assert ("t", "*") in du.defs
        # Constraint checks read the rows already there.
        assert ("t", "*") in du.uses and ("t", "@schema") in du.uses

    def test_update_defines_assigned_columns_only(self):
        schema = ScriptSchema()
        schema.observe(parse_statement("CREATE TABLE t (id INTEGER, v INTEGER)"))
        du = def_use("UPDATE t SET v = v + 1 WHERE id > 2", schema)
        assert du.defs == frozenset({("t", "v")})
        assert ("t", "id") in du.uses and ("t", "v") in du.uses

    def test_select_resolves_columns_against_schema(self):
        schema = ScriptSchema()
        schema.observe(parse_statement("CREATE TABLE t (id INTEGER, v INTEGER)"))
        du = def_use("SELECT v FROM t WHERE id = 1", schema)
        assert du.defs == frozenset()
        assert ("t", "id") in du.uses and ("t", "v") in du.uses
        assert ("t", "@schema") in du.uses

    def test_select_star_reads_whole_relation(self):
        du = def_use("SELECT * FROM t")
        assert ("t", "*") in du.uses

    def test_subqueries_are_crossed(self):
        schema = ScriptSchema()
        schema.observe(parse_statement("CREATE TABLE t (id INTEGER)"))
        schema.observe(parse_statement("CREATE TABLE u (id INTEGER)"))
        du = def_use("SELECT id FROM t WHERE id IN (SELECT id FROM u)", schema)
        assert ("u", "id") in du.uses

    def test_unique_index_reads_content(self):
        assert ("t", "*") in def_use("CREATE UNIQUE INDEX ix ON t (a)").uses
        assert ("t", "*") not in def_use("CREATE INDEX ix ON t (a)").uses

    def test_transaction_control_is_a_barrier(self):
        assert def_use("COMMIT").barrier
        assert def_use("ROLLBACK").barrier
        assert not def_use("SELECT 1 FROM t").barrier


class TestGraph:
    SCRIPT = (
        "CREATE TABLE a (id INTEGER, v INTEGER);\n"
        "CREATE TABLE b (id INTEGER);\n"
        "INSERT INTO a (id, v) VALUES (1, 10);\n"
        "INSERT INTO b (id) VALUES (7);\n"
        "SELECT v FROM a WHERE id = 1;"
    )

    def test_backward_slice_drops_unrelated_statements(self):
        graph = build_graph(self.SCRIPT)
        assert graph.backward_slice([4]) == [0, 2, 4]

    def test_data_write_does_not_satisfy_schema_use(self):
        # INSERT INTO b defines (b, "*"), which must not feed a later
        # statement's (b, "@schema") existence dependence.
        graph = build_graph(
            "CREATE TABLE b (id INTEGER);\n"
            "INSERT INTO b (id) VALUES (1);\n"
            "CREATE VIEW vb AS SELECT id FROM b;\n"
            "DROP VIEW vb;"
        )
        assert graph.backward_slice([3]) == [0, 2, 3]

    def test_view_reading_select_depends_on_base_inserts(self):
        graph = build_graph(
            "CREATE TABLE b (id INTEGER);\n"
            "CREATE VIEW vb AS SELECT id FROM b;\n"
            "INSERT INTO b (id) VALUES (1);\n"
            "SELECT id FROM vb;"
        )
        # The view expands at query time: the SELECT reads b's data,
        # including the INSERT that happened after CREATE VIEW.
        assert graph.backward_slice([3]) == [0, 1, 2, 3]

    def test_barrier_pins_everything_before_it(self):
        graph = build_graph(
            "CREATE TABLE a (id INTEGER);\n"
            "INSERT INTO a (id) VALUES (1);\n"
            "COMMIT;\n"
            "SELECT id FROM a;"
        )
        assert graph.backward_slice([3]) == [0, 1, 2, 3]

    def test_repeated_text_after_ddl_reads_the_new_view(self):
        # The two `SELECT a FROM v` share one text but not one meaning:
        # the second reads the view recreated over t2, so it depends on
        # t2's CREATE, not t1's.
        graph = build_graph(
            "CREATE TABLE t1 (a INTEGER);\n"
            "CREATE TABLE t2 (a INTEGER);\n"
            "CREATE VIEW v AS SELECT a FROM t1;\n"
            "SELECT a FROM v;\n"
            "DROP VIEW v;\n"
            "CREATE VIEW v AS SELECT a FROM t2;\n"
            "SELECT a FROM v;"
        )
        assert graph.deps[3] == {0, 2}
        assert graph.deps[6] == {1, 2, 4, 5}

    def test_dead_statements(self):
        graph = build_graph(self.SCRIPT)
        # INSERT INTO b feeds no SELECT; CREATE TABLE b feeds only it.
        assert graph.dead_statements() == [1, 3]

    def test_dead_columns(self):
        graph = build_graph(
            "CREATE TABLE t (id INTEGER, unused VARCHAR(8));\n"
            "SELECT id FROM t;"
        )
        assert graph.dead_columns() == [("t", "unused")]

    def test_dead_columns_respects_star(self):
        graph = build_graph(
            "CREATE TABLE t (id INTEGER, v VARCHAR(8));\n"
            "SELECT * FROM t;"
        )
        assert graph.dead_columns() == []


class TestMinimize:
    def test_minimize_script_keeps_targets_and_deps(self):
        sliced = minimize_script(TestGraph.SCRIPT, targets=[4])
        assert sliced.kept == (0, 2, 4)
        assert sliced.dropped == (1, 3)
        assert len(split_statements(sliced.sql)) == 3

    def test_minimize_report_keeps_trigger_statements(self, corpus):
        checked = 0
        for report in corpus.reports[:30]:
            sliced = minimize_report(report)
            anchors = dict(sliced.anchors)
            assert anchors, report.bug_id
            assert all(index in sliced.kept for index in anchors), report.bug_id
            checked += 1
        assert checked == 30

    def test_minimize_report_preserves_portability(self, corpus):
        from repro.analysis import predicted_hosts

        for report in corpus.reports[:30]:
            sliced = minimize_report(report)
            if not sliced.dropped:
                continue
            assert predicted_hosts(sliced.sql) == predicted_hosts(report.script), (
                report.bug_id
            )

    def test_corpus_wide_reduction_is_substantial(self, corpus):
        total = kept = 0
        for report in corpus:
            sliced = minimize_report(report)
            total += len(sliced.kept) + len(sliced.dropped)
            kept += len(sliced.kept)
        assert (total - kept) / total > 0.1

    def test_slice_result_reduction(self):
        sliced = minimize_script(TestGraph.SCRIPT, targets=[4])
        assert (len(sliced.kept), len(sliced.dropped)) == (3, 2)


class TestPipelineMemoization:
    def test_def_use_is_cached_per_generation(self):
        pipeline = StatementPipeline()
        schema = ScriptSchema()
        sql = "SELECT id FROM t"
        stmt, traits, _ = pipeline.parsed(sql)
        first = pipeline.def_use(sql, stmt, schema, traits)
        second = pipeline.def_use(sql, stmt, schema, traits)
        assert first is second
        assert pipeline.stats.dataflow_hits == 1
        assert pipeline.stats.dataflow_misses == 1
        pipeline.bump_generation()
        pipeline.def_use(sql, stmt, schema, traits)
        assert pipeline.stats.dataflow_misses == 2
