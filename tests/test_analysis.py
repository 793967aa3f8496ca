"""Trait extraction tests: the walker feeding dialect gates and fault
triggers."""

from repro.sqlengine.analysis import extract_traits, script_traits
from repro.sqlengine.parser import parse_script, parse_statement


def traits_of(sql):
    return extract_traits(parse_statement(sql))


class TestStatementKinds:
    def test_kinds(self):
        assert traits_of("SELECT 1").kind == "select"
        assert traits_of("INSERT INTO t VALUES (1)").kind == "insert"
        assert traits_of("UPDATE t SET a = 1").kind == "update"
        assert traits_of("DELETE FROM t").kind == "delete"
        assert traits_of("CREATE TABLE t (a INTEGER)").kind == "create_table"
        assert traits_of("DROP VIEW v").kind == "drop_view"
        assert traits_of("BEGIN").kind == "begin"

    def test_kind_tag_present(self):
        assert "stmt.select" in traits_of("SELECT 1").tags


class TestRelations:
    def test_from_tables_collected(self):
        traits = traits_of("SELECT a FROM t1, t2 WHERE a IN (SELECT b FROM t3)")
        assert traits.relations == {"t1", "t2", "t3"}

    def test_dml_target_collected(self):
        assert "t" in traits_of("INSERT INTO t VALUES (1)").relations
        assert "t" in traits_of("UPDATE t SET a = 1").relations

    def test_join_tables_collected(self):
        traits = traits_of("SELECT 1 FROM a LEFT OUTER JOIN b ON a.x = b.x")
        assert traits.relations == {"a", "b"}

    def test_case_insensitive(self):
        assert "mytable" in traits_of("SELECT 1 FROM MyTable").relations


class TestFeatureTags:
    def test_join_tags(self):
        assert "join.left" in traits_of("SELECT 1 FROM a LEFT JOIN b ON 1=1").tags
        assert "join.full" in traits_of("SELECT 1 FROM a FULL OUTER JOIN b ON 1=1").tags

    def test_set_op_tags(self):
        traits = traits_of("SELECT 1 UNION ALL SELECT 2")
        assert "set.union" in traits.tags and "set.union_all" in traits.tags

    def test_union_in_subquery_tag(self):
        traits = traits_of(
            "SELECT 1 FROM t WHERE a IN ((SELECT b FROM u) UNION (SELECT c FROM v))"
        )
        assert "set.union_in_subquery" in traits.tags
        assert "subquery.in" in traits.tags

    def test_top_level_union_is_not_subquery_union(self):
        traits = traits_of("SELECT 1 UNION SELECT 2")
        assert "set.union_in_subquery" not in traits.tags

    def test_function_and_aggregate_tags(self):
        traits = traits_of("SELECT UPPER(name), AVG(price) FROM t")
        assert "fn.UPPER" in traits.tags
        assert "agg.AVG" in traits.tags

    def test_operator_tags(self):
        assert "op.concat" in traits_of("SELECT a || b FROM t").tags
        assert "op.modulo" in traits_of("SELECT a % 2 FROM t").tags

    def test_clause_tags(self):
        traits = traits_of(
            "SELECT DISTINCT a FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY a LIMIT 1"
        )
        for tag in ("clause.distinct", "clause.group_by", "clause.having",
                    "clause.order_by", "clause.limit"):
            assert tag in traits.tags

    def test_type_tags_in_ddl(self):
        traits = traits_of("CREATE TABLE t (a VARCHAR2(10), b NUMBER(8,2))")
        assert "type.VARCHAR2" in traits.tags
        assert "type.NUMBER" in traits.tags

    def test_default_and_check_tags(self):
        traits = traits_of("CREATE TABLE t (a INTEGER DEFAULT 1 CHECK (a > 0))")
        assert "clause.default" in traits.tags
        assert "clause.check" in traits.tags

    def test_view_body_tags_propagate(self):
        traits = traits_of("CREATE VIEW v AS SELECT id FROM t UNION SELECT b FROM u")
        assert "view.union" in traits.tags

    def test_view_distinct_tag(self):
        traits = traits_of("CREATE VIEW v AS SELECT DISTINCT a FROM t")
        assert "view.distinct" in traits.tags

    def test_clustered_index_tag(self):
        traits = traits_of("CREATE CLUSTERED INDEX ix ON t (a)")
        assert "index.clustered" in traits.tags

    def test_case_tag(self):
        assert "clause.case" in traits_of("SELECT CASE WHEN 1=1 THEN 2 END").tags

    def test_subquery_tags(self):
        assert "subquery.exists" in traits_of(
            "SELECT 1 FROM t WHERE EXISTS (SELECT 1 FROM u)"
        ).tags
        assert "subquery.scalar" in traits_of("SELECT (SELECT MAX(a) FROM t)").tags
        assert "subquery.derived" in traits_of("SELECT x FROM (SELECT a x FROM t) d").tags

    def test_insert_select_walks_query(self):
        traits = traits_of("INSERT INTO t (a) SELECT b || 'x' FROM u")
        assert "op.concat" in traits.tags
        assert traits.relations == {"t", "u"}


class TestScriptTraits:
    def test_union_over_statements(self):
        statements = parse_script(
            "CREATE TABLE t (a TEXT); SELECT GEN_ID(a, 1) FROM t;"
        )
        traits = script_traits(statements)
        assert "type.TEXT" in traits.tags
        assert "fn.GEN_ID" in traits.tags
        assert traits.kind == "script"

    def test_has_helpers(self):
        traits = traits_of("SELECT a || b FROM t ORDER BY a")
        assert {"op.concat", "clause.order_by"} <= traits.tags
        assert not {"op.concat", "clause.limit"} <= traits.tags
        assert traits.has_any("clause.limit", "op.concat")
