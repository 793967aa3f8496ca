"""Query-rephrasing wrapper tests (Section 7's non-diverse alternative)."""

import pytest

from repro.errors import AdjudicationFailure, EngineCrash, SqlError
from repro.faults import ErrorEffect, FaultSpec, RelationTrigger, RowDropEffect, TagTrigger
from repro.middleware.rephrase import QueryRephraser, RephrasingWrapper
from repro.servers import make_server
from repro.sqlengine.lexer import split_statements
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.sqlgen import render_statement

EQUIVALENCE_QUERIES = [
    "SELECT id FROM product WHERE price >= 1 AND qty < 50 ORDER BY id",
    "SELECT id FROM product WHERE id IN (1, 3) ORDER BY id",
    "SELECT id FROM product WHERE id NOT IN (2, 4) ORDER BY id",
    "SELECT id FROM product WHERE price BETWEEN 0.30 AND 10 ORDER BY id",
    "SELECT id FROM product WHERE price NOT BETWEEN 0.30 AND 10 ORDER BY id",
    "SELECT id FROM product WHERE name <> 'nut' ORDER BY id",
    "SELECT id FROM product WHERE id IN "
    "((SELECT id FROM product WHERE qty > 50) UNION "
    "(SELECT id FROM product WHERE price > 10)) ORDER BY id",
    "SELECT id FROM product WHERE id NOT IN "
    "((SELECT id FROM product WHERE qty > 50) UNION "
    "(SELECT id FROM product WHERE price > 10)) ORDER BY id",
    "SELECT id FROM product WHERE qty > 50 OR price > 10 ORDER BY id",
]


class TestRephraserEquivalence:
    @pytest.mark.parametrize("sql", EQUIVALENCE_QUERIES)
    def test_rephrased_query_same_answer(self, seeded_engine, sql):
        rephrased = QueryRephraser().rephrase_sql(sql)
        original_rows = seeded_engine.execute(sql).rows
        rephrased_rows = seeded_engine.execute(rephrased).rows
        assert original_rows == rephrased_rows, rephrased

    def test_rephrasing_changes_the_shape(self):
        sql = ("SELECT id FROM t WHERE id NOT IN "
               "((SELECT a FROM u) UNION (SELECT b FROM v))")
        rephrased = QueryRephraser().rephrase_sql(sql)
        assert "UNION" not in rephrased
        assert "NOT IN" in rephrased and " AND " in rephrased

    def test_in_list_becomes_or_chain(self):
        rephrased = QueryRephraser().rephrase_sql("SELECT a FROM t WHERE a IN (1, 2)")
        assert "IN" not in rephrased.replace("INTO", "")
        assert "OR" in rephrased

    def test_between_becomes_comparisons(self):
        rephrased = QueryRephraser().rephrase_sql(
            "SELECT a FROM t WHERE a BETWEEN 1 AND 2"
        )
        assert "BETWEEN" not in rephrased
        assert ">=" in rephrased and "<=" in rephrased

    def test_input_ast_not_mutated(self):
        stmt = parse_statement("SELECT a FROM t WHERE a IN (1, 2)")
        before = render_statement(stmt)
        QueryRephraser().rephrase(stmt)
        assert render_statement(stmt) == before

    def test_non_select_rejected(self):
        with pytest.raises(SqlError):
            QueryRephraser().rephrase_sql("DELETE FROM t")

    def test_null_semantics_preserved(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER)")
        engine.execute("INSERT INTO t VALUES (1), (NULL)")
        for sql in [
            "SELECT COUNT(*) FROM t WHERE 2 NOT IN (SELECT a FROM t)",
            "SELECT COUNT(*) FROM t WHERE a IN (1, NULL)",
            "SELECT COUNT(*) FROM t WHERE a NOT BETWEEN 0 AND 0",
        ]:
            rephrased = QueryRephraser().rephrase_sql(sql)
            assert engine.execute(sql).rows == engine.execute(rephrased).rows, rephrased


class TestRephrasingWrapper:
    def _setup(self, faults=()):
        server = make_server("PG", list(faults))
        wrapper = RephrasingWrapper(server)
        wrapper.execute("CREATE TABLE items (id INTEGER PRIMARY KEY, qty INTEGER)")
        wrapper.execute("INSERT INTO items (id, qty) VALUES (1, 5), (2, 50), (3, 500)")
        return wrapper

    def test_healthy_server_passes_through(self):
        wrapper = self._setup()
        result = wrapper.execute("SELECT id FROM items WHERE qty BETWEEN 1 AND 100 ORDER BY id")
        assert result.rows == [(1,), (2,)]
        assert wrapper.stats.disagreements == 0

    def test_masks_syntax_shaped_error(self):
        # PG-43 style: the bug's failure region is the BETWEEN spelling.
        fault = FaultSpec(
            "F-SHAPE", "errors on BETWEEN",
            TagTrigger(required=["clause.between"]) & RelationTrigger(["items"]),
            ErrorEffect("parse error near BETWEEN"),
        )
        wrapper = self._setup([fault])
        result = wrapper.execute(
            "SELECT id FROM items WHERE qty BETWEEN 1 AND 100 ORDER BY id"
        )
        assert result.rows == [(1,), (2,)]  # rephrased spelling dodged it
        assert wrapper.stats.masked_errors == 1

    def test_detects_when_rephrased_spelling_errors(self):
        # A fault on the ORIGINAL IN-list spelling would be masked by
        # the rephrased OR chain; flipped, the fault fires on the
        # rephrased shape only, so the wrapper can detect but not mask.
        fault_flipped = FaultSpec(
            "F-OR2", "errors when OR used without IN",
            TagTrigger(forbidden=["clause.in_list"], required=["stmt.select"])
            & RelationTrigger(["items"]),
            ErrorEffect("boom"),
        )
        wrapper = self._setup([fault_flipped])
        with pytest.raises(AdjudicationFailure):
            wrapper.execute("SELECT id FROM items WHERE id IN (1, 2) ORDER BY id")

    def test_cannot_catch_data_shaped_bug(self):
        # The limit the paper implies: failure regions defined by the
        # data touched, not the spelling, need real diversity.
        fault = FaultSpec(
            "F-DATA", "drops rows from items",
            RelationTrigger(["items"], kind="select"),
            RowDropEffect(keep_one_in=2),
        )
        wrapper = self._setup([fault])
        result = wrapper.execute("SELECT id FROM items WHERE qty > 0 ORDER BY id")
        assert len(result.rows) < 3  # wrong both times, identically
        assert wrapper.stats.disagreements == 0

    def test_genuine_error_propagates(self):
        wrapper = self._setup()
        with pytest.raises(SqlError):
            wrapper.execute("SELECT missing_col FROM items WHERE id IN (1, 2)")

    def test_corpus_pg43_masked_by_rephrasing(self, corpus):
        """The actual PG-43 bug: its failure region is the UNION-nested
        NOT IN; distributing the UNION dodges it on PostgreSQL."""
        report = corpus.get("PG-43")
        server = make_server("PG", corpus.faults_for("PG"))
        wrapper = RephrasingWrapper(server)
        statements = split_statements(report.script)
        for statement in statements[:-1]:
            wrapper.execute(statement)
        result = wrapper.execute(statements[-1])
        assert wrapper.stats.masked_errors == 1
        # And the answer is the correct one (matches a pristine server).
        pristine = make_server("PG")
        for statement in statements[:-1]:
            pristine.execute(statement)
        expected = pristine.execute(statements[-1])
        assert result.rows == expected.rows

    def test_surfaces_under_a_tenth_of_home_failures(self, corpus):
        """Corpus-wide, rephrasing catches only the syntax-shaped tail:
        failures triggered by the data touched, crashes and wrong DDL
        semantics need genuinely diverse redundancy (Section 7)."""
        ran = surfaced = 0
        for report in corpus:
            if report.home_failure is None:
                continue
            ran += 1
            wrapper = RephrasingWrapper(
                make_server(report.reported_for, corpus.faults_for(report.reported_for))
            )
            detected = False
            for statement in split_statements(report.script):
                try:
                    wrapper.execute(statement)
                except AdjudicationFailure:
                    detected = True
                except (SqlError, EngineCrash):
                    continue
            surfaced += detected + wrapper.stats.masked_errors
        assert ran == 152
        assert 0 < surfaced < 15
        assert surfaced / ran < 0.10
