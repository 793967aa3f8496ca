"""SQL NULL semantics across the engine: the subtle corners where
products historically disagreed (and where bug scripts poke)."""

import pytest



@pytest.fixture
def nully(engine):
    engine.execute("CREATE TABLE n (k INTEGER, v INTEGER)")
    engine.execute(
        "INSERT INTO n (k, v) VALUES (1, 10), (2, NULL), (3, 10), (4, NULL), (5, 20)"
    )
    return engine


class TestNullGrouping:
    def test_group_by_groups_nulls_together(self, nully):
        result = nully.execute("SELECT v, COUNT(*) FROM n GROUP BY v ORDER BY 2 DESC")
        groups = dict(result.rows)
        assert groups[None] == 2
        assert groups[10] == 2
        assert groups[20] == 1

    def test_distinct_collapses_nulls(self, nully):
        result = nully.execute("SELECT DISTINCT v FROM n")
        values = [row[0] for row in result.rows]
        assert values.count(None) == 1
        assert len(values) == 3

    def test_union_collapses_nulls(self, nully):
        result = nully.execute("SELECT v FROM n UNION SELECT v FROM n")
        assert [row[0] for row in result.rows].count(None) == 1

    def test_count_column_vs_count_star(self, nully):
        result = nully.execute("SELECT COUNT(*), COUNT(v) FROM n")
        assert result.rows == [(5, 3)]

    def test_avg_ignores_nulls(self, nully):
        from decimal import Decimal

        avg = nully.execute("SELECT AVG(v) FROM n").rows[0][0]
        assert avg == Decimal("40") / 3


class TestNullPredicates:
    def test_equality_with_null_matches_nothing(self, nully):
        assert nully.execute("SELECT k FROM n WHERE v = NULL").rows == []
        assert nully.execute("SELECT k FROM n WHERE v <> NULL").rows == []

    def test_is_null(self, nully):
        rows = nully.execute("SELECT k FROM n WHERE v IS NULL ORDER BY k").rows
        assert rows == [(2,), (4,)]

    def test_where_not_condition_excludes_unknown(self, nully):
        # NOT (v = 10): UNKNOWN for NULL rows -> excluded from both sides.
        positive = nully.execute("SELECT COUNT(*) FROM n WHERE v = 10").rows[0][0]
        negative = nully.execute("SELECT COUNT(*) FROM n WHERE NOT v = 10").rows[0][0]
        assert positive == 2 and negative == 1
        assert positive + negative < 5  # the NULL rows vanish from both

    def test_null_in_join_condition_never_matches(self, nully):
        result = nully.execute(
            "SELECT x.k, y.k FROM n x JOIN n y ON x.v = y.v AND x.k < y.k"
        )
        # Only the two v=10 rows pair up; NULLs never join.
        assert result.rows == [(1, 3)]

    def test_null_ordering_stable(self, nully):
        ascending = [r[0] for r in nully.execute("SELECT v FROM n ORDER BY v, k").rows]
        assert ascending[-2:] == [None, None]

    def test_coalesce_in_where(self, nully):
        rows = nully.execute(
            "SELECT k FROM n WHERE COALESCE(v, 0) = 0 ORDER BY k"
        ).rows
        assert rows == [(2,), (4,)]


class TestNullArithmetic:
    def test_null_in_projection(self, nully):
        result = nully.execute("SELECT k, v + 1 FROM n WHERE k = 2")
        assert result.rows == [(2, None)]

    def test_sum_with_some_nulls(self, nully):
        assert nully.execute("SELECT SUM(v) FROM n").rows[0][0] == 40

    def test_scalar_subquery_null_propagates(self, nully):
        result = nully.execute(
            "SELECT (SELECT v FROM n WHERE k = 2) + 5"
        )
        assert result.rows == [(None,)]

    def test_update_to_null_then_aggregate(self, nully):
        nully.execute("UPDATE n SET v = NULL WHERE v = 20")
        assert nully.execute("SELECT MAX(v) FROM n").rows[0][0] == 10
