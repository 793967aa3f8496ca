"""SELECT execution tests against a seeded engine."""

from decimal import Decimal

import pytest

from repro.errors import BindError, CatalogError, TypeMismatch


def rows(engine, sql):
    return engine.execute(sql).rows


class TestProjectionAndFilter:
    def test_select_star_order(self, seeded_engine):
        result = seeded_engine.execute("SELECT * FROM product ORDER BY id")
        assert result.columns == ["id", "name", "price", "qty"]
        assert result.rows[0] == (1, "widget", Decimal("9.50"), 5)

    def test_where_filters(self, seeded_engine):
        assert rows(seeded_engine, "SELECT id FROM product WHERE price > 1 ORDER BY id") == [
            (1,),
            (2,),
        ]

    def test_where_unknown_filters_out(self, seeded_engine):
        seeded_engine.execute("INSERT INTO product (id, name) VALUES (9, 'ghost')")
        assert (9,) not in rows(
            seeded_engine, "SELECT id FROM product WHERE price > 0"
        )

    def test_expression_projection(self, seeded_engine):
        result = seeded_engine.execute("SELECT id * 10 + 1 FROM product WHERE id = 2")
        assert result.rows == [(21,)]

    def test_string_comparison_coercion(self, seeded_engine):
        # The permissive PRICE >= '9.00' idiom used by the bug corpus.
        assert rows(
            seeded_engine,
            "SELECT id FROM product WHERE price >= '9.00' ORDER BY id",
        ) == [(1,), (2,)]

    def test_column_alias_in_output(self, seeded_engine):
        result = seeded_engine.execute("SELECT id AS product_id FROM product WHERE id = 1")
        assert result.columns == ["product_id"]

    def test_unknown_column_raises(self, seeded_engine):
        with pytest.raises(BindError):
            seeded_engine.execute("SELECT nonexistent FROM product")

    def test_unknown_table_raises(self, seeded_engine):
        with pytest.raises(CatalogError):
            seeded_engine.execute("SELECT 1 FROM missing_table")

    def test_ambiguous_column_raises(self, seeded_engine):
        with pytest.raises(BindError):
            seeded_engine.execute("SELECT id FROM product a, product b")

    def test_qualified_disambiguation(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT a.id FROM product a, product b WHERE a.id = 1 AND b.id = 2"
        )
        assert result.rows == [(1,)]

    def test_select_without_from(self, engine):
        assert engine.execute("SELECT 1 + 2").rows == [(3,)]

    def test_in_list(self, seeded_engine):
        assert rows(
            seeded_engine, "SELECT id FROM product WHERE id IN (1, 3) ORDER BY id"
        ) == [(1,), (3,)]

    def test_between(self, seeded_engine):
        assert rows(
            seeded_engine,
            "SELECT id FROM product WHERE price BETWEEN 0.30 AND 10 ORDER BY id",
        ) == [(1,), (4,)]

    def test_like(self, seeded_engine):
        assert rows(seeded_engine, "SELECT name FROM product WHERE name LIKE '%dget'") == [
            ("widget",),
            ("gadget",),
        ]

    def test_case_expression(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT CASE WHEN qty > 50 THEN 'bulk' ELSE 'unit' END FROM product ORDER BY id"
        )
        assert [r[0] for r in result.rows] == ["unit", "unit", "bulk", "bulk"]


class TestJoins:
    @pytest.fixture(autouse=True)
    def _extra(self, seeded_engine):
        seeded_engine.execute(
            "CREATE TABLE stock_info (product_id INTEGER, location VARCHAR(10))"
        )
        seeded_engine.execute(
            "INSERT INTO stock_info (product_id, location) VALUES "
            "(1, 'north'), (1, 'south'), (3, 'north')"
        )
        self.engine = seeded_engine

    def test_inner_join(self):
        result = self.engine.execute(
            "SELECT p.name, s.location FROM product p "
            "JOIN stock_info s ON p.id = s.product_id ORDER BY p.id, s.location"
        )
        assert result.rows == [
            ("widget", "north"),
            ("widget", "south"),
            ("nut", "north"),
        ]

    def test_self_join_on_the_key_pairs_each_row_with_itself(self):
        result = self.engine.execute(
            "SELECT a.id FROM product a JOIN product b ON a.id = b.id WHERE a.id < 3"
        )
        assert result.rowcount == 2

    def test_left_outer_join_pads_nulls(self):
        result = self.engine.execute(
            "SELECT p.id, s.location FROM product p "
            "LEFT OUTER JOIN stock_info s ON p.id = s.product_id ORDER BY p.id"
        )
        assert (2, None) in result.rows
        assert (4, None) in result.rows
        assert len(result.rows) == 5

    def test_right_outer_join(self):
        self.engine.execute("INSERT INTO stock_info (product_id, location) VALUES (99, 'west')")
        result = self.engine.execute(
            "SELECT p.id, s.location FROM product p "
            "RIGHT OUTER JOIN stock_info s ON p.id = s.product_id"
        )
        assert (None, "west") in result.rows

    def test_full_outer_join(self):
        self.engine.execute("INSERT INTO stock_info (product_id, location) VALUES (99, 'west')")
        result = self.engine.execute(
            "SELECT p.id, s.location FROM product p "
            "FULL OUTER JOIN stock_info s ON p.id = s.product_id"
        )
        assert (None, "west") in result.rows
        assert (2, None) in result.rows

    def test_cross_join_cardinality(self):
        result = self.engine.execute("SELECT 1 FROM product CROSS JOIN stock_info")
        assert len(result.rows) == 4 * 3

    def test_join_condition_with_expression(self):
        result = self.engine.execute(
            "SELECT a.id, b.id FROM product a JOIN product b ON a.id = b.id - 1 "
            "ORDER BY a.id"
        )
        assert result.rows == [(1, 2), (2, 3), (3, 4)]


class TestAggregation:
    def test_count_star(self, seeded_engine):
        assert seeded_engine.execute("SELECT COUNT(*) FROM product").rows[0][0] == 4

    def test_count_column_skips_nulls(self, seeded_engine):
        seeded_engine.execute("INSERT INTO product (id, name) VALUES (9, 'x')")
        assert seeded_engine.execute("SELECT COUNT(price) FROM product").rows[0][0] == 4

    def test_sum_avg_min_max(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT SUM(qty), AVG(qty), MIN(qty), MAX(qty) FROM product"
        )
        total, avg, low, high = result.rows[0]
        assert total == 187
        assert avg == Decimal("46.75")
        assert (low, high) == (2, 100)

    def test_aggregates_on_empty_table(self, engine):
        engine.execute("CREATE TABLE empty_t (a INTEGER)")
        result = engine.execute("SELECT COUNT(*), SUM(a), MIN(a) FROM empty_t")
        assert result.rows == [(0, None, None)]

    def test_group_by(self, seeded_engine):
        seeded_engine.execute(
            "INSERT INTO product (id, name, price, qty) VALUES (5, 'nut', 0.30, 7)"
        )
        result = seeded_engine.execute(
            "SELECT name, COUNT(*), SUM(qty) FROM product GROUP BY name ORDER BY name"
        )
        assert ("nut", 2, 107) in result.rows
        assert len(result.rows) == 4

    def test_having_filters_groups(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT name FROM product GROUP BY name HAVING COUNT(*) >= 1 AND MAX(qty) > 50"
        )
        assert sorted(r[0] for r in result.rows) == ["bolt", "nut"]

    def test_count_distinct(self, seeded_engine):
        seeded_engine.execute(
            "INSERT INTO product (id, name, price, qty) VALUES (5, 'nut', 1.00, 1)"
        )
        assert (
            seeded_engine.execute("SELECT COUNT(DISTINCT name) FROM product").rows[0][0] == 4
        )

    def test_group_by_expression(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT qty > 50, COUNT(*) FROM product GROUP BY qty > 50 ORDER BY 2"
        )
        assert sorted(r[1] for r in result.rows) == [2, 2]

    def test_aggregate_names_default(self, seeded_engine):
        result = seeded_engine.execute("SELECT AVG(price), SUM(price) FROM product")
        assert result.columns == ["AVG", "SUM"]


class TestDistinctOrderLimit:
    def test_distinct(self, seeded_engine):
        seeded_engine.execute(
            "INSERT INTO product (id, name, price, qty) VALUES (5, 'nut', 9.99, 1)"
        )
        result = seeded_engine.execute("SELECT DISTINCT name FROM product")
        assert len(result.rows) == 4

    def test_order_by_desc(self, seeded_engine):
        result = seeded_engine.execute("SELECT id FROM product ORDER BY price DESC")
        assert [r[0] for r in result.rows] == [2, 1, 4, 3]

    def test_order_by_ordinal(self, seeded_engine):
        result = seeded_engine.execute("SELECT name, price FROM product ORDER BY 2")
        assert result.rows[0][0] == "nut"

    def test_order_by_expression(self, seeded_engine):
        result = seeded_engine.execute("SELECT id FROM product ORDER BY qty * price DESC")
        assert result.rows[0] == (1,)  # widget: 5 * 9.50 = 47.50 is the largest

    def test_order_by_nulls_last_ascending(self, seeded_engine):
        seeded_engine.execute("INSERT INTO product (id, name) VALUES (9, 'noprice')")
        result = seeded_engine.execute("SELECT id FROM product ORDER BY price")
        assert result.rows[-1] == (9,)

    def test_order_by_nulls_first_descending(self, seeded_engine):
        seeded_engine.execute("INSERT INTO product (id, name) VALUES (9, 'noprice')")
        result = seeded_engine.execute("SELECT id FROM product ORDER BY price DESC")
        assert result.rows[0] == (9,)

    def test_limit(self, seeded_engine):
        result = seeded_engine.execute("SELECT id FROM product ORDER BY id LIMIT 2")
        assert result.rows == [(1,), (2,)]

    def test_order_by_bad_ordinal(self, seeded_engine):
        with pytest.raises(BindError):
            seeded_engine.execute("SELECT id FROM product ORDER BY 5")


class TestSetOperations:
    def test_union_removes_duplicates(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT id FROM product UNION SELECT id FROM product ORDER BY id"
        )
        assert result.rows == [(1,), (2,), (3,), (4,)]

    def test_union_all_keeps_duplicates(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT id FROM product UNION ALL SELECT id FROM product"
        )
        assert len(result.rows) == 8

    def test_intersect(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT id FROM product WHERE id < 3 INTERSECT SELECT id FROM product WHERE id > 1"
        )
        assert result.rows == [(2,)]

    def test_except(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT id FROM product EXCEPT SELECT id FROM product WHERE id > 2 ORDER BY id"
        )
        assert result.rows == [(1,), (2,)]

    def test_mismatched_arity_raises(self, seeded_engine):
        with pytest.raises(TypeMismatch):
            seeded_engine.execute("SELECT id FROM product UNION SELECT id, name FROM product")

    def test_union_column_names_from_left(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT id AS left_name FROM product UNION SELECT qty FROM product"
        )
        assert result.columns == ["left_name"]


class TestSubqueries:
    def test_in_subquery(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT name FROM product WHERE id IN (SELECT id FROM product WHERE qty > 50)"
        )
        assert sorted(r[0] for r in result.rows) == ["bolt", "nut"]

    def test_not_in_with_union_subquery(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT id FROM product WHERE id NOT IN "
            "((SELECT id FROM product WHERE qty > 50) UNION "
            "(SELECT id FROM product WHERE price > 10)) ORDER BY id"
        )
        assert result.rows == [(1,)]

    def test_correlated_exists(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT p.name FROM product p WHERE EXISTS "
            "(SELECT 1 FROM product q WHERE q.id = p.id + 1 AND q.price < p.price)"
        )
        # Only gadget (20.00) is followed by a cheaper product (nut, 0.25).
        assert sorted(r[0] for r in result.rows) == ["gadget"]

    def test_scalar_subquery(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT name FROM product WHERE price = (SELECT MAX(price) FROM product)"
        )
        assert result.rows == [("gadget",)]

    def test_scalar_subquery_multiple_rows_raises(self, seeded_engine):
        with pytest.raises(TypeMismatch):
            seeded_engine.execute("SELECT (SELECT id FROM product)")

    def test_empty_scalar_subquery_is_null(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT (SELECT id FROM product WHERE id = 99)"
        )
        assert result.rows == [(None,)]

    def test_not_in_with_null_candidate_is_unknown(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER)")
        engine.execute("INSERT INTO t VALUES (1), (NULL)")
        # x NOT IN (1, NULL) is UNKNOWN for x != 1 -> no rows.
        result = engine.execute("SELECT a FROM t WHERE 2 NOT IN (SELECT a FROM t)")
        assert result.rows == []

    def test_derived_table(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT big.name FROM (SELECT name, qty FROM product WHERE qty > 50) big "
            "ORDER BY big.qty DESC"
        )
        assert result.rows == [("nut",), ("bolt",)]
