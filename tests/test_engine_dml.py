"""DML execution: INSERT/UPDATE/DELETE, constraints, defaults."""

from decimal import Decimal

import pytest

from repro.errors import CatalogError, ConstraintViolation, SqlError, TypeMismatch


class TestInsert:
    def test_insert_rowcount(self, seeded_engine):
        result = seeded_engine.execute(
            "INSERT INTO product (id, name) VALUES (10, 'a'), (11, 'b')"
        )
        assert result.rowcount == 2

    def test_insert_without_column_list(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER, b VARCHAR(5))")
        engine.execute("INSERT INTO t VALUES (1, 'x')")
        assert engine.execute("SELECT * FROM t").rows == [(1, "x")]

    def test_missing_columns_get_null(self, seeded_engine):
        seeded_engine.execute("INSERT INTO product (id, name) VALUES (10, 'a')")
        row = seeded_engine.execute("SELECT price, qty FROM product WHERE id = 10").rows[0]
        assert row == (None, None)

    def test_width_mismatch_raises(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        with pytest.raises(SqlError):
            engine.execute("INSERT INTO t (a, b) VALUES (1)")

    def test_values_cast_to_column_type(self, engine):
        engine.execute("CREATE TABLE t (a NUMERIC(6,2))")
        engine.execute("INSERT INTO t VALUES ('3.456')")
        assert engine.execute("SELECT a FROM t").rows[0][0] == Decimal("3.46")

    def test_string_into_int_rejected(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(TypeMismatch):
            engine.execute("INSERT INTO t VALUES ('ABC')")

    def test_insert_select(self, seeded_engine):
        seeded_engine.execute("CREATE TABLE archive (id INTEGER, name VARCHAR(30))")
        result = seeded_engine.execute(
            "INSERT INTO archive (id, name) SELECT id, name FROM product WHERE qty > 50"
        )
        assert result.rowcount == 2

    def test_insert_into_view_rejected(self, seeded_engine):
        seeded_engine.execute("CREATE VIEW v AS SELECT id FROM product")
        with pytest.raises(CatalogError):
            seeded_engine.execute("INSERT INTO v (id) VALUES (99)")

    def test_duplicate_column_in_insert_rejected(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(SqlError):
            engine.execute("INSERT INTO t (a, a) VALUES (1, 2)")

    def test_multi_row_insert_atomic_on_constraint_failure(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (1), (1)")
        assert engine.execute("SELECT COUNT(*) FROM t").rows[0][0] == 0


class TestConstraints:
    def test_primary_key_uniqueness(self, seeded_engine):
        with pytest.raises(ConstraintViolation):
            seeded_engine.execute("INSERT INTO product (id, name) VALUES (1, 'dup')")

    def test_primary_key_not_null(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (NULL)")

    def test_composite_primary_key(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a, b))")
        engine.execute("INSERT INTO t VALUES (1, 1), (1, 2)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (1, 2)")

    def test_not_null(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER NOT NULL)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (NULL)")

    def test_check_constraint_on_column(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER CHECK (a > 0))")
        engine.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (-1)")

    def test_check_constraint_null_passes(self, engine):
        # SQL: CHECK is satisfied unless it evaluates to FALSE.
        engine.execute("CREATE TABLE t (a INTEGER CHECK (a > 0))")
        engine.execute("INSERT INTO t VALUES (NULL)")
        assert engine.execute("SELECT COUNT(*) FROM t").rows[0][0] == 1

    def test_table_level_check(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER, b INTEGER, CHECK (a < b))")
        engine.execute("INSERT INTO t VALUES (1, 2)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (2, 1)")

    def test_unique_column_allows_nulls(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER UNIQUE)")
        engine.execute("INSERT INTO t VALUES (NULL), (NULL)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (1), (1)")

    def test_unique_index_enforced(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER)")
        engine.execute("CREATE UNIQUE INDEX ix_a ON t (a)")
        engine.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (1)")


class TestDefaults:
    def test_default_applied(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER, b INTEGER DEFAULT 7)")
        engine.execute("INSERT INTO t (a) VALUES (1)")
        assert engine.execute("SELECT b FROM t").rows[0][0] == 7

    def test_default_string(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER, b VARCHAR(5) DEFAULT 'none')")
        engine.execute("INSERT INTO t (a) VALUES (1)")
        assert engine.execute("SELECT b FROM t").rows[0][0] == "none"

    def test_wrong_type_default_rejected_at_create(self, engine):
        # SQL-92 conformant behaviour (bug 217042 is this check skipped).
        with pytest.raises(TypeMismatch):
            engine.execute("CREATE TABLE t (a INTEGER DEFAULT 'ABC')")

    def test_numeric_string_default_allowed(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER DEFAULT '5')")
        engine.execute("INSERT INTO t (a) VALUES (1)")


class TestUpdate:
    def test_update_rowcount_and_values(self, seeded_engine):
        result = seeded_engine.execute("UPDATE product SET qty = qty + 1 WHERE qty > 50")
        assert result.rowcount == 2
        assert seeded_engine.execute(
            "SELECT qty FROM product WHERE id = 3"
        ).rows[0][0] == 101

    def test_update_all_rows(self, seeded_engine):
        assert seeded_engine.execute("UPDATE product SET qty = 0").rowcount == 4

    def test_update_casts_value(self, seeded_engine):
        seeded_engine.execute("UPDATE product SET price = '5.555' WHERE id = 1")
        assert seeded_engine.execute(
            "SELECT price FROM product WHERE id = 1"
        ).rows[0][0] == Decimal("5.56")

    def test_update_respects_pk(self, seeded_engine):
        with pytest.raises(ConstraintViolation):
            seeded_engine.execute("UPDATE product SET id = 2 WHERE id = 1")

    def test_update_respects_not_null(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER NOT NULL)")
        engine.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintViolation):
            engine.execute("UPDATE t SET a = NULL")

    def test_update_uses_old_row_values(self, seeded_engine):
        seeded_engine.execute("UPDATE product SET qty = qty * 2, price = price WHERE id = 2")
        assert seeded_engine.execute("SELECT qty FROM product WHERE id = 2").rows[0][0] == 4

    def test_update_view_rejected(self, seeded_engine):
        seeded_engine.execute("CREATE VIEW v AS SELECT id FROM product")
        with pytest.raises(CatalogError):
            seeded_engine.execute("UPDATE v SET id = 1")


class TestDelete:
    def test_delete_with_where(self, seeded_engine):
        result = seeded_engine.execute("DELETE FROM product WHERE qty < 10")
        assert result.rowcount == 2
        assert seeded_engine.execute("SELECT COUNT(*) FROM product").rows[0][0] == 2

    def test_delete_all(self, seeded_engine):
        assert seeded_engine.execute("DELETE FROM product").rowcount == 4

    def test_delete_nothing(self, seeded_engine):
        assert seeded_engine.execute("DELETE FROM product WHERE id = 99").rowcount == 0

    def test_delete_with_subquery(self, seeded_engine):
        seeded_engine.execute(
            "DELETE FROM product WHERE id IN (SELECT id FROM product WHERE qty > 50)"
        )
        assert seeded_engine.execute("SELECT COUNT(*) FROM product").rows[0][0] == 2
