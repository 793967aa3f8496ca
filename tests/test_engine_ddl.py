"""DDL execution: tables, views, indexes, ALTER, drop semantics."""

import pytest

from repro.errors import CatalogError, ConstraintViolation, SqlError


class TestCreateTable:
    def test_create_and_query(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER)")
        assert engine.execute("SELECT COUNT(*) FROM t").rows[0][0] == 0

    def test_duplicate_table_rejected(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(CatalogError):
            engine.execute("CREATE TABLE t (b INTEGER)")

    def test_duplicate_column_rejected(self, engine):
        with pytest.raises(CatalogError):
            engine.execute("CREATE TABLE t (a INTEGER, a VARCHAR(5))")

    def test_table_and_view_share_namespace(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER)")
        engine.execute("CREATE VIEW v AS SELECT a FROM t")
        with pytest.raises(CatalogError):
            engine.execute("CREATE TABLE v (x INTEGER)")

    def test_two_primary_keys_rejected(self, engine):
        with pytest.raises(SqlError):
            engine.execute(
                "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, PRIMARY KEY (b))"
            )

    def test_pk_over_missing_column_rejected(self, engine):
        with pytest.raises(CatalogError):
            engine.execute("CREATE TABLE t (a INTEGER, PRIMARY KEY (zzz))")


class TestViews:
    def test_view_reflects_underlying_data(self, seeded_engine):
        seeded_engine.execute("CREATE VIEW cheap AS SELECT id FROM product WHERE price < 1")
        assert len(seeded_engine.execute("SELECT * FROM cheap").rows) == 2
        seeded_engine.execute("INSERT INTO product (id, name, price) VALUES (9, 'pin', 0.05)")
        assert len(seeded_engine.execute("SELECT * FROM cheap").rows) == 3

    def test_view_column_renames(self, seeded_engine):
        seeded_engine.execute("CREATE VIEW v (pid, pname) AS SELECT id, name FROM product")
        result = seeded_engine.execute("SELECT pid FROM v WHERE pname = 'nut'")
        assert result.rows == [(3,)]

    def test_view_column_count_mismatch_rejected(self, seeded_engine):
        with pytest.raises(CatalogError):
            seeded_engine.execute("CREATE VIEW v (a, b, c) AS SELECT id FROM product")

    def test_view_over_missing_table_rejected(self, engine):
        with pytest.raises(CatalogError):
            engine.execute("CREATE VIEW v AS SELECT x FROM nothing")

    def test_view_over_view(self, seeded_engine):
        seeded_engine.execute("CREATE VIEW v1 AS SELECT id, qty FROM product")
        seeded_engine.execute("CREATE VIEW v2 AS SELECT id FROM v1 WHERE qty > 50")
        assert len(seeded_engine.execute("SELECT * FROM v2").rows) == 2

    def test_view_with_distinct_flag(self, seeded_engine):
        seeded_engine.execute("CREATE VIEW v AS SELECT DISTINCT name FROM product")
        assert seeded_engine.catalog.view("v").has_distinct

    def test_drop_view(self, seeded_engine):
        seeded_engine.execute("CREATE VIEW v AS SELECT id FROM product")
        seeded_engine.execute("DROP VIEW v")
        with pytest.raises(CatalogError):
            seeded_engine.execute("SELECT * FROM v")


class TestDropSemantics:
    """SQL-92 drop rules — the ones Interbase bug 223512 violates."""

    def test_drop_table_on_view_rejected(self, seeded_engine):
        seeded_engine.execute("CREATE VIEW v AS SELECT id FROM product")
        with pytest.raises(CatalogError):
            seeded_engine.execute("DROP TABLE v")
        # The view survives.
        assert seeded_engine.execute("SELECT COUNT(*) FROM v").rows[0][0] == 4

    def test_drop_view_on_table_rejected(self, seeded_engine):
        with pytest.raises(CatalogError):
            seeded_engine.execute("DROP VIEW product")

    def test_drop_table_removes_data_and_indexes(self, seeded_engine):
        seeded_engine.execute("CREATE INDEX ix ON product (name)")
        seeded_engine.execute("DROP TABLE product")
        with pytest.raises(CatalogError):
            seeded_engine.execute("SELECT 1 FROM product")
        with pytest.raises(CatalogError):
            seeded_engine.execute("DROP INDEX ix")

    def test_drop_missing_table(self, engine):
        with pytest.raises(CatalogError):
            engine.execute("DROP TABLE ghost")


class TestIndexes:
    def test_create_index(self, seeded_engine):
        seeded_engine.execute("CREATE INDEX ix ON product (name)")
        assert seeded_engine.catalog.index("ix").columns == ["name"]

    def test_duplicate_index_name_rejected(self, seeded_engine):
        seeded_engine.execute("CREATE INDEX ix ON product (name)")
        with pytest.raises(CatalogError):
            seeded_engine.execute("CREATE INDEX ix ON product (qty)")

    def test_index_on_missing_column_rejected(self, seeded_engine):
        with pytest.raises(CatalogError):
            seeded_engine.execute("CREATE INDEX ix ON product (ghost)")

    def test_unique_index_validates_existing_rows(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER)")
        engine.execute("INSERT INTO t VALUES (1), (1)")
        with pytest.raises(ConstraintViolation):
            engine.execute("CREATE UNIQUE INDEX ix ON t (a)")

    def test_clustered_index_metadata(self, seeded_engine):
        seeded_engine.execute("CREATE CLUSTERED INDEX cx ON product (id)")
        assert seeded_engine.catalog.index("cx").clustered

    def test_drop_index(self, seeded_engine):
        seeded_engine.execute("CREATE INDEX ix ON product (name)")
        seeded_engine.execute("DROP INDEX ix")
        with pytest.raises(CatalogError):
            seeded_engine.catalog.index("ix")


class TestAlterTable:
    def test_add_column_with_default_backfills(self, seeded_engine):
        seeded_engine.execute("ALTER TABLE product ADD COLUMN origin VARCHAR(10) DEFAULT 'uk'")
        assert seeded_engine.execute(
            "SELECT origin FROM product WHERE id = 1"
        ).rows[0][0] == "uk"

    def test_add_column_without_default_backfills_null(self, seeded_engine):
        seeded_engine.execute("ALTER TABLE product ADD COLUMN extra INTEGER")
        assert seeded_engine.execute(
            "SELECT extra FROM product WHERE id = 1"
        ).rows[0][0] is None

    def test_add_not_null_without_default_rejected_when_rows_exist(self, seeded_engine):
        with pytest.raises(ConstraintViolation):
            seeded_engine.execute("ALTER TABLE product ADD COLUMN must INTEGER NOT NULL")

    def test_add_duplicate_column_rejected(self, seeded_engine):
        with pytest.raises(CatalogError):
            seeded_engine.execute("ALTER TABLE product ADD COLUMN name VARCHAR(5)")

    def test_new_column_usable_in_queries(self, seeded_engine):
        seeded_engine.execute("ALTER TABLE product ADD COLUMN score INTEGER DEFAULT 3")
        assert seeded_engine.execute(
            "SELECT SUM(score) FROM product"
        ).rows[0][0] == 12
