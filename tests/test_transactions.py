"""Transaction semantics: rollback-and-retry is the baseline fault
tolerance the paper contrasts diversity against."""

import pytest

from repro.errors import TransactionError


class TestBasicTransactions:
    def test_commit_keeps_changes(self, seeded_engine):
        seeded_engine.execute("BEGIN")
        seeded_engine.execute("DELETE FROM product WHERE id = 1")
        seeded_engine.execute("COMMIT")
        assert seeded_engine.execute("SELECT COUNT(*) FROM product").rows[0][0] == 3

    def test_rollback_restores_deletes(self, seeded_engine):
        seeded_engine.execute("BEGIN")
        seeded_engine.execute("DELETE FROM product")
        seeded_engine.execute("ROLLBACK")
        assert seeded_engine.execute("SELECT COUNT(*) FROM product").rows[0][0] == 4

    def test_rollback_restores_updates(self, seeded_engine):
        seeded_engine.execute("BEGIN")
        seeded_engine.execute("UPDATE product SET qty = 0")
        seeded_engine.execute("ROLLBACK")
        assert seeded_engine.execute("SELECT SUM(qty) FROM product").rows[0][0] == 187

    def test_rollback_removes_inserts(self, seeded_engine):
        seeded_engine.execute("BEGIN")
        seeded_engine.execute("INSERT INTO product (id, name) VALUES (10, 'x')")
        seeded_engine.execute("ROLLBACK")
        assert seeded_engine.execute("SELECT COUNT(*) FROM product").rows[0][0] == 4

    def test_rollback_undoes_ddl(self, seeded_engine):
        seeded_engine.execute("BEGIN")
        seeded_engine.execute("CREATE TABLE temp_t (a INTEGER)")
        seeded_engine.execute("ROLLBACK")
        assert not seeded_engine.catalog.has_table("temp_t")

    def test_rollback_restores_dropped_table(self, seeded_engine):
        seeded_engine.execute("BEGIN")
        seeded_engine.execute("DROP TABLE product")
        seeded_engine.execute("ROLLBACK")
        assert seeded_engine.execute("SELECT COUNT(*) FROM product").rows[0][0] == 4

    def test_autocommit_outside_transaction(self, seeded_engine):
        seeded_engine.execute("DELETE FROM product WHERE id = 1")
        with pytest.raises(TransactionError):
            seeded_engine.execute("ROLLBACK")

    def test_nested_begin_rejected(self, engine):
        engine.execute("BEGIN")
        with pytest.raises(TransactionError):
            engine.execute("BEGIN")

    def test_commit_without_begin_rejected(self, engine):
        with pytest.raises(TransactionError):
            engine.execute("COMMIT")

    def test_changes_visible_within_transaction(self, seeded_engine):
        seeded_engine.execute("BEGIN")
        seeded_engine.execute("UPDATE product SET qty = 1 WHERE id = 1")
        assert seeded_engine.execute("SELECT qty FROM product WHERE id = 1").rows[0][0] == 1
        seeded_engine.execute("ROLLBACK")


class TestSavepoints:
    def test_rollback_to_savepoint_partial(self, seeded_engine):
        seeded_engine.execute("BEGIN")
        seeded_engine.execute("DELETE FROM product WHERE id = 1")
        seeded_engine.execute("SAVEPOINT sp1")
        seeded_engine.execute("DELETE FROM product WHERE id = 2")
        seeded_engine.execute("ROLLBACK TO SAVEPOINT sp1")
        seeded_engine.execute("COMMIT")
        ids = [r[0] for r in seeded_engine.execute("SELECT id FROM product ORDER BY id").rows]
        assert ids == [2, 3, 4]

    def test_unknown_savepoint_rejected(self, engine):
        engine.execute("BEGIN")
        with pytest.raises(TransactionError):
            engine.execute("ROLLBACK TO SAVEPOINT ghost")

    def test_savepoint_requires_transaction(self, engine):
        with pytest.raises(TransactionError):
            engine.execute("SAVEPOINT sp1")

    def test_later_savepoints_invalidated(self, seeded_engine):
        seeded_engine.execute("BEGIN")
        seeded_engine.execute("SAVEPOINT a")
        seeded_engine.execute("DELETE FROM product WHERE id = 1")
        seeded_engine.execute("SAVEPOINT b")
        seeded_engine.execute("ROLLBACK TO SAVEPOINT a")
        with pytest.raises(TransactionError):
            seeded_engine.execute("ROLLBACK TO SAVEPOINT b")
        seeded_engine.execute("ROLLBACK")

    def test_savepoint_then_full_rollback(self, seeded_engine):
        seeded_engine.execute("BEGIN")
        seeded_engine.execute("SAVEPOINT sp1")
        seeded_engine.execute("DELETE FROM product")
        seeded_engine.execute("ROLLBACK")
        assert seeded_engine.execute("SELECT COUNT(*) FROM product").rows[0][0] == 4


class TestCrashInteraction:
    def test_crash_aborts_open_transaction(self):
        from repro.faults import CrashEffect, FaultInjector, FaultSpec, TagTrigger
        from repro.sqlengine import Engine
        from repro.errors import EngineCrash

        injector = FaultInjector(
            [
                FaultSpec(
                    "crash-on-groupby",
                    "crash",
                    TagTrigger(required=["clause.group_by"]),
                    CrashEffect(),
                )
            ],
        )
        engine = Engine("t", injector=injector)
        engine.execute("CREATE TABLE t (a INTEGER)")
        engine.execute("INSERT INTO t VALUES (1)")
        engine.execute("BEGIN")
        engine.execute("DELETE FROM t")
        with pytest.raises(EngineCrash):
            engine.execute("SELECT a, COUNT(*) FROM t GROUP BY a")
        engine.restart()
        # The open transaction was rolled back by the crash.
        assert engine.execute("SELECT COUNT(*) FROM t").rows[0][0] == 1
