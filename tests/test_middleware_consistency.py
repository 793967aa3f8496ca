"""Replica state consistency and transactional behaviour of the
diverse middleware."""

import pytest

from repro.errors import FeatureNotSupported, SqlError
from repro.faults import CrashEffect, FaultSpec, RelationTrigger
from repro.middleware import DiverseServer, ReplicaState, ServerConfig
from repro.servers import make_server


def build_pair(**kwargs):
    return DiverseServer([make_server("IB"), make_server("OR")], **kwargs)


class TestVerifyConsistency:
    def test_consistent_after_writes(self):
        server = build_pair()
        server.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10))")
        server.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        server.execute("UPDATE t SET b = 'z' WHERE a = 1")
        server.execute("DELETE FROM t WHERE a = 2")
        assert server.verify_consistency() == {}

    def test_detects_divergence(self):
        server = build_pair()
        server.execute("CREATE TABLE t (a INTEGER)")
        server.execute("INSERT INTO t VALUES (1)")
        # Tamper with one replica behind the middleware's back.
        server.replicas[1].product.execute("INSERT INTO t VALUES (99)")
        disagreements = server.verify_consistency()
        assert disagreements == {"t": ["OR"]}

    def test_consistent_after_crash_recovery(self):
        fault = FaultSpec(
            "F-CRASH", "crash once on t selects",
            RelationTrigger(["t"], kind="select"), CrashEffect(),
        )
        faulty = make_server("IB", [fault])
        server = DiverseServer(
            [faulty, make_server("OR"), make_server("MS")],
            adjudication="majority", auto_recover=False,
        )
        server.execute("CREATE TABLE t (a INTEGER)")
        server.execute("INSERT INTO t VALUES (1), (2)")
        server.execute("SELECT a FROM t ORDER BY a")  # IB crashes
        assert server.replica("IB").state is ReplicaState.FAILED
        faulty.injector.remove("F-CRASH")
        server.recover("IB")
        assert server.verify_consistency() == {}

    def test_missing_table_on_replica_detected(self):
        server = build_pair()
        server.execute("CREATE TABLE t (a INTEGER)")
        server.replicas[1].product.execute("DROP TABLE t")
        assert "t" in server.verify_consistency()

    def test_single_active_replica_trivially_consistent(self):
        server = build_pair(auto_recover=False)
        server.execute("CREATE TABLE t (a INTEGER)")
        server.replicas[1].state = ReplicaState.FAILED
        assert server.verify_consistency() == {}


class TestDialectRefusalIsAtomic:
    """A write one replica's dialect refuses is refused before any
    replica applies it (OR lacks ``CHAR_LENGTH``; IB and PG have it)."""

    @pytest.mark.parametrize("adjudication", ["majority", "primary"])
    @pytest.mark.parametrize("prepared", [False, True])
    def test_refused_write_is_applied_nowhere(self, adjudication, prepared):
        server = DiverseServer(
            [make_server(key) for key in ("IB", "PG", "OR", "MS")],
            adjudication=adjudication,
        )
        server.execute("CREATE TABLE t (a INTEGER)")
        server.execute("INSERT INTO t VALUES (7)")
        write_log = server.write_log
        with pytest.raises(FeatureNotSupported):
            if prepared:
                server.prepare("INSERT INTO t VALUES (CHAR_LENGTH(?))").execute(("ab",))
            else:
                server.execute("INSERT INTO t VALUES (CHAR_LENGTH('ab'))")
        counts = [
            replica.product.execute("SELECT COUNT(*) FROM t").rows[0][0]
            for replica in server.replicas
        ]
        assert counts == [1, 1, 1, 1]
        assert server.write_log == write_log
        assert server.verify_consistency() == {}


def test_prepared_writes_reach_every_copy_of_a_replicated_server():
    """Identical copies share a replica key; each copy still runs the
    prepared statement on its own engine."""
    server = DiverseServer(
        [make_server("IB"), make_server("IB")], config=ServerConfig(allow_duplicates=True)
    )
    server.execute("CREATE TABLE t (a INTEGER)")
    server.prepare("INSERT INTO t VALUES (?)").execute((1,))
    counts = [
        replica.product.execute("SELECT COUNT(*) FROM t").rows[0][0]
        for replica in server.replicas
    ]
    assert counts == [1, 1]
    assert server.verify_consistency() == {}


class TestTransactionsThroughMiddleware:
    def test_rollback_spans_replicas(self):
        server = build_pair()
        server.execute("CREATE TABLE t (a INTEGER)")
        server.execute("INSERT INTO t VALUES (1)")
        server.execute("BEGIN")
        server.execute("DELETE FROM t")
        server.execute("ROLLBACK")
        result = server.execute("SELECT COUNT(*) FROM t")
        assert result.rows[0][0] == 1
        assert server.verify_consistency() == {}

    def test_commit_spans_replicas(self):
        server = build_pair()
        server.execute("CREATE TABLE t (a INTEGER)")
        server.execute("BEGIN")
        server.execute("INSERT INTO t VALUES (1), (2)")
        server.execute("COMMIT")
        assert server.execute("SELECT COUNT(*) FROM t").rows[0][0] == 2
        assert server.verify_consistency() == {}

    def test_genuine_constraint_error_leaves_replicas_aligned(self):
        server = build_pair()
        server.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        server.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(SqlError):
            server.execute("INSERT INTO t VALUES (1)")
        assert server.verify_consistency() == {}

    def test_recovery_replays_transactions_correctly(self):
        server = DiverseServer(
            [make_server("IB"), make_server("OR")], auto_recover=False
        )
        server.execute("CREATE TABLE t (a INTEGER)")
        server.execute("BEGIN")
        server.execute("INSERT INTO t VALUES (1)")
        server.execute("ROLLBACK")
        server.execute("INSERT INTO t VALUES (2)")
        server.recover("OR")  # full log replay, including the rollback
        assert server.verify_consistency() == {}
        assert server.replicas[1].product.execute(
            "SELECT COUNT(*) FROM t"
        ).rows[0][0] == 1
