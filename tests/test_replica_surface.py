"""What the layers above ``repro.servers`` ask of a replica goes
through :class:`~repro.servers.product.ServerProduct`: the recovery
phase and the dual-plan rewrite switch are scoped by the product and
restored on every exit, and the state signature the durable checks and
``tpcc-durable``'s ``state_digest`` are built from keeps its bytes.

Each test names the mutation of the code it was checked against (the
test fails with that mutation in place)."""

import hashlib

import pytest

from repro.durability import (
    CheckpointInvalid,
    DurableSession,
    apply_checkpoint,
    build_checkpoint,
    engine_state_signature,
)
from repro.durability.checkpoint import pack_checkpoint, unpack_checkpoint
from repro.errors import EngineCrash
from repro.faults import (
    CrashEffect,
    FaultSpec,
    RecoveryTrigger,
    SqlPatternTrigger,
    StallEffect,
)
from repro.faults.triggers import Trigger
from repro.middleware import DiverseServer, ReplicaState, ServerConfig, SupervisorPolicy
from repro.servers import make_server


def sentinel() -> FaultSpec:
    """Crashes a read of ``sentinel``, but only in the recovery phase:
    it fires on a live statement only if a phase leaked."""
    return FaultSpec(
        "T-SENTINEL",
        "crashes sentinel reads while recovering",
        RecoveryTrigger() & SqlPatternTrigger(r"^SELECT .*\bsentinel\b"),
        CrashEffect("recovery phase leaked into service"),
    )


def assert_serving(product) -> None:
    """The next live statement runs in the serve phase."""
    product.restart()
    assert product.execute("SELECT x FROM sentinel").rows == [(1,)]
    assert "T-SENTINEL" not in product.fired_faults()


def relapse(effect) -> FaultSpec:
    """``effect`` on every replayed write to ``accounts``."""
    return FaultSpec(
        "T-RELAPSE",
        "misbehaves replaying accounts writes",
        RecoveryTrigger() & SqlPatternTrigger(r"accounts"),
        effect,
    )


def seeded_triple(ib_faults, **kwargs) -> DiverseServer:
    server = DiverseServer(
        [make_server("IB", [*ib_faults, sentinel()]), make_server("OR"), make_server("MS")],
        adjudication="majority",
        **kwargs,
    )
    server.execute("CREATE TABLE sentinel (x INTEGER)")
    server.execute("INSERT INTO sentinel (x) VALUES (1)")
    server.execute("CREATE TABLE accounts (id INTEGER PRIMARY KEY, balance INTEGER)")
    server.execute("INSERT INTO accounts (id, balance) VALUES (1, 100), (2, 200)")
    return server


class TestRecoveryPhaseEndsOnEveryExit:
    """Checked against ``ServerProduct.recovering`` with its ``try`` /
    ``finally`` removed, so the serve phase returns only when the block
    ends normally."""

    def test_after_a_supervisor_replay_that_crashes(self):
        server = seeded_triple([relapse(CrashEffect("replay deadlock"))])
        server.recover("IB")
        ib = server.replica("IB")
        assert ib.state is not ReplicaState.ACTIVE
        assert_serving(ib.product)

    def test_after_a_supervisor_replay_that_stalls(self):
        server = seeded_triple(
            [relapse(StallEffect(delay=100.0))],
            policy=SupervisorPolicy(statement_deadline=50.0),
        )
        server.recover("IB")
        assert server.replica("IB").state is not ReplicaState.ACTIVE
        assert server.timeout_audit[-1].during_recovery
        assert_serving(server.replica("IB").product)

    def test_after_a_supervisor_replay_that_is_refused(self):
        server = seeded_triple([])
        ib = server.replica("IB")
        ib.state = ReplicaState.FAILED
        # Interbase 6 has no CASE; the write commits on OR and MS.
        server.execute("UPDATE accounts SET balance = CASE WHEN id = 1 THEN 2 ELSE 3 END")
        server.recover("IB")
        assert ib.state is ReplicaState.QUARANTINED
        assert_serving(ib.product)

    def test_after_a_restart_recovery_whose_checkpoint_is_invalid(self):
        source = make_server("IB")
        ddl = ["CREATE TABLE sentinel (x INTEGER)"]
        source.execute(ddl[0])
        source.execute("INSERT INTO sentinel (x) VALUES (1)")
        payload = unpack_checkpoint(pack_checkpoint(build_checkpoint(source, lsn=2, ddl=ddl)))
        payload["tables"].append({"name": "ghost", "columns": 1, "rows": []})
        product = make_server("IB", [sentinel()])
        with pytest.raises(CheckpointInvalid, match="ghost"):
            apply_checkpoint(product, payload)
        assert_serving(product)

    def test_after_a_redo_that_crashes(self):
        faults = [
            sentinel(),
            FaultSpec(
                "T-REDO",
                "crashes redoing updates",
                RecoveryTrigger() & SqlPatternTrigger(r"^UPDATE"),
                CrashEffect("redo deadlock"),
            ),
        ]
        session = DurableSession(make_server("IB", faults))
        for sql in (
            "CREATE TABLE sentinel (x INTEGER)",
            "INSERT INTO sentinel (x) VALUES (1)",
            "UPDATE sentinel SET x = 1",
        ):
            session.execute(sql)
        product = make_server("IB", faults)
        with pytest.raises(EngineCrash):
            DurableSession.resume(product, session.power_cut())
        assert_serving(product)


class CrashUnrewritten(Trigger):
    """Fires on a plan compiled without rewrite rules."""

    def matches(self, ctx):
        return not ctx.engine.rewrite


def test_rewrites_are_back_on_after_a_dual_plan_run_that_crashes():
    """Checked against ``ServerProduct.unrewritten`` with its
    ``finally`` clause deleted, so nothing turns rewrites back on."""
    product = make_server(
        "IB", [FaultSpec("T-PLAN", "crashes unrewritten plans", CrashUnrewritten(), CrashEffect())]
    )
    server = DiverseServer([product], config=ServerConfig(adjudication="primary", dual_plan=True))
    server.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
    server.execute("INSERT INTO t (a) VALUES (1)")
    assert server.execute("SELECT a FROM t WHERE a > 0").rows == [(1,)]
    assert server.stats.dual_plan_checks == 0  # the crashed run proved nothing
    assert product.fired_faults() == {"T-PLAN"}
    assert product.engine.rewrite is True
    assert server.execute("SELECT a FROM t WHERE a > 0").rows == [(1,)]
    assert server.stats.replica_crashes == 0


#: ``engine_state_signature`` of :func:`golden_product`, whose sha256
#: is pinned: ``tpcc-durable``'s ``state_digest`` is built from it.
GOLDEN_SHA256 = "e8881d9991d89ff87a2e204f830b790e5e0b9c0513157cb695f44943689496d9"


def golden_product():
    product = make_server("IB")
    for sql in (
        "CREATE TABLE t (id INT PRIMARY KEY, v DECIMAL (8, 2), d DATE, s VARCHAR(10))",
        "INSERT INTO t VALUES (2, 1.50, '2004-06-28', 'b')",
        "INSERT INTO t VALUES (1, NULL, NULL, 'a''s')",
        "CREATE TABLE Mixed (b INT)",
        "INSERT INTO Mixed VALUES (7)",
        "CREATE TABLE empty (x INT)",
        "CREATE INDEX t_v ON t (v)",
        "CREATE VIEW big AS SELECT id FROM t WHERE id > 1",
    ):
        product.execute(sql)
    return product


def test_state_signature_bytes_are_pinned():
    """Checked against the payload's keys written in another order
    (``sort_keys`` dropped) and against a table name not lower-cased."""
    product = golden_product()
    signature = engine_state_signature(product.engine)
    assert product.state_signature() == signature
    assert hashlib.sha256(signature.encode()).hexdigest() == GOLDEN_SHA256
