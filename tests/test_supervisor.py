"""Replica supervision subsystem tests: quarantine, backoff, circuit
breaker, checkpointed recovery, and graceful degradation."""

import pytest

from repro.dialects.translator import translate_script
from repro.durability import engine_state_signature
from repro.errors import MiddlewareError, NoReplicasAvailable
from repro.faults import (
    CrashEffect,
    FaultSpec,
    RecoveryTrigger,
    SqlPatternTrigger,
)
from repro.faults.triggers import Trigger
from repro.middleware import (
    DiverseServer,
    ReplicaState,
    SupervisorPolicy,
    VirtualClock,
)
from repro.middleware import supervisor
from repro.servers import make_interbase, make_server
from repro.sqlengine.analysis import extract_traits
from repro.sqlengine.parser import parse_statement
from repro.workload import WorkloadRunner


class ToggleTrigger(Trigger):
    """Fires while ``enabled`` — lets a test turn a fault off."""

    def __init__(self, enabled=True):
        self.enabled = enabled

    def matches(self, ctx):
        return self.enabled


class CountdownTrigger(Trigger):
    """Fires on the first ``count`` matching statements only — a
    deterministic stand-in for a transient (Heisenbug) fault."""

    def __init__(self, inner, count=1):
        self.inner = inner
        self.remaining = count

    def matches(self, ctx):
        if self.remaining <= 0 or not self.inner.matches(ctx):
            return False
        self.remaining -= 1
        return True


def crash_on_accounts_select(trigger=None):
    return FaultSpec(
        "T-CRASH",
        "crashes on accounts selects",
        trigger or SqlPatternTrigger(r"SELECT.*FROM\s+accounts"),
        CrashEffect("scheduler deadlock"),
    )


def crash_during_recovery(trigger=None):
    return FaultSpec(
        "T-RELAPSE",
        "crashes while replaying the write log",
        trigger or RecoveryTrigger(),
        CrashEffect("recovery deadlock"),
    )


def triple(ib_faults=(), **kwargs):
    return DiverseServer(
        [make_server("IB", list(ib_faults)), make_server("OR"), make_server("MS")],
        adjudication="majority",
        **kwargs,
    )


def seed_accounts(server):
    server.execute("CREATE TABLE accounts (id INTEGER PRIMARY KEY, balance INTEGER)")
    server.execute("INSERT INTO accounts (id, balance) VALUES (1, 100), (2, 200)")
    return server


class TestVirtualClock:
    def test_advances(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        assert clock.advance() == 1.0
        assert clock.advance(2.5) == 3.5

    def test_never_backwards(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_one_tick_per_statement(self):
        server = seed_accounts(triple())
        before = server.clock.now
        server.execute("SELECT id FROM accounts")
        assert server.clock.now == before + 1.0


class TestStateMachine:
    def test_crash_quarantines_then_recovers_immediately(self):
        server = seed_accounts(triple([crash_on_accounts_select()]))
        result = server.execute("SELECT id FROM accounts ORDER BY id")
        # The two healthy replicas answered; the crashed one was
        # quarantined and recovered in the same statement (no backoff on
        # the first attempt of an incident).
        assert [row[0] for row in result.rows] == [1, 2]
        ib = server.replica("IB")
        assert ib.state is ReplicaState.ACTIVE
        assert ib.health.quarantines == 1
        assert server.stats.quarantines == 1
        assert server.stats.recoveries == 1
        assert server.stats.replica_crashes == 1
        assert server.verify_consistency() == {}

    def test_transient_crash_saved_by_statement_retry(self):
        flaky = CountdownTrigger(SqlPatternTrigger(r"SELECT.*FROM\s+accounts"), count=1)
        server = seed_accounts(triple([crash_on_accounts_select(flaky)]))
        result = server.execute("SELECT id FROM accounts ORDER BY id")
        assert [row[0] for row in result.rows] == [1, 2]
        # The retry answered, so the replica was never quarantined.
        assert server.replica("IB").state is ReplicaState.ACTIVE
        assert server.stats.statement_retries == 1
        assert server.stats.retries_saved == 1
        assert server.stats.quarantines == 0
        assert server.stats.recoveries == 0

    def test_legacy_mode_still_fails_replicas(self):
        server = seed_accounts(
            triple([crash_on_accounts_select()], auto_recover=False)
        )
        server.execute("SELECT id FROM accounts")
        ib = server.replica("IB")
        assert ib.state is ReplicaState.FAILED
        assert server.stats.quarantines == 0
        server.recover("IB")
        assert ib.state is ReplicaState.ACTIVE


class TestBackoffAndCircuitBreaker:
    def storm_server(self):
        serve = ToggleTrigger()
        relapse = ToggleTrigger()
        server = seed_accounts(
            triple(
                [
                    crash_on_accounts_select(
                        serve & SqlPatternTrigger(r"SELECT.*FROM\s+accounts")
                    ),
                    crash_during_recovery(relapse & RecoveryTrigger()),
                ]
            )
        )
        return server, serve, relapse

    def test_exponential_backoff_then_retirement(self):
        server, _, relapse = self.storm_server()
        server.execute("SELECT id FROM accounts")  # quarantine; replay crashes
        ib = server.replica("IB")
        assert ib.state is ReplicaState.QUARANTINED
        first_failure = ib.health.failure_times[0]
        # Drive statements the fault ignores; every tick retries due
        # recoveries, which all crash during replay until the circuit
        # breaker trips.
        for _ in range(16):
            server.execute("SELECT 1")
            if ib.state is ReplicaState.RETIRED:
                break
        assert ib.state is ReplicaState.RETIRED
        assert server.stats.retirements == 1
        # Failed attempts were spaced 1, 2, 4, 8 clock units apart.
        times = ib.health.failure_times
        assert [b - a for a, b in zip(times, times[1:])] == [1.0, 2.0, 4.0, 8.0]
        assert times[0] == first_failure
        assert server.stats.backoff_waits == 4
        # The client never saw a failure; service degraded but held.
        assert server.stats.degraded_statements > 0

    def test_retired_replica_needs_force(self):
        server, serve, relapse = self.storm_server()
        server.execute("SELECT id FROM accounts")
        for _ in range(16):
            server.execute("SELECT 1")
        ib = server.replica("IB")
        assert ib.state is ReplicaState.RETIRED
        with pytest.raises(MiddlewareError, match="force=True"):
            server.recover("IB")
        # Operator fixes the fault, then forces resurrection.
        serve.enabled = False
        relapse.enabled = False
        server.recover("IB", force=True)
        assert ib.state is ReplicaState.ACTIVE
        assert server.verify_consistency() == {}

    def test_attempt_budget_exhaustion_fails_replica(self, monkeypatch):
        monkeypatch.setattr(supervisor, "MAX_RECOVERY_ATTEMPTS", 3)
        monkeypatch.setattr(supervisor, "CIRCUIT_THRESHOLD", 100)
        server = seed_accounts(
            triple([crash_on_accounts_select(), crash_during_recovery()])
        )
        server.execute("SELECT id FROM accounts")
        ib = server.replica("IB")
        for _ in range(8):
            server.execute("SELECT 1")
            if ib.state is ReplicaState.FAILED:
                break
        assert ib.state is ReplicaState.FAILED
        assert server.stats.retirements == 0

    def test_backoff_delay_is_capped(self):
        assert [supervisor.backoff_delay(n, 8.0) for n in range(6)] == [
            0.0, 1.0, 2.0, 4.0, 8.0, 8.0,
        ]


class TestCheckpointing:
    def test_checkpoints_bound_replay_length(self):
        server = seed_accounts(
            triple(
                [crash_on_accounts_select()],
                policy=SupervisorPolicy(checkpoint_interval=4),
            )
        )
        for i in range(3, 20):
            server.execute(f"INSERT INTO accounts (id, balance) VALUES ({i}, {i * 10})")
        assert server.stats.checkpoints >= 2
        writes_logged = len(server.write_log)
        server.execute("SELECT id FROM accounts")  # crash + recover
        ib = server.replica("IB")
        assert ib.state is ReplicaState.ACTIVE
        assert server.stats.checkpoint_replays >= 1
        assert server.stats.full_replays == 0
        # Only the tail past the last checkpoint was replayed.
        assert max(ib.health.replay_lengths) <= 4
        assert max(ib.health.replay_lengths) < writes_logged
        assert server.verify_consistency() == {}

    def test_full_replay_without_checkpoints(self):
        server = seed_accounts(
            triple(
                [crash_on_accounts_select()],
                policy=SupervisorPolicy(checkpoint_interval=None),
            )
        )
        for i in range(3, 10):
            server.execute(f"INSERT INTO accounts (id, balance) VALUES ({i}, {i * 10})")
        server.execute("SELECT id FROM accounts")
        ib = server.replica("IB")
        assert ib.state is ReplicaState.ACTIVE
        assert server.stats.checkpoints == 0
        assert server.stats.full_replays >= 1
        # The whole history came back: both setup writes and the loop's.
        assert max(ib.health.replay_lengths) == len(server.write_log)
        assert server.verify_consistency() == {}

    def test_no_checkpoint_inside_open_transaction(self):
        server = seed_accounts(
            triple(policy=SupervisorPolicy(checkpoint_interval=2))
        )
        baseline = server.stats.checkpoints
        server.execute("BEGIN")
        for i in range(10, 16):
            server.execute(f"INSERT INTO accounts (id, balance) VALUES ({i}, 1)")
        # Interval long exceeded, but the snapshot must not land between
        # a BEGIN and its COMMIT in the write log.
        assert server.stats.checkpoints == baseline
        server.execute("COMMIT")
        assert server.stats.checkpoints > baseline


class TestGracefulDegradation:
    def test_majority_degrades_to_compare_then_primary(self):
        server = seed_accounts(triple())
        supervisor = server.supervisor
        assert supervisor.effective_adjudication("majority", 3, 3) == "majority"
        assert supervisor.effective_adjudication("majority", 2, 3) == "compare"
        assert supervisor.effective_adjudication("majority", 1, 3) == "primary"

    def test_quorum_capped_at_deployment_size(self):
        # A 2-replica majority deployment never had three voters, so a
        # full house is not "degraded".
        server = DiverseServer(
            [make_server("IB"), make_server("OR")], adjudication="majority"
        )
        assert server.supervisor.effective_adjudication("majority", 2, 2) == "majority"
        assert server.supervisor.effective_adjudication("majority", 1, 2) == "primary"

    def test_single_survivor_still_serves(self):
        server = seed_accounts(triple())
        server.replica("OR").state = ReplicaState.FAILED
        server.replica("MS").state = ReplicaState.FAILED
        result = server.execute("SELECT id FROM accounts ORDER BY id")
        assert [row[0] for row in result.rows] == [1, 2]
        assert server.stats.degraded_statements >= 1
        assert server.stats.quorum_losses >= 1

    def test_total_loss_names_every_replica(self):
        server = seed_accounts(triple())
        for replica in server.replicas:
            replica.state = ReplicaState.FAILED
        with pytest.raises(NoReplicasAvailable) as excinfo:
            server.execute("SELECT id FROM accounts")
        message = str(excinfo.value)
        for key in ("IB", "OR", "MS"):
            assert key in message


class TestDeterminism:
    def run_storm(self):
        server = seed_accounts(triple([crash_on_accounts_select()]))
        for i in range(3, 12):
            server.execute(f"INSERT INTO accounts (id, balance) VALUES ({i}, 5)")
            server.execute("SELECT id FROM accounts ORDER BY id")
        return server

    def test_identical_runs_identical_stats(self):
        first = self.run_storm()
        second = self.run_storm()
        assert first.stats == second.stats
        assert first.clock.now == second.clock.now
        assert (
            first.replica("IB").health.replay_lengths
            == second.replica("IB").health.replay_lengths
        )


def stock_level_crash():
    # A deterministic (Bohrbug) crash on a narrow slice of the TPC-C
    # load: the statement retry cannot save the replica, so every hit is
    # a quarantine + recovery cycle.
    return FaultSpec(
        "T-STORM",
        "crashes on stock-level analysis queries",
        SqlPatternTrigger(r"COUNT\s*\(\s*DISTINCT\s+s_i_id"),
        CrashEffect("scheduler deadlock"),
    )


def run_storm(server, seed=3):
    runner = WorkloadRunner(server, seed=seed)
    runner.setup()
    return runner.run(40)


class TestWorkloadOutages:
    def test_single_replica_outage_is_counted(self):
        server = DiverseServer([make_server("IB", [stock_level_crash()])], adjudication="primary")
        metrics = run_storm(server)
        assert metrics.outages >= 1
        assert not metrics.failure_free

    def test_triple_absorbs_the_same_storm(self):
        server = triple([stock_level_crash()])
        metrics = run_storm(server)
        assert metrics.outages == 0
        assert metrics.crashes == 0
        assert server.stats.replica_crashes >= 1
        assert server.stats.recoveries >= 1
        assert server.verify_consistency() == {}

    @pytest.mark.parametrize("interval", [16, None], ids=["checkpointed", "full-replay"])
    def test_storm_recovery_cost_is_bounded_by_checkpoints(self, interval):
        # Availability only scales if recovery cost does not grow with
        # history: with checkpoints each recovery replays the write-log
        # tail (one interval plus the transaction in flight), without
        # them the whole history.
        server = triple(
            [stock_level_crash()], policy=SupervisorPolicy(checkpoint_interval=interval)
        )
        metrics = run_storm(server, seed=13)
        replayed = max(server.replica("IB").health.replay_lengths)
        assert metrics.crashes == 0
        assert metrics.outages == 0
        assert server.stats.recoveries >= 2
        assert server.verify_consistency() == {}
        if interval:
            assert server.stats.checkpoint_replays >= 1
            assert replayed <= 2 * interval < len(server.write_log)
        else:
            assert server.stats.full_replays >= 2
            assert replayed > 2 * 16


class TestSatelliteFixes:
    def test_replicated_server_shares_init_path(self):
        server = DiverseServer(
            [make_interbase() for _ in range(3)], allow_duplicates=True
        )
        assert server.supervised
        assert server.supervisor is not None
        assert len(server.replicas) == 3
        assert server.stats.statements == 0

    def test_duplicate_products_still_rejected(self):
        with pytest.raises(MiddlewareError, match="duplicate product"):
            DiverseServer([make_interbase(), make_interbase()])

    def test_verify_consistency_sees_extra_tables(self):
        server = seed_accounts(triple())
        # A table sneaks onto a non-reference replica behind the
        # middleware's back; the union-based audit must flag it.
        server.replicas[1].product.execute(
            "CREATE TABLE rogue (id INTEGER PRIMARY KEY)"
        )
        disagreements = server.verify_consistency()
        assert "rogue" in disagreements


class SeenPattern(SqlPatternTrigger):
    """Never fires; records the text and kind of every statement whose
    text matches the pattern."""

    def __init__(self, pattern, seen):
        super().__init__(pattern)
        self.seen = seen

    def matches(self, ctx):
        if super().matches(ctx):
            self.seen.append((ctx.sql, ctx.traits.kind))
        return False


class TestReplayRunsTheLiveCall:
    """Supervisor replay turns each logged text into the call it ran
    live (``DiverseServer.statement_call``) and runs that call on the
    replica's own handle."""

    def test_a_negative_bound_value_replays_as_it_ran(self):
        server = triple()
        server.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        server.execute("INSERT INTO t (id, v) VALUES (1, 0)")
        server.prepare("UPDATE t SET v = -? WHERE id = ?").execute((-5, 1))
        assert server.write_log[-1] == "UPDATE t SET v = - -5 WHERE id = 1"
        server.recover("IB")  # no checkpoint yet: a full replay
        assert server.stats.full_replays == 1
        ib = server.replica("IB")
        assert ib.state is ReplicaState.ACTIVE
        assert ib.product.execute("SELECT v FROM t WHERE id = 1").rows == [(5,)]
        assert server.verify_consistency() == {}

    def test_a_dialect_refusal_fails_the_recovery_attempt(self):
        server = seed_accounts(triple())
        ib = server.replica("IB")
        ib.state = ReplicaState.FAILED
        # Interbase 6 has no CASE; the write commits on OR and MS.
        server.execute(
            "UPDATE accounts SET balance = CASE WHEN id = 1 THEN 2 ELSE 3 END"
        )
        server.recover("IB")
        assert ib.state is ReplicaState.QUARANTINED
        assert server.verify_consistency() == {}
        # Backoff retries fail alike until the circuit breaker retires
        # IB; a rebuild then seeds it past the write from a donor.
        for _ in range(100):
            if ib.state is ReplicaState.RETIRED:
                break
            server.supervisor.tick()
        assert ib.state is ReplicaState.RETIRED
        assert server.rebuild("IB")
        assert server.drive_rebuilds()
        assert ib.state is ReplicaState.ACTIVE
        assert server.verify_consistency() == {}
        rows = ib.product.execute("SELECT id, balance FROM accounts ORDER BY id").rows
        assert rows == [(1, 2), (2, 3)]

    def test_recovery_triggers_see_the_replica_dialect_text(self):
        # OR renames COALESCE to NVL: the replayed lifted, bound and
        # own-text writes show the spy the text translate_script gives
        # for the logged write, as replay of the literal text did.
        seen = []
        spy = FaultSpec(
            "T-SPY",
            "records what replay shows the triggers",
            RecoveryTrigger() & SeenPattern(r".", seen),
            CrashEffect("never fires"),
        )
        server = DiverseServer(
            [make_server("IB"), make_server("OR", [spy]), make_server("MS")],
            adjudication="majority",
        )
        server.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, s VARCHAR(9))")
        server.execute("INSERT INTO t (id, v, s) VALUES (1, 10, 'it''s')")
        server.execute("UPDATE t SET v = COALESCE(v, 0) + 1 WHERE id = 1")
        server.execute("UPDATE t SET v = -1 WHERE id = 1")
        insert = server.prepare("INSERT INTO t (id, v, s) VALUES (?, ?, ?)")
        insert.execute((2, -7, "--x"))
        update = server.prepare("UPDATE t SET v = COALESCE(-?, v) WHERE id = ?")
        update.execute((-5, 2))
        server.execute("DELETE FROM t WHERE v < 0")
        server.recover("OR")
        assert server.replica("OR").state is ReplicaState.ACTIVE
        texts = [translate_script(sql, "OR") for sql in server.write_log]
        assert "NVL (v, 0)" in texts[2] and "NVL (- - 5, v)" in texts[5]
        assert seen == [
            (text, extract_traits(parse_statement(text)).kind) for text in texts
        ]
        assert server.verify_consistency() == {}


class TestCopyOnWriteCheckpoints:
    """Checkpoints and rebuild seeds are copy-on-write table images
    (:mod:`repro.sqlengine.storage`) that share unchanged rows with the
    live engine.  The updates below add to a balance, so a snapshot
    that restored a later value would be caught by the replay that
    follows it: the update would land twice.

    Mutations these were checked against: no pre-image save in
    ``TableData.update_row`` fails all three; ``TableImage.restore``
    reading only its own ``before`` fails the rebuild test;
    ``TableImage.restore`` handing out the image's unchanged row objects
    instead of copies fails the rebuild and the restored-again tests.
    """

    def test_rebuild_seed_and_checkpoint_images_share_a_table(self, monkeypatch):
        # One row per tick keeps the seed phase open across checkpoints.
        monkeypatch.setattr(supervisor, "REBUILD_SEED_ROWS", 1)
        server = seed_accounts(triple(policy=SupervisorPolicy(checkpoint_interval=2)))
        for i in range(3, 9):
            server.execute(f"INSERT INTO accounts (id, balance) VALUES ({i}, {i})")
        donor = server.replica("IB")
        ms = server.replica("MS")
        server.supervisor.retire(ms)
        assert server.rebuild("MS")
        seed = ms.health.rebuild.snapshot.tables["accounts"]
        checkpoints = server.stats.checkpoints
        for i in range(1, 9):
            server.execute(f"UPDATE accounts SET balance = balance + 1 WHERE id = {i}")
            if i == 3:
                # The donor checkpointed after the seed image was taken:
                # two live images on one table, the seed the older.
                assert server.stats.checkpoints > checkpoints
                assert not ms.health.rebuild.seeded
                checkpoint = donor.health.checkpoint.snapshot.tables["accounts"]
                assert seed.newer is checkpoint
        server.drive_rebuilds()
        assert ms.state is ReplicaState.ACTIVE
        assert server.stats.rebuilds_failed == 0
        assert server.verify_consistency() == {}

    def test_one_checkpoint_restored_again_and_again(self):
        relapse = CountdownTrigger(
            RecoveryTrigger() & SqlPatternTrigger(r"INSERT INTO accounts"), count=1
        )
        server = seed_accounts(
            triple(
                [crash_during_recovery(relapse)],
                policy=SupervisorPolicy(checkpoint_interval=6),
            )
        )
        for i in range(3, 7):
            server.execute(f"INSERT INTO accounts (id, balance) VALUES ({i}, {i})")
        ib = server.replica("IB")
        position = ib.health.checkpoint.log_position
        server.execute("UPDATE accounts SET balance = balance + 1 WHERE id = 1")
        server.execute("UPDATE accounts SET balance = balance + 1 WHERE id = 2")
        server.execute("INSERT INTO accounts (id, balance) VALUES (50, 50)")
        assert ib.health.checkpoint.log_position == position
        # The first attempt restores the checkpoint, replays both
        # updates and crashes on the insert; the second restores it
        # again and completes.
        server.supervisor.quarantine(ib)
        assert ib.state is ReplicaState.QUARANTINED
        for _ in range(4):
            server.execute("SELECT 1")
            if ib.state is ReplicaState.ACTIVE:
                break
        assert ib.state is ReplicaState.ACTIVE
        assert server.stats.checkpoint_replays == 2
        assert ib.health.replay_lengths == [3]
        majority = engine_state_signature(server.replica("OR").product.engine)
        assert engine_state_signature(ib.product.engine) == majority
        # The recovered engine's writes stay out of the checkpoint: a
        # third restore still starts from the checkpointed rows.
        server.execute("UPDATE accounts SET balance = balance + 1 WHERE id = 3")
        assert ib.health.checkpoint.log_position == position
        server.supervisor.quarantine(ib)
        assert ib.state is ReplicaState.ACTIVE
        assert ib.health.replay_lengths == [3, 4]
        assert server.verify_consistency() == {}

    def test_a_snapshot_copies_nothing_and_a_write_saves_one_row(self):
        product = make_server("IB")
        product.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, v INTEGER)")
        data = product.engine.storage.get("big")
        for i in range(10_000):
            data.insert([i, 0])
        image = product.snapshot().tables["big"]
        assert len(image.rows) == 10_000
        assert all(kept is live for kept, live in zip(image.rows, data.rows()))
        assert image.before == {}
        for k, key in enumerate((7, 4_242, 9_999, 7), start=1):
            product.execute(f"UPDATE big SET v = {k} WHERE id = {key}")
        # Three distinct rows written, the first of them twice.
        assert image.before == {
            id(data.rows()[7]): (7, 0),
            id(data.rows()[4_242]): (4_242, 0),
            id(data.rows()[9_999]): (9_999, 0),
        }
