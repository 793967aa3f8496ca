"""Replica supervision subsystem tests: quarantine, backoff, circuit
breaker, checkpointed recovery, and graceful degradation."""

import pytest

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
from repro.middleware.server import replicated_server
from repro.reliability import QuarantinePolicyModel
from repro.servers import make_interbase, make_server
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

    def test_attempt_budget_exhaustion_fails_replica(self):
        server = seed_accounts(
            triple(
                [crash_on_accounts_select(), crash_during_recovery()],
                policy=SupervisorPolicy(
                    max_recovery_attempts=3, circuit_threshold=100
                ),
            )
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
        policy = SupervisorPolicy(backoff_base=1.0, backoff_factor=2.0, backoff_cap=8.0)
        assert [policy.backoff_delay(n) for n in range(6)] == [
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


class TestQuarantineModel:
    def test_certain_recovery(self):
        model = QuarantinePolicyModel(success_probability=1.0)
        assert model.retirement_probability == 0.0
        # First attempt is immediate and always succeeds: MTTR is one
        # attempt's replay cost.
        assert model.expected_repair_time() == pytest.approx(1.0)

    def test_repair_time_grows_as_success_shrinks(self):
        times = [
            QuarantinePolicyModel(success_probability=p).expected_repair_time()
            for p in (0.9, 0.5, 0.2)
        ]
        assert times == sorted(times)

    def test_retirement_probability(self):
        model = QuarantinePolicyModel(success_probability=0.5, max_attempts=3)
        assert model.retirement_probability == pytest.approx(0.125)

    def test_effective_replica_availability(self):
        model = QuarantinePolicyModel(success_probability=0.5)
        replica = model.effective_replica(failure_rate=0.001)
        assert 0.0 < replica.availability < 1.0
        mttr = model.expected_repair_time()
        assert replica.availability == pytest.approx(
            (1 / mttr) / (0.001 + 1 / mttr)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            QuarantinePolicyModel(success_probability=0.0)
        with pytest.raises(ValueError):
            QuarantinePolicyModel(success_probability=0.5, max_attempts=0)


class TestSatelliteFixes:
    def test_replicated_server_shares_init_path(self):
        server = replicated_server(make_interbase, count=3)
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
