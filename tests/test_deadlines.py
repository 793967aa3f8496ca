"""Statement deadlines, hang/stall faults, and straggler-tolerant
adjudication: the watchdog layer of the diverse middleware."""

import math

import pytest

from repro.errors import SqlError, StatementTimeout
from repro.faults import (
    CrashEffect,
    FaultSpec,
    HangEffect,
    RecoveryTrigger,
    SqlPatternTrigger,
    StallEffect,
)
from repro.middleware import (
    DiverseServer,
    ReplicaState,
    SupervisorPolicy,
    TimeoutAuditEntry,
)
from repro.middleware.comparator import ReplicaAnswer
from repro.reliability import QuarantinePolicyModel, TimeoutPolicyModel
from repro.servers import make_server
from repro.workload import WorkloadRunner
from repro.workload.generator import TpccGenerator


def hang_on_accounts_select():
    return FaultSpec(
        "T-HANG",
        "never returns from accounts selects",
        SqlPatternTrigger(r"SELECT.*FROM\s+accounts"),
        HangEffect("latch wedged"),
    )


def stall_on(pattern, delay=100.0, *, once=False, fault_id="T-STALL"):
    return FaultSpec(
        fault_id,
        f"stalls {delay} cost units on {pattern}",
        SqlPatternTrigger(pattern),
        StallEffect(delay=delay, once=once),
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


class TestHangAndStallEffects:
    def seeded_product(self, fault):
        product = make_server("IB", [fault])
        product.execute(
            "CREATE TABLE accounts (id INTEGER PRIMARY KEY, balance INTEGER)"
        )
        product.execute("INSERT INTO accounts (id, balance) VALUES (1, 100)")
        return product

    def test_hang_costs_infinitely_much(self):
        product = self.seeded_product(hang_on_accounts_select())
        result = product.execute("SELECT id FROM accounts")
        # The statement still "answers" in the synchronous simulation —
        # its infinite virtual cost is what makes it a hang: no finite
        # deadline ever sees the answer arrive.
        assert math.isinf(result.virtual_cost)
        assert [row[0] for row in result.rows] == [1]

    def test_stall_adds_virtual_cost(self):
        product = self.seeded_product(stall_on(r"SELECT.*FROM\s+accounts", 400.0))
        baseline = product.execute("SELECT 1").virtual_cost
        result = product.execute("SELECT id FROM accounts")
        assert result.virtual_cost == pytest.approx(baseline + 400.0)

    def test_stall_once_fires_once(self):
        product = self.seeded_product(
            stall_on(r"SELECT.*FROM\s+accounts", 400.0, once=True)
        )
        first = product.execute("SELECT id FROM accounts")
        second = product.execute("SELECT id FROM accounts")
        assert first.virtual_cost > 400.0
        assert second.virtual_cost < 400.0

    def test_stall_requires_positive_delay(self):
        with pytest.raises(ValueError):
            StallEffect(delay=0.0)
        with pytest.raises(ValueError):
            StallEffect(delay=-1.0)

    def test_audit_entry_classifies_kind_and_overrun(self):
        hang = TimeoutAuditEntry(
            replica="IB", sql="SELECT 1", virtual_cost=math.inf, deadline=50.0, at=3.0
        )
        stall = TimeoutAuditEntry(
            replica="IB", sql="SELECT 1", virtual_cost=101.0, deadline=50.0, at=3.0
        )
        assert hang.kind == "hang" and math.isinf(hang.overrun)
        assert stall.kind == "stall" and stall.overrun == pytest.approx(51.0)
        assert not hang.during_recovery


class TestStatementDeadline:
    def test_hung_replica_masked_quarantined_and_replayed(self):
        # The ISSUE's acceptance demo: three replicas, one hung; the
        # client gets a correct within-deadline answer, the hung replica
        # is quarantined and rebuilt from checkpoint + log tail, and the
        # event shows up in both the stats and the timeout audit.
        server = seed_accounts(
            triple(
                [hang_on_accounts_select()],
                policy=SupervisorPolicy(statement_deadline=50.0, checkpoint_interval=2),
            )
        )
        for i in range(3, 8):
            server.execute(f"INSERT INTO accounts (id, balance) VALUES ({i}, {i})")
        assert server.stats.checkpoints >= 1
        result = server.execute("SELECT id FROM accounts ORDER BY id")
        assert [row[0] for row in result.rows] == list(range(1, 8))
        ib = server.replica("IB")
        assert ib.state is ReplicaState.ACTIVE  # recovered in-statement
        assert ib.stats.timeouts == 1
        assert server.stats.statement_timeouts == 1
        assert server.stats.quarantines == 1
        assert server.stats.recoveries == 1
        assert server.stats.checkpoint_replays >= 1
        entry = server.timeout_audit[-1]
        assert entry.replica == "IB"
        assert entry.kind == "hang"
        assert not entry.during_recovery
        assert server.verify_consistency() == {}

    def test_timeouts_are_detection_events(self):
        server = seed_accounts(
            triple(
                [hang_on_accounts_select()],
                policy=SupervisorPolicy(statement_deadline=50.0),
            )
        )
        before = server.stats.detection_events
        server.execute("SELECT id FROM accounts")
        assert server.stats.detection_events > before

    def test_transient_stall_saved_by_read_retry(self):
        server = seed_accounts(
            triple(
                [stall_on(r"SELECT.*FROM\s+accounts", 400.0, once=True)],
                policy=SupervisorPolicy(statement_deadline=50.0),
            )
        )
        result = server.execute("SELECT id FROM accounts ORDER BY id")
        assert [row[0] for row in result.rows] == [1, 2]
        # The once-only stall cleared on retry: no quarantine, no audit.
        assert server.stats.statement_retries == 1
        assert server.stats.retries_saved == 1
        assert server.stats.statement_timeouts == 0
        assert server.stats.quarantines == 0
        assert server.timeout_audit == []
        assert server.replica("IB").state is ReplicaState.ACTIVE

    def test_stalled_write_never_rerun(self):
        # A write over deadline is excluded and the replica rebuilt by
        # replay — re-executing the statement would double-apply it.
        server = seed_accounts(
            triple(
                [stall_on(r"INSERT\s+INTO\s+accounts.*VALUES\s*\(3", 100.0)],
                policy=SupervisorPolicy(
                    statement_deadline=50.0, recovery_deadline=1000.0
                ),
            )
        )
        retries_before = server.stats.statement_retries
        server.execute("INSERT INTO accounts (id, balance) VALUES (3, 300)")
        assert server.stats.statement_retries == retries_before
        assert server.stats.statement_timeouts == 1
        assert server.timeout_audit[-1].kind == "stall"
        assert server.stats.quarantines == 1
        # Replay (under the looser recovery deadline) rebuilt the
        # replica with the stalled write applied exactly once.
        assert server.replica("IB").state is ReplicaState.ACTIVE
        assert server.verify_consistency() == {}

    def test_all_replicas_hung_raises_statement_timeout(self):
        faults = [
            FaultSpec(
                f"T-HANG-{key}",
                "hangs on accounts selects",
                SqlPatternTrigger(r"SELECT.*FROM\s+accounts"),
                HangEffect(),
            )
            for key in ("IB", "OR", "MS")
        ]
        server = DiverseServer(
            [make_server(key, [fault]) for key, fault in zip(("IB", "OR", "MS"), faults)],
            adjudication="majority",
            policy=SupervisorPolicy(statement_deadline=50.0),
        )
        seed_accounts(server)
        with pytest.raises(StatementTimeout) as excinfo:
            server.execute("SELECT id FROM accounts")
        assert excinfo.value.deadline == 50.0
        for key in ("IB", "OR", "MS"):
            assert key in str(excinfo.value)

    def test_without_deadline_hang_is_invisible_to_the_watchdog(self):
        server = seed_accounts(triple([hang_on_accounts_select()]))
        result = server.execute("SELECT id FROM accounts ORDER BY id")
        # The hung replica's answer participates (and even agrees); only
        # the cost-ratio check notices anything, and only because this
        # simulation delivers the answer eventually.
        assert [row[0] for row in result.rows] == [1, 2]
        assert server.stats.statement_timeouts == 0
        assert server.stats.quarantines == 0
        assert server.stats.performance_anomalies == 1

    def test_primary_path_timeout_excludes_replica(self):
        server = DiverseServer(
            [make_server("IB", [hang_on_accounts_select()]), make_server("OR")],
            adjudication="primary",
            policy=SupervisorPolicy(statement_deadline=50.0),
        )
        seed_accounts(server)
        result = server.execute("SELECT id FROM accounts ORDER BY id")
        # The hung primary was excluded; the next replica answered.
        assert [row[0] for row in result.rows] == [1, 2]
        assert server.stats.statement_timeouts == 1
        assert server.timeout_audit[-1].replica == "IB"


class TestStallDuringRecovery:
    def test_recovery_stall_hits_circuit_breaker_not_a_loop(self):
        # Satellite S3: a replica that stalls while *replaying* the
        # write log must fail the recovery attempt — and eventually the
        # circuit breaker — instead of wedging the recovery loop.
        server = seed_accounts(
            triple(
                [
                    FaultSpec(
                        "T-CRASH",
                        "crashes on accounts selects",
                        SqlPatternTrigger(r"SELECT.*FROM\s+accounts"),
                        CrashEffect("scheduler deadlock"),
                    ),
                    FaultSpec(
                        "T-RECOVERY-STALL",
                        "stalls while replaying the write log",
                        RecoveryTrigger(),
                        StallEffect(delay=1000.0),
                    ),
                ],
                policy=SupervisorPolicy(statement_deadline=50.0),
            )
        )
        server.execute("SELECT id FROM accounts")  # quarantine; replay stalls
        ib = server.replica("IB")
        assert ib.state is ReplicaState.QUARANTINED
        for _ in range(16):
            server.execute("SELECT 1")
            if ib.state is ReplicaState.RETIRED:
                break
        assert ib.state is ReplicaState.RETIRED
        assert server.stats.retirements == 1
        assert server.stats.recovery_timeouts >= server.policy.circuit_threshold
        entries = [e for e in server.timeout_audit if e.during_recovery]
        assert entries and all(e.kind == "stall" for e in entries)
        # The healthy pair kept serving throughout.
        result = server.execute("SELECT id FROM accounts ORDER BY id")
        assert [row[0] for row in result.rows] == [1, 2]

    def test_recovery_deadline_falls_back_to_statement_deadline(self):
        assert SupervisorPolicy(
            statement_deadline=50.0
        ).effective_recovery_deadline == 50.0
        assert SupervisorPolicy(
            statement_deadline=50.0, recovery_deadline=200.0
        ).effective_recovery_deadline == 200.0
        assert SupervisorPolicy().effective_recovery_deadline is None


STALL_DELAY = 100.0


def customer_stall():
    # A read-only trigger: it never enters the write log, so replay is
    # not re-stalled and each quarantine cycle prices only the watchdog.
    return stall_on(r"SELECT\s+c_balance", STALL_DELAY, fault_id="T-STALL-TPCC")


def stock_level_hang():
    return FaultSpec(
        "T-HANG-TPCC",
        "never returns from stock-level analysis queries",
        SqlPatternTrigger(r"COUNT\s*\(\s*DISTINCT\s+s_i_id"),
        HangEffect("scheduler wedged on a latch"),
    )


def tpcc_under_deadline(fault, deadline, transactions):
    server = triple([fault], policy=SupervisorPolicy(checkpoint_interval=16))
    runner = WorkloadRunner(server, seed=13)
    runner.setup()
    # Armed for the measured load only: no deployment bulk-loads its
    # schema under a statement deadline.
    server.supervisor.policy.statement_deadline = deadline
    return runner.run(transactions), server


#: A sample that keeps every claim; the soak run prices the full load.
SWEEP_TRANSACTIONS = [24, pytest.param(60, marks=pytest.mark.soak)]


class TestDeadlineSweep:
    """Pricing the watchdog under TPC-C with a recurrently stalling
    replica: too tight a deadline quarantines healthy replicas (the
    false positives :class:`TimeoutPolicyModel` prices), too loose a one
    leaves the stall to the cost-ratio check, which needs the late
    answer to land — and a hang's never does."""

    @pytest.mark.parametrize("transactions", SWEEP_TRANSACTIONS)
    def test_deadline_sweep(self, transactions):
        runs = {
            deadline: tpcc_under_deadline(customer_stall(), deadline, transactions)
            for deadline in (None, 200.0, 50.0, 5.0, 0.9)
        }
        stats = {deadline: server.stats for deadline, (_, server) in runs.items()}
        outages = {deadline: metrics.outages for deadline, (metrics, _) in runs.items()}
        # No watchdog: the stall is seen only by the cost-ratio check.
        assert stats[None].statement_timeouts == 0
        assert stats[None].performance_anomalies >= 1
        # Looser than healthy cost + stall (1 + 100 <= 200): missed too.
        assert stats[200.0].statement_timeouts == 0
        # Between the healthy cost and the stall: caught.
        assert stats[50.0].statement_timeouts >= 1
        assert stats[5.0].statement_timeouts >= stats[50.0].statement_timeouts
        assert stats[5.0].retirements == 0
        assert outages[5.0] == 0
        # Below the healthy statement cost of 1.0 every answer is a false
        # positive: the circuit breaker retires all three replicas and
        # the service goes dark — the cliff the model prices.
        assert stats[0.9].retirements == 3
        assert outages[0.9] >= 1
        assert (
            TimeoutPolicyModel(deadline=0.9, stall_delay=STALL_DELAY).false_positive_rate
            > 0.5
            > TimeoutPolicyModel(deadline=5.0, stall_delay=STALL_DELAY).false_positive_rate
        )
        # Wherever nobody was retired, every quarantine cycle kept the
        # replicas mutually consistent.
        for deadline, (_, server) in runs.items():
            if stats[deadline].retirements == 0:
                assert server.verify_consistency() == {}, deadline

    @pytest.mark.parametrize("transactions", SWEEP_TRANSACTIONS)
    def test_hang_and_stall_declared_at_the_deadline(self, transactions):
        for fault, kind in ((stock_level_hang(), "hang"), (customer_stall(), "stall")):
            metrics, server = tpcc_under_deadline(fault, 50.0, transactions)
            entries = server.timeout_audit
            assert entries and all(entry.kind == kind for entry in entries)
            # The watchdog declares both once the budget is spent...
            assert max(min(e.virtual_cost, e.deadline) for e in entries) == 50.0
            # ...but only the stall's answer ever lands for a ratio check.
            arrival = max(entry.virtual_cost for entry in entries)
            if kind == "hang":
                assert math.isinf(arrival)
            else:
                assert arrival > 50.0
            assert metrics.outages == 0


class TestPerformanceRatioEpsilon:
    def answers(self, costs):
        return [
            ReplicaAnswer(replica=f"R{i}", status="ok", virtual_cost=cost)
            for i, cost in enumerate(costs)
        ]

    def flagged(self, costs):
        server = DiverseServer(
            [make_server("IB"), make_server("OR")], adjudication="compare"
        )
        server._check_performance(self.answers(costs))
        return server.stats.performance_anomalies == 1

    def test_sub_unit_costs_are_not_masked(self):
        # Satellite S1: the old check clamped the fastest cost up to
        # 1.0, so a 500x straggler among sub-unit costs went unseen.
        assert self.flagged([0.001, 0.5])

    def test_ratio_boundary(self):
        assert not self.flagged([1.0, 100.0])
        assert self.flagged([1.0, 100.0 + 1e-6])

    def test_zero_cost_does_not_blow_up(self):
        assert self.flagged([0.0, 1e-6])
        assert not self.flagged([0.0, 1e-12])


class FlakyEndpoint:
    """Raises SqlError for the first ``failures`` statements."""

    def __init__(self, failures):
        self.failures = failures

    def execute(self, sql):
        if self.failures > 0 and sql.strip().upper() not in ("ROLLBACK",):
            self.failures -= 1
            raise SqlError("synthetic failure")
        return None


class SlowEndpoint:
    """Answers everything, at a fixed virtual cost per statement."""

    class _Result:
        def __init__(self, virtual_cost):
            self.virtual_cost = virtual_cost

    def __init__(self, cost_per_statement):
        self.cost = cost_per_statement

    def execute(self, sql):
        return self._Result(self.cost)


class TestWorkloadAccounting:
    def run_one(self, endpoint, **kwargs):
        runner = WorkloadRunner(endpoint, **kwargs)
        return runner.run(1, generator=TpccGenerator(seed=1))

    def test_aborted_transactions_not_double_counted(self):
        # Satellite S2: a transaction burning its whole retry budget is
        # ONE aborted transaction over four aborted attempts.
        metrics = self.run_one(FlakyEndpoint(failures=10 ** 6), retries=3)
        assert metrics.transactions == 1
        assert metrics.aborted_transactions == 1
        assert metrics.aborted_attempts == 4
        assert metrics.exhausted_retries == 1
        assert metrics.retried_successes == 0

    def test_retried_success_still_counts_one_abort(self):
        metrics = self.run_one(FlakyEndpoint(failures=1), retries=3)
        assert metrics.aborted_transactions == 1
        assert metrics.aborted_attempts == 1
        assert metrics.retried_successes == 1
        assert metrics.exhausted_retries == 0

    def test_transaction_deadline_aborts_over_budget_attempts(self):
        metrics = self.run_one(
            SlowEndpoint(cost_per_statement=300.0), transaction_deadline=500.0
        )
        assert metrics.deadline_aborts == 1
        assert metrics.timed_out_statements == 1
        assert metrics.aborted_transactions == 1
        assert not metrics.failure_free

    def test_transaction_deadline_validation(self):
        with pytest.raises(ValueError):
            WorkloadRunner(SlowEndpoint(1.0), transaction_deadline=0.0)

    def test_client_sees_middleware_statement_timeout(self):
        # End to end: every replica hangs on the stock-level query, so
        # the middleware's StatementTimeout reaches the client, which
        # aborts and accounts for it.
        faults = {
            key: FaultSpec(
                f"T-HANG-{key}",
                "hangs on stock-level analysis queries",
                SqlPatternTrigger(r"COUNT\s*\(\s*DISTINCT\s+s_i_id"),
                HangEffect(),
            )
            for key in ("IB", "OR", "MS")
        }
        server = DiverseServer(
            [make_server(key, [fault]) for key, fault in faults.items()],
            adjudication="majority",
            policy=SupervisorPolicy(statement_deadline=50.0),
        )
        runner = WorkloadRunner(server, seed=3)
        runner.setup()
        metrics = runner.run(40)
        assert metrics.timed_out_statements >= 1
        assert metrics.deadline_aborts >= 1
        assert not metrics.failure_free


class TestTimeoutPolicyModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeoutPolicyModel(deadline=0.0)
        with pytest.raises(ValueError):
            TimeoutPolicyModel(deadline=10.0, cost_median=0.0)
        with pytest.raises(ValueError):
            TimeoutPolicyModel(deadline=10.0, cost_sigma=-1.0)

    def test_hangs_always_detected_at_the_deadline(self):
        model = TimeoutPolicyModel(deadline=50.0)
        assert model.hang_detection_probability == 1.0
        assert model.detection_latency == 50.0

    def test_false_positive_rate_falls_as_deadline_grows(self):
        rates = [
            TimeoutPolicyModel(deadline=d).false_positive_rate for d in (2.0, 5.0, 20.0)
        ]
        assert rates == sorted(rates, reverse=True)
        assert rates[-1] < 1e-6

    def test_stall_detection_falls_as_deadline_grows(self):
        tight = TimeoutPolicyModel(deadline=50.0, stall_delay=100.0)
        loose = TimeoutPolicyModel(deadline=300.0, stall_delay=100.0)
        # A deadline inside the stall delay cannot miss the stall.
        assert tight.stall_detection_probability == 1.0
        assert loose.stall_detection_probability < tight.stall_detection_probability

    def test_deterministic_costs_make_a_step_function(self):
        below = TimeoutPolicyModel(deadline=0.9, cost_median=1.0, cost_sigma=0.0)
        above = TimeoutPolicyModel(deadline=1.1, cost_median=1.0, cost_sigma=0.0)
        assert below.false_positive_rate == 1.0
        assert above.false_positive_rate == 0.0

    def test_spurious_failures_inflate_effective_failure_rate(self):
        model = TimeoutPolicyModel(deadline=3.0, cost_sigma=1.0)
        repair = QuarantinePolicyModel(success_probability=0.9)
        watched = model.effective_replica(0.001, repair, statement_rate=10.0)
        unwatched = repair.effective_replica(0.001)
        assert model.spurious_failure_rate(10.0) > 0.0
        assert watched.failure_rate > unwatched.failure_rate
        assert 0.0 < watched.availability < unwatched.availability
        with pytest.raises(ValueError):
            model.spurious_failure_rate(-1.0)
