"""Fault-storm drills: one driver, a registry of storm configurations.

Each storm drives a TPC-C-like workload through a 3-version majority
deployment while a seeded fault campaign batters one layer of it —
crashes, hangs, disk corruption, or (for the served deployment) the
network itself.  The storms share one driver: build the endpoint(s),
run the workload, report the layer's telemetry, then run any
aftermath phases (the disk storm's power-cut restart and online
rebuild).  ``python -m repro <storm> [N]`` dispatches through
:data:`STORMS`.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.workload import WorkloadRunner, run_interleaved
from repro.workload.runner import SqlEndpoint, WorkloadMetrics


class Storm:
    """One storm configuration; subclasses fill in the layers."""

    name: str = ""
    summary: str = ""
    default_count: int = 120
    seed: int = 7
    #: Extra keyword arguments for each terminal's WorkloadRunner.
    runner_kwargs: Dict[str, object] = {}
    #: Terminal interleaving granularity for multi-terminal storms:
    #: ``"transaction"`` (whole transactions rotate) or ``"statement"``
    #: (other terminals' statements land inside open transactions).
    granularity: str = "transaction"

    def endpoints(self) -> List[SqlEndpoint]:
        """Build the system under storm; one endpoint per terminal."""
        raise NotImplementedError

    def report(self, metrics: WorkloadMetrics, runners: List[WorkloadRunner]) -> bool:
        """Print the storm's layer-specific telemetry; False when the
        storm's closing consistency check failed."""
        raise NotImplementedError

    def aftermath(self, count: int) -> bool:
        """Optional post-workload phases (restart, rebuild...); False
        when one of their closing checks failed."""
        return True


def run_storm(storm: Storm, count: int) -> int:
    """The shared storm driver: build, load, report, aftermath.  The
    exit status is 1 when a closing check of the storm failed."""
    endpoints = storm.endpoints()
    runners = [
        WorkloadRunner(endpoint, seed=storm.seed + index, **storm.runner_kwargs)  # type: ignore[arg-type]
        for index, endpoint in enumerate(endpoints)
    ]
    runners[0].setup()
    if len(runners) == 1:
        metrics = runners[0].run(count)
    else:
        metrics = run_interleaved(runners, count, granularity=storm.granularity)
    reported = storm.report(metrics, runners)
    settled = storm.aftermath(count)
    return 0 if reported and settled else 1


class CrashStorm(Storm):
    """IB crashes on stock-level queries — and again during recovery."""

    name = "crashstorm"
    summary = (
        "3-version majority configuration whose IB replica crashes "
        "repeatedly, in service and during recovery replay"
    )

    def endpoints(self) -> List[SqlEndpoint]:
        from repro.faults import (
            CrashEffect,
            FaultSpec,
            RecoveryTrigger,
            SqlPatternTrigger,
        )
        from repro.middleware import DiverseServer
        from repro.servers import make_server

        storm = FaultSpec(
            "STORM-CRASH",
            "crashes on stock-level analysis queries",
            SqlPatternTrigger(r"COUNT\s*\(\s*DISTINCT\s+s_i_id"),
            CrashEffect("scheduler deadlock"),
        )
        relapse = FaultSpec(
            "STORM-RELAPSE",
            "crashes again while replaying district updates during recovery",
            RecoveryTrigger() & SqlPatternTrigger(r"UPDATE\s+district"),
            CrashEffect("recovery deadlock"),
        )
        self.server = DiverseServer(
            [make_server("IB", [storm, relapse]), make_server("OR"), make_server("MS")],
            adjudication="majority",
        )
        return [self.server]

    def report(self, metrics: WorkloadMetrics, runners: List[WorkloadRunner]) -> bool:
        stats = self.server.stats
        ib = self.server.replica("IB")
        print(f"3v majority under crash storm: {metrics.transactions} transactions, "
              f"{metrics.statements_per_second:.0f} stmt/s")
        print(f"client-visible crashes={metrics.crashes} outages={metrics.outages}")
        print(f"replica crashes absorbed={stats.replica_crashes} "
              f"statement retries={stats.statement_retries} "
              f"(saved={stats.retries_saved})")
        print(f"quarantines={stats.quarantines} backoff waits={stats.backoff_waits} "
              f"recoveries={stats.recoveries} retirements={stats.retirements}")
        print(f"checkpoints={stats.checkpoints} "
              f"checkpoint replays={stats.checkpoint_replays} "
              f"full replays={stats.full_replays} "
              f"statements replayed={stats.replayed_statements}")
        print(f"degraded statements={stats.degraded_statements} "
              f"quorum losses={stats.quorum_losses}")
        print(f"IB final state: {ib.state.value} "
              f"(quarantined {ib.health.quarantines} time(s))")
        return not self.server.verify_consistency()


class HangStorm(Storm):
    """IB hangs on stock-level queries; the watchdog must notice."""

    name = "hangstorm"
    summary = (
        "3-version majority configuration with a statement deadline, "
        "whose IB replica hangs on stock-level analysis queries"
    )
    runner_kwargs = {"transaction_deadline": 500.0}

    def endpoints(self) -> List[SqlEndpoint]:
        from repro.faults import (
            Detectability,
            FailureKind,
            FaultSpec,
            HangEffect,
            SqlPatternTrigger,
            StallEffect,
        )
        from repro.middleware import DiverseServer, SupervisorPolicy
        from repro.servers import make_server

        hang = FaultSpec(
            "STORM-HANG",
            "never returns from stock-level analysis queries",
            SqlPatternTrigger(r"COUNT\s*\(\s*DISTINCT\s+s_i_id"),
            HangEffect("scheduler wedged on a latch"),
            kind=FailureKind.PERFORMANCE,
            detectability=Detectability.SELF_EVIDENT,
        )
        stall = FaultSpec(
            "STORM-STALL",
            "one transient stall on customer balance lookups",
            SqlPatternTrigger(r"SELECT\s+c_balance"),
            StallEffect(delay=400.0, once=True),
            kind=FailureKind.PERFORMANCE,
            detectability=Detectability.SELF_EVIDENT,
        )
        self.server = DiverseServer(
            [make_server("IB", [hang, stall]), make_server("OR"), make_server("MS")],
            adjudication="majority",
            policy=SupervisorPolicy(statement_deadline=50.0, checkpoint_interval=16),
        )
        return [self.server]

    def report(self, metrics: WorkloadMetrics, runners: List[WorkloadRunner]) -> bool:
        stats = self.server.stats
        ib = self.server.replica("IB")
        hangs = sum(1 for entry in self.server.timeout_audit if entry.kind == "hang")
        stalls = sum(1 for entry in self.server.timeout_audit if entry.kind == "stall")
        print(f"3v majority under hang storm (deadline=50): "
              f"{metrics.transactions} transactions, "
              f"{metrics.statements_per_second:.0f} stmt/s")
        print(f"client-visible timeouts={metrics.timed_out_statements} "
              f"deadline aborts={metrics.deadline_aborts} outages={metrics.outages}")
        print(f"statement timeouts={stats.statement_timeouts} "
              f"(audit: hangs={hangs} stalls={stalls}) "
              f"recovery timeouts={stats.recovery_timeouts}")
        print(f"statement retries={stats.statement_retries} "
              f"(saved={stats.retries_saved})")
        print(f"quarantines={stats.quarantines} recoveries={stats.recoveries} "
              f"checkpoint replays={stats.checkpoint_replays} "
              f"retirements={stats.retirements}")
        print(f"IB final state: {ib.state.value} "
              f"(timed out {ib.stats.timeouts} time(s))")
        return not self.server.verify_consistency()


class DiskStorm(Storm):
    """IB's WAL tears, drops, and rots; then power-cut and rebuild."""

    name = "diskstorm"
    summary = (
        "durable 3-version majority configuration whose IB disk tears, "
        "drops, and corrupts WAL appends; power-cut, restart, and "
        "online rebuild"
    )

    def _storm_faults(self):
        from repro.faults import (
            ChecksumCorruptionEffect,
            Detectability,
            FailureKind,
            FaultSpec,
            LostFlushEffect,
            SqlPatternTrigger,
            TornWriteEffect,
        )

        return [
            FaultSpec(
                "DISK-TORN",
                "tears the WAL append of stock updates",
                SqlPatternTrigger(r"UPDATE\s+stock"),
                TornWriteEffect(),
                kind=FailureKind.STORAGE,
                detectability=Detectability.SELF_EVIDENT,
            ),
            FaultSpec(
                "DISK-LOST",
                "loses the WAL append of district updates",
                SqlPatternTrigger(r"UPDATE\s+district"),
                LostFlushEffect(),
                kind=FailureKind.STORAGE,
                detectability=Detectability.NON_SELF_EVIDENT,
            ),
            FaultSpec(
                "DISK-ROT",
                "bit rot on the WAL append of history inserts",
                SqlPatternTrigger(r"INSERT\s+INTO\s+history"),
                ChecksumCorruptionEffect(),
                kind=FailureKind.STORAGE,
                detectability=Detectability.SELF_EVIDENT,
            ),
        ]

    def _build(self, medium):
        from repro.durability import DurabilityManager
        from repro.middleware import DiverseServer, ServerConfig
        from repro.servers import make_server

        return DiverseServer(
            [
                make_server("IB", self._storm_faults()),
                make_server("OR"),
                make_server("MS"),
            ],
            config=ServerConfig(
                adjudication="majority",
                durability=DurabilityManager(medium, checkpoint_interval=48),
            ),
        )

    def endpoints(self) -> List[SqlEndpoint]:
        from repro.durability import MemoryMedium

        self.disk = MemoryMedium()
        self.server = self._build(self.disk)
        return [self.server]

    def report(self, metrics: WorkloadMetrics, runners: List[WorkloadRunner]) -> bool:
        stats = self.server.stats
        print(f"phase 1 -- durable 3v majority under disk storm: "
              f"{metrics.transactions} transactions, "
              f"{metrics.statements_per_second:.0f} stmt/s, "
              f"disagreements={metrics.detected_disagreements}")
        print(f"WAL records={stats.wal_records} torn={stats.wal_torn_writes} "
              f"lost={stats.wal_lost_flushes} corrupt={stats.wal_corruptions} "
              f"durable checkpoints={stats.durable_checkpoints}")
        return True

    def aftermath(self, count: int) -> bool:
        restarted = self._build(self.disk.clone())
        recovery = restarted.durability.recover_server()
        print(f"phase 2 -- power cut + restart: write log restored "
              f"({recovery.write_log} statements), "
              f"crashed={recovery.crashed or 'none'} "
              f"healed={recovery.healed or 'none'}")
        for key, report in sorted(recovery.reports.items()):
            print(f"  {key}: checkpoint={report.checkpoint or '-'} "
                  f"redone={report.redone} dropped bytes={report.dropped_bytes} "
                  f"stop={report.stopped or 'clean'}")
        disagreements = recovery.residual_disagreements
        print(f"  residual disagreements: "
              f"{disagreements if disagreements else 'none'}")

        ib = restarted.replica("IB")
        restarted.supervisor.retire(ib)
        restarted.rebuild("IB")
        runner2 = WorkloadRunner(restarted, seed=11)
        metrics2 = runner2.run(count)
        restarted.drive_rebuilds()
        stats2 = restarted.stats
        print(f"phase 3 -- IB retired and rebuilt online under "
              f"{metrics2.transactions} live transactions: "
              f"disagreements={metrics2.detected_disagreements}")
        print(f"rebuilds started={stats2.rebuilds_started} "
              f"completed={stats2.rebuilds_completed} "
              f"failed={stats2.rebuilds_failed} "
              f"delta replayed={stats2.rebuild_replayed_statements}")
        print(f"IB final state: {ib.state.value} "
              f"(last rebuild took {ib.health.last_rebuild_duration} tick(s))")
        consistency = restarted.verify_consistency()
        print(f"consistency after rebuild: "
              f"{consistency or 'all replicas agree'}")
        return not disagreements and not consistency


class NetStorm(Storm):
    """The full stack served over a hostile wire.

    Three TPC-C terminals drive the served middleware through session
    supervisors while the network drops, delays, duplicates, reorders,
    corrupts, resets, and partitions — and the IB replica crashes on
    stock-level queries for good measure.  The drill demonstrates that
    exactly-once survives the combination: duplicated frames dedupe,
    resent statements dedupe, replicas end consistent.
    """

    name = "netstorm"
    summary = (
        "served 3-version majority configuration under a network fault "
        "storm (drop/delay/duplicate/reorder/corrupt/reset/partition) "
        "with concurrent TPC-C terminals"
    )
    terminals = 3
    runner_kwargs = {"retries": 2}

    def endpoints(self) -> List[SqlEndpoint]:
        from repro.faults import (
            ConnectionResetEffect,
            CorruptFrameEffect,
            CrashEffect,
            DelayFrameEffect,
            DropFrameEffect,
            DuplicateFrameEffect,
            FaultInjector,
            FaultSpec,
            PartitionEffect,
            ReorderFrameEffect,
            SqlPatternTrigger,
        )
        from repro.middleware import DiverseServer
        from repro.net import (
            ClientPolicy,
            NetPolicy,
            NetServer,
            SessionSupervisor,
            SimulatedNetwork,
        )
        from repro.servers import make_server

        crash = FaultSpec(
            "STORM-CRASH",
            "crashes on stock-level analysis queries",
            SqlPatternTrigger(r"COUNT\s*\(\s*DISTINCT\s+s_i_id"),
            CrashEffect("scheduler deadlock"),
        )
        self.server = DiverseServer(
            [make_server("IB", [crash]), make_server("OR"), make_server("MS")],
            adjudication="majority",
        )
        net_faults = [
            FaultSpec(
                "NET-DROP", "drops order-line insert frames",
                SqlPatternTrigger(r"INSERT\s+INTO\s+order_line"),
                DropFrameEffect(count=4),
            ),
            FaultSpec(
                "NET-DELAY", "delays stock update frames",
                SqlPatternTrigger(r"UPDATE\s+stock"),
                DelayFrameEffect(delay=6.0),
            ),
            FaultSpec(
                "NET-DUP", "duplicates history insert frames",
                SqlPatternTrigger(r"INSERT\s+INTO\s+history"),
                DuplicateFrameEffect(gap=2.0),
            ),
            FaultSpec(
                "NET-REORDER", "reorders customer balance reads",
                SqlPatternTrigger(r"SELECT\s+c_balance"),
                ReorderFrameEffect(hold=3.0),
            ),
            FaultSpec(
                "NET-CORRUPT", "corrupts district update frames",
                SqlPatternTrigger(r"UPDATE\s+district"),
                CorruptFrameEffect(count=3),
            ),
            FaultSpec(
                "NET-RESET", "resets connections on new-order inserts",
                SqlPatternTrigger(r"INSERT\s+INTO\s+orders"),
                ConnectionResetEffect(count=3),
            ),
            FaultSpec(
                "NET-PARTITION", "partitions the wire on warehouse reads",
                SqlPatternTrigger(r"SELECT\s+w_tax"),
                PartitionEffect(duration=24.0),
            ),
        ]
        self.net_server = NetServer(
            self.server,
            NetPolicy(idle_deadline=4096.0, queue_deadline=128.0),
        )
        self.network = SimulatedNetwork(
            self.net_server, injector=FaultInjector(net_faults)
        )
        self.supervisors = [
            SessionSupervisor(
                self.network,
                policy=ClientPolicy(request_timeout=24.0, circuit_threshold=16),
            )
            for _ in range(self.terminals)
        ]
        return list(self.supervisors)

    def report(self, metrics: WorkloadMetrics, runners: List[WorkloadRunner]) -> bool:
        from repro.reliability import NetworkPolicyModel

        net = self.net_server.stats
        wire = self.network.stats
        print(f"served 3v majority under network storm "
              f"({self.terminals} terminals): "
              f"{metrics.transactions} transactions, "
              f"{metrics.statements_per_second:.0f} stmt/s")
        print(f"client-visible: network errors={metrics.network_errors} "
              f"crashes={metrics.crashes} outages={metrics.outages} "
              f"aborted={metrics.aborted_transactions} "
              f"(retried to success={metrics.retried_successes})")
        print(f"wire: sent={wire.frames_sent} delivered={wire.frames_delivered} "
              f"dropped={wire.frames_dropped} dup'd={wire.frames_duplicated} "
              f"delayed={wire.frames_delayed} resets={wire.resets}")
        print(f"sessions: opened={net.sessions_opened} "
              f"resumed={net.sessions_resumed} expired={net.sessions_expired}")
        print(f"exactly-once: duplicates suppressed={net.duplicates_suppressed} "
              f"corrupt frames refused={net.corrupt_frames} "
              f"seq gaps={net.seq_gaps}")
        resends = sum(r.endpoint.stats.resends for r in runners)  # type: ignore[attr-defined]
        safe = sum(r.endpoint.stats.safe_retries for r in runners)  # type: ignore[attr-defined]
        unsafe = sum(r.endpoint.stats.unsafe_aborts for r in runners)  # type: ignore[attr-defined]
        print(f"supervisors: resends={resends} analyzer-approved retries={safe} "
              f"retry-unsafe aborts={unsafe}")
        print(f"backpressure: parked={net.parked_statements} "
              f"compares shed={net.shed_compares} "
              f"statements shed={net.shed_statements}")
        disagreements = self.server.verify_consistency()
        print(f"replica consistency after storm: "
              f"{disagreements or 'all replicas agree'}")
        if wire.frames_sent:
            loss = min(
                0.95,
                (wire.frames_dropped + wire.resets) / wire.frames_sent,
            )
            model = NetworkPolicyModel(loss_probability=loss)
            print(f"availability model: observed loss {loss:.3f} -> "
                  f"request success "
                  f"{model.request_success_probability():.6f}, "
                  f"expected retry delay "
                  f"{model.expected_retry_delay():.1f} ticks")
        return not disagreements


class RaceStorm(Storm):
    """Interleaved terminals racing an anomaly-injecting replica.

    Four TPC-C terminals interleave at *statement* granularity against
    the served majority deployment while the IB replica's reads are
    poisoned with textbook concurrency anomalies — lost updates, dirty
    reads, phantom rows, and a skewed aggregate.  Two things must hold
    at once: the conflict analyzer's commuting certificates keep
    read-only statements flowing past open transactions (admission
    instead of parking), and the majority adjudicator outvotes every
    injected anomaly, so the interleaved workload finishes with zero
    client-visible divergences and consistent replicas.
    """

    name = "racestorm"
    summary = (
        "served 3-version majority configuration with statement-"
        "interleaved TPC-C terminals, conflict-aware admission, and "
        "concurrency-anomaly faults on the IB replica"
    )
    terminals = 4
    default_count = 60
    granularity = "statement"

    def __init__(self) -> None:
        from repro.workload import TransactionMix

        # Read-heavy mix: order-status and stock-level terminals are the
        # ones the admission certificates can wave past an open
        # new-order/payment transaction.
        self.runner_kwargs: Dict[str, object] = {
            "retries": 6,
            "mix": TransactionMix(
                new_order=25.0,
                payment=15.0,
                order_status=35.0,
                delivery=5.0,
                stock_level=20.0,
            ),
        }

    def endpoints(self) -> List[SqlEndpoint]:
        from repro.faults import (
            Detectability,
            DirtyReadEffect,
            FailureKind,
            FaultSpec,
            LostUpdateEffect,
            PhantomRowEffect,
            SqlPatternTrigger,
        )
        from repro.middleware import DiverseServer
        from repro.net import (
            ClientPolicy,
            NetPolicy,
            NetServer,
            SessionSupervisor,
            SimulatedNetwork,
        )
        from repro.servers import make_server

        def anomaly(fault_id, description, pattern, effect):
            return FaultSpec(
                fault_id,
                description,
                SqlPatternTrigger(pattern),
                effect,
                kind=FailureKind.CONCURRENCY,
                detectability=Detectability.NON_SELF_EVIDENT,
            )

        races = [
            anomaly(
                "RACE-LOSTUPDATE",
                "customer balance reads miss concurrent payments",
                r"SELECT\s+c_balance",
                LostUpdateEffect(delta=1.0),
            ),
            anomaly(
                "RACE-DIRTYREAD",
                "item price reads see uncommitted repricing",
                r"SELECT\s+i_price",
                DirtyReadEffect(delta=1.0),
            ),
            anomaly(
                "RACE-PHANTOM",
                "order-status scans grow phantom order rows",
                r"SELECT\s+o_id",
                PhantomRowEffect(),
            ),
            anomaly(
                "RACE-SKEW",
                "stock-level aggregates drift under write skew",
                r"COUNT\s*\(\s*DISTINCT\s+s_i_id",
                DirtyReadEffect(delta=2.0),
            ),
        ]
        self.server = DiverseServer(
            [make_server("IB", races), make_server("OR"), make_server("MS")],
            adjudication="majority",
        )
        # Short queue deadline: a terminal whose statement parks behind
        # a conflicting transaction sheds fast and retries, instead of
        # stalling the interleaved schedule for the full wait.  The
        # certificates are what keep commuting reads out of that path.
        self.net_server = NetServer(
            self.server,
            NetPolicy(idle_deadline=4096.0, queue_deadline=12.0),
        )
        self.network = SimulatedNetwork(self.net_server)
        self.supervisors = [
            SessionSupervisor(
                self.network,
                policy=ClientPolicy(request_timeout=24.0, circuit_threshold=16),
            )
            for _ in range(self.terminals)
        ]
        return list(self.supervisors)

    def report(self, metrics: WorkloadMetrics, runners: List[WorkloadRunner]) -> bool:
        net = self.net_server.stats
        stats = self.server.stats
        ib = self.server.replica("IB")
        print(f"served 3v majority under race storm "
              f"({self.terminals} statement-interleaved terminals): "
              f"{metrics.transactions} transactions, "
              f"{metrics.statements_per_second:.0f} stmt/s")
        print(f"admission: commuting statements admitted="
              f"{net.admitted_commuting} parked={net.parked_statements} "
              f"(unknown={net.parked_unknown}) "
              f"max depth={net.max_parked_depth}")
        parked_done = net.parked_statements
        mean_wait = net.parked_wait_total / parked_done if parked_done else 0.0
        print(f"parked wait (virtual): mean={mean_wait:.1f} "
              f"max={net.parked_wait_max:.1f}")
        print(f"anomalies outvoted: disagreements detected="
              f"{stats.disagreements_detected} masked={stats.failures_masked} "
              f"IB outvoted={ib.stats.outvoted} time(s)")
        print(f"client-visible: disagreements={metrics.detected_disagreements} "
              f"network errors={metrics.network_errors} "
              f"aborted={metrics.aborted_transactions} "
              f"(retried to success={metrics.retried_successes})")
        disagreements = self.server.verify_consistency()
        print(f"replica consistency after storm: "
              f"{disagreements or 'all replicas agree'}")
        return not disagreements


#: The dispatch registry: command name -> storm class.
STORMS: Dict[str, Type[Storm]] = {
    storm.name: storm
    for storm in (CrashStorm, HangStorm, DiskStorm, NetStorm, RaceStorm)
}
