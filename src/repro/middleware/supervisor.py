"""Replica supervision: the lifecycle layer of the diverse middleware.

The paper's Section 2.1 availability argument — "servers that are
diagnosed as correct can continue operation while recovery is performed
on the faulty server[s]" — needs more than fire-once log replay to hold
up under sustained load.  This module supplies the machinery real
replication middleware has:

* a per-replica health **state machine**
  (ACTIVE → SUSPECTED → QUARANTINED → FAILED/RETIRED) driven by a
  deterministic :class:`VirtualClock`;
* **bounded recovery retries with exponential backoff** instead of a
  single synchronous replay attempt;
* a **circuit breaker** that permanently retires a replica caught in a
  crash loop (repeated failed recoveries inside a sliding window);
* **checkpointed recovery**: periodic engine-state snapshots so replay
  cost is bounded by writes-since-checkpoint, not the full history;
* **graceful degradation**: a configurable adjudication fallback chain
  (majority → compare → primary) with quorum-loss accounting when the
  active replica set drops below what the configured policy needs;
* a statement **watchdog**: per-statement deadline budgets in
  virtual-cost units (``statement_deadline``) so hung or stalled
  replicas are excluded, audited, and quarantined; the same deadline
  bounds recovery replay, so a replica that stalls *during* recovery
  fails the attempt — and eventually the circuit breaker — instead of
  wedging the recovery loop, and one
  :class:`TimeoutAuditEntry` per violation so the trail is reviewable
  (which replica, which statement, how far over budget, in service or
  during recovery replay).

Everything is deterministic: time is the virtual clock, which advances
one unit per statement executed through the middleware, so backoff
schedules, circuit-breaker windows, and checkpoint cadence reproduce
exactly across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import EngineCrash, FeatureNotSupported, ReproError, SqlError
from repro.sqlengine.engine import EngineSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.middleware.server import DiverseServer, Replica


class RecoveryStalled(ReproError):
    """A replayed statement blew the recovery deadline.

    Raised inside :meth:`ReplicaSupervisor._replay` and caught by
    :meth:`ReplicaSupervisor.attempt_recovery`: the attempt fails like a
    recovery crash, so stalls during replay feed the same backoff and
    circuit-breaker machinery instead of letting a hung replay wedge the
    recovery loop forever.
    """


class ReplicaState(Enum):
    """Health state of one replica inside the middleware.

    ``ACTIVE``
        Serving statements and voting.
    ``SUSPECTED``
        An anomaly (crash or out-vote) was just observed; the replica is
        given one retry before any eviction decision.  Transient.
    ``QUARANTINED``
        Removed from the active set; recovery attempts are scheduled
        with exponential backoff on the virtual clock.
    ``FAILED``
        Recovery was abandoned (per-incident retry budget exhausted, or
        supervision is disabled).  Manual :meth:`DiverseServer.recover`
        can still bring the replica back.
    ``RETIRED``
        The circuit breaker tripped: too many failed recoveries inside
        the window (a crash loop).  Exits only through an online
        rebuild (or a forced manual recovery).
    ``REBUILDING``
        Being re-seeded from a healthy-majority snapshot while the
        middleware keeps serving: seed restore, then write-delta
        replay, then a quorum consistency check gates re-admission.
    """

    ACTIVE = "active"
    SUSPECTED = "suspected"
    QUARANTINED = "quarantined"
    FAILED = "failed"
    RETIRED = "retired"
    REBUILDING = "rebuilding"


class VirtualClock:
    """Deterministic time source for the supervisor.

    The middleware advances the clock one unit per client statement, so
    backoff delays are measured in statements — reproducible and free of
    wall-clock flakiness.  Tests may advance it directly.
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance(self, delta: float = 1.0) -> float:
        if delta < 0:
            raise ValueError("the virtual clock cannot run backwards")
        self._now += delta
        return self._now


#: Minimum active replicas each adjudication policy needs to deliver
#: its guarantee (majority voting is meaningless below three).
POLICY_QUORUM = {"majority": 3, "compare": 2, "primary": 1}

#: Adjudication fallback order when active replicas drop below the
#: configured policy's quorum (see :data:`POLICY_QUORUM`).
DEGRADATION_CHAIN = ("majority", "compare", "primary")

#: Circuit breaker: this many failed recoveries within
#: :data:`CIRCUIT_WINDOW` clock units retire the replica for good.
CIRCUIT_THRESHOLD = 5
CIRCUIT_WINDOW = 256.0

#: Donor snapshot rows copied per clock tick while seeding a rebuild;
#: the seed phase of a rebuild therefore costs
#: ``ceil(donor rows / REBUILD_SEED_ROWS)`` ticks of live traffic.
REBUILD_SEED_ROWS = 256

#: Write-log statements replayed per tick while a rebuilding replica
#: catches up with the delta accumulated since its seed snapshot.
#: Catch-up converges only while this exceeds the live write arrival
#: rate (at most one write per tick).
REBUILD_BATCH = 8

#: Failed recovery attempts per incident before giving up (FAILED).
MAX_RECOVERY_ATTEMPTS = 8

#: Cap on the backoff before a recovery retry, in clock units.
RECOVERY_BACKOFF_CAP = 64.0


def backoff_delay(attempt: int, cap: float) -> float:
    """Exponential backoff before retry ``attempt``:
    ``min(2 ** (attempt - 1), cap)`` virtual-clock units; attempt 0 (the
    first of an incident) is immediate. The replica supervisor and the
    session supervisor's reconnects share it, each with its own cap."""
    if attempt <= 0:
        return 0.0
    return min(2.0 ** (attempt - 1), cap)


@dataclass
class SupervisorPolicy:
    """Tunable knobs of the replica supervision subsystem."""

    #: Allow the single-shot retry on *writes* the static analyzer
    #: proves re-execution-safe (state-idempotent with a reproducible
    #: rowcount — e.g. ``UPDATE t SET lbl = 'x' WHERE id = 1``).  Off
    #: reverts to the blanket "writes never retry" rule.
    idempotent_write_retry: bool = True
    #: Snapshot every active replica's engine after this many committed
    #: writes; ``None`` disables checkpointing (full replay always).
    checkpoint_interval: Optional[int] = 32
    #: Per-statement deadline budget in virtual-cost units.  A replica
    #: whose answer costs more is treated as timed out: its answer is
    #: excluded from adjudication, the event is audited as a
    #: self-evident performance failure, and the replica is quarantined
    #: exactly like a crash.  ``None`` disables the watchdog (a hung
    #: replica is then invisible until it answers, if ever).  Recovery
    #: replay is held to the same budget: a replayed statement costing
    #: more fails the recovery attempt (backoff, then circuit breaker).
    statement_deadline: Optional[float] = None


@dataclass
class Checkpoint:
    """One replica's engine snapshot plus its position in the write log."""

    log_position: int
    snapshot: EngineSnapshot


@dataclass
class RebuildProgress:
    """State of one in-flight online rebuild.

    The donor snapshot is captured when the rebuild starts; seeding is
    charged in ticks proportional to the donor's row count, after
    which the snapshot is installed and the write-log delta past
    ``cursor`` is replayed batch-by-batch until the replica has caught
    up with live traffic.
    """

    started_at: float
    snapshot: EngineSnapshot
    #: Next write-log index to replay once seeded.
    cursor: int
    #: Donor rows to copy during the seed phase, and progress so far.
    seed_rows_total: int
    seed_rows_loaded: int = 0
    seeded: bool = False


@dataclass
class ReplicaHealth:
    """Supervision bookkeeping for one replica."""

    #: Failed recovery attempts in the current incident.
    attempts: int = 0
    #: Virtual time of the next scheduled recovery attempt.
    next_attempt_at: Optional[float] = None
    #: Virtual times of failed recoveries (pruned to the circuit window).
    failure_times: list[float] = field(default_factory=list)
    #: Total quarantine incidents.
    quarantines: int = 0
    #: Latest engine snapshot, if checkpointing is enabled.
    checkpoint: Optional[Checkpoint] = None
    #: Statements replayed by each successful recovery (bench telemetry).
    replay_lengths: list[int] = field(default_factory=list)
    #: The in-flight online rebuild, while state is REBUILDING.
    rebuild: Optional[RebuildProgress] = None
    #: Completed online rebuilds.
    rebuilds: int = 0
    #: Virtual time the last successful rebuild took (rebuild MTTR).
    last_rebuild_duration: float = 0.0


@dataclass
class TimeoutAuditEntry:
    """One statement-deadline violation observed by the middleware.

    ``virtual_cost`` is the offending answer's cost — infinite for a
    hang (the replica never returned), finite for a stall.
    """

    replica: str
    sql: str
    virtual_cost: float
    deadline: float
    during_recovery: bool = False

    @property
    def kind(self) -> str:
        """``hang`` (never returned) or ``stall`` (returned too late)."""
        return "hang" if math.isinf(self.virtual_cost) else "stall"


class ReplicaSupervisor:
    """Drives replica lifecycle for one :class:`DiverseServer`.

    The server reports incidents (:meth:`quarantine`) and ticks the
    clock once per statement (:meth:`tick`); the supervisor schedules
    and performs recoveries, takes checkpoints, trips the circuit
    breaker, and picks the effective adjudication policy under
    degradation.  All counters surface through ``MiddlewareStats``.
    """

    def __init__(self, policy: Optional[SupervisorPolicy] = None) -> None:
        self.policy = policy or SupervisorPolicy()
        self.clock = VirtualClock()
        self._server: Optional["DiverseServer"] = None
        self._last_checkpoint_writes = 0

    def attach(self, server: "DiverseServer") -> None:
        self._server = server

    @property
    def stats(self):
        return self._server.stats

    # -- statement-time hooks ------------------------------------------------

    def tick(self) -> None:
        """Advance virtual time one statement and run due recoveries."""
        self.clock.advance(1.0)
        self.poll()

    def poll(self) -> None:
        """Attempt recovery on every quarantined replica whose backoff
        has elapsed, and advance in-flight rebuilds one step."""
        for replica in self._server.replicas:
            health = replica.health
            if (
                replica.state is ReplicaState.QUARANTINED
                and health.next_attempt_at is not None
                and health.next_attempt_at <= self.clock.now
            ):
                self.attempt_recovery(replica)
            elif replica.state is ReplicaState.REBUILDING:
                self.advance_rebuild(replica)

    def checkpoint_due(
        self, interval: Optional[int], since_writes: int
    ) -> list["Replica"]:
        """The replicas to checkpoint now — the one cadence rule of the
        in-memory and the durable checkpoints: every active replica
        once ``interval`` writes committed past ``since_writes``, but
        none while a transaction is open (the write log's BEGIN/COMMIT
        markers must not straddle a checkpoint boundary); the next
        committed write asks again."""
        if not interval or self.stats.writes - since_writes < interval:
            return []
        active = self._server.active_replicas()
        if any(r.product.in_transaction for r in active):
            return []
        return active

    def maybe_checkpoint(self) -> None:
        """Snapshot all active replicas once enough writes accumulated."""
        active = self.checkpoint_due(
            self.policy.checkpoint_interval, self._last_checkpoint_writes
        )
        if not active:
            return
        position = len(self._server._write_log)
        for replica in active:
            replica.health.checkpoint = Checkpoint(
                log_position=position,
                snapshot=replica.product.snapshot(),
            )
        self.stats.checkpoints += 1
        self._last_checkpoint_writes = self.stats.writes

    # -- incidents -----------------------------------------------------------

    def quarantine(self, replica: "Replica") -> None:
        """Evict a replica from the active set and start recovering it.

        The first recovery attempt of an incident runs immediately;
        subsequent attempts back off exponentially.
        """
        health = replica.health
        replica.state = ReplicaState.QUARANTINED
        health.quarantines += 1
        health.attempts = 0
        health.next_attempt_at = self.clock.now
        self.stats.quarantines += 1
        self.attempt_recovery(replica)

    def attempt_recovery(self, replica: "Replica", *, manual: bool = False) -> bool:
        """One recovery attempt: checkpoint restore + tail replay, or
        full replay when no checkpoint exists.  Returns success.  A
        replay that crashes, stalls, or meets a write the replica's
        dialect refuses (committed while it was out of service) fails
        the attempt: backoff and the circuit breaker take it, and an
        online rebuild seeds it past that write."""
        health = replica.health
        try:
            replayed = self._replay(replica)
        except (EngineCrash, RecoveryStalled, FeatureNotSupported):
            self._recovery_failed(replica, manual=manual)
            return False
        replica.state = ReplicaState.ACTIVE
        health.attempts = 0
        health.next_attempt_at = None
        health.replay_lengths.append(replayed)
        self.stats.replayed_statements += replayed
        replica.stats.recoveries += 1
        self.stats.recoveries += 1
        self._server._replica_recovered(replica)
        return True

    def retire(self, replica: "Replica") -> None:
        """Circuit breaker action: take the replica out of service.

        Terminal until an online rebuild (:meth:`DiverseServer.rebuild`)
        or a forced recovery.  The in-memory checkpoint is discarded —
        it may capture the very corruption that retired the replica.
        """
        replica.state = ReplicaState.RETIRED
        replica.health.next_attempt_at = None
        replica.health.checkpoint = None
        replica.health.rebuild = None
        self.stats.retirements += 1

    # -- online rebuild ------------------------------------------------------

    def start_rebuild(self, replica: "Replica") -> bool:
        """Begin re-seeding a RETIRED/FAILED replica from the healthy
        majority while the middleware keeps serving.

        Captures a snapshot of the first active replica (the donor) and
        the current write-log position; seeding and delta replay then
        proceed incrementally, one step per clock tick.  Returns False
        (and leaves the replica untouched) when no healthy donor is
        available or a transaction is open — the caller may retry.
        """
        if replica.state not in (ReplicaState.RETIRED, ReplicaState.FAILED):
            return False
        donors = self._server.active_replicas()
        if not donors:
            return False
        if any(r.product.in_transaction for r in donors):
            return False
        donor = donors[0]
        replica.health.rebuild = RebuildProgress(
            started_at=self.clock.now,
            snapshot=donor.product.snapshot(),
            cursor=len(self._server._write_log),
            seed_rows_total=donor.product.row_count(),
        )
        replica.state = ReplicaState.REBUILDING
        self.stats.rebuilds_started += 1
        return True

    def advance_rebuild(self, replica: "Replica") -> None:
        """One tick of rebuild progress: seed-copy budgeted rows, or
        replay a batch of the write-log delta; admit when caught up."""
        rebuild = replica.health.rebuild
        if rebuild is None:  # pragma: no cover - state invariant
            replica.state = ReplicaState.RETIRED
            return
        product = replica.product
        if not rebuild.seeded:
            rebuild.seed_rows_loaded += REBUILD_SEED_ROWS
            if rebuild.seed_rows_loaded >= rebuild.seed_rows_total:
                product.restart()  # clear any crash flag before install
                product.restore(rebuild.snapshot)
                rebuild.seeded = True
            return
        log = self._server._write_log

        def batch():
            # Counted as drawn, so a failed step still accounts for the
            # statement it failed on.
            for sql in log[rebuild.cursor:rebuild.cursor + REBUILD_BATCH]:
                rebuild.cursor += 1
                self.stats.rebuild_replayed_statements += 1
                yield sql

        try:
            self._replay_log(replica, batch())
        except (EngineCrash, RecoveryStalled, FeatureNotSupported):
            self._rebuild_failed(replica)
            return
        if rebuild.cursor >= len(log) and not product.in_transaction:
            self._try_admit(replica)

    def _try_admit(self, replica: "Replica") -> None:
        """Re-admission gate: the rebuilt state must agree with the
        quorum of active replicas before the replica serves again."""
        active = self._server.active_replicas()
        if any(r.product.in_transaction for r in active):
            return  # mid-transaction states are not comparable; retry
        if active and not self._matches_quorum(replica, active):
            self._rebuild_failed(replica)
            return
        rebuild = replica.health.rebuild
        health = replica.health
        replica.state = ReplicaState.ACTIVE
        health.attempts = 0
        health.next_attempt_at = None
        health.failure_times.clear()
        health.rebuilds += 1
        if rebuild is not None:
            health.last_rebuild_duration = self.clock.now - rebuild.started_at
        health.rebuild = None
        self.stats.rebuilds_completed += 1
        self._server._replica_recovered(replica)

    def _matches_quorum(self, replica: "Replica", active: list) -> bool:
        """True when the rebuilt replica's full normalized state equals
        a majority of the active replicas' states (the
        ``verify_consistency`` criterion applied at the admission
        gate)."""
        target = replica.product.normalized_state()
        matches = sum(1 for peer in active if peer.product.normalized_state() == target)
        return 2 * matches > len(active)

    def _rebuild_failed(self, replica: "Replica") -> None:
        """A rebuild step crashed, stalled, or failed admission: back
        to RETIRED."""
        replica.state = ReplicaState.RETIRED
        replica.health.rebuild = None
        self.stats.rebuilds_failed += 1

    # -- degradation ---------------------------------------------------------

    def effective_adjudication(
        self, configured: str, active_count: int, total_count: int
    ) -> str:
        """The strongest policy in the degradation chain the current
        active replica count can support, starting from ``configured``.

        Quorum requirements are capped at the deployment's total replica
        count: a 2-replica ``majority`` configuration never had three
        voters, so it only degrades on actual replica loss.
        """

        def need(policy: str) -> int:
            return min(POLICY_QUORUM.get(policy, 1), total_count)

        if active_count >= need(configured):
            return configured
        if configured in DEGRADATION_CHAIN:
            position = DEGRADATION_CHAIN.index(configured)
            for candidate in DEGRADATION_CHAIN[position + 1:]:
                if active_count >= need(candidate):
                    return candidate
        return configured

    # -- internals -----------------------------------------------------------

    def _replay(self, replica: "Replica") -> int:
        """Rebuild a replica's engine state; returns statements replayed.

        With a checkpoint: restore the snapshot, replay only the write
        log tail past its position.  Without: reset to a fresh install
        and replay the full history.  The product is in its recovery
        phase (:meth:`ServerProduct.recovering`) so recovery-scoped faults
        (:class:`repro.faults.triggers.RecoveryTrigger`) can fire.
        """
        product = replica.product
        health = replica.health
        log = self._server._write_log
        if health.checkpoint is not None:
            product.restart()
            product.restore(health.checkpoint.snapshot)
            tail = log[health.checkpoint.log_position:]
            self.stats.checkpoint_replays += 1
        else:
            product.reset()
            product.restart()
            tail = list(log)
            self.stats.full_replays += 1
        pending = self._server._pending_write
        if pending is not None:
            tail = tail + [pending]
        self._replay_log(replica, tail)
        return len(tail)

    def _replay_log(self, replica: "Replica", statements: Iterable[str]) -> None:
        """Re-execute write-log statements on one replica, with its
        product in the recovery phase: each text runs as the call it ran
        live (:meth:`DiverseServer.statement_call`), on the replica's
        own prepared handle, so fault triggers see the same
        replica-dialect text.  Statements that legitimately errored at
        commit time error again and are skipped; one that costs more
        than the recovery deadline is audited and raises
        :class:`RecoveryStalled`; an :class:`EngineCrash` or a dialect
        refusal (:class:`FeatureNotSupported`) propagates.  The caller
        decides what a failure means."""
        server = self._server
        product = replica.product
        deadline = self.policy.statement_deadline
        with product.recovering():
            for sql in statements:
                try:
                    call, _ = server.statement_call(sql)
                    result = server._run(product, call)
                except SqlError:
                    continue
                if deadline is not None and result.virtual_cost > deadline:
                    self.stats.recovery_timeouts += 1
                    server.timeout_audit.append(
                        TimeoutAuditEntry(
                            replica=replica.key,
                            sql=sql,
                            virtual_cost=result.virtual_cost,
                            deadline=deadline,
                            during_recovery=True,
                        )
                    )
                    raise RecoveryStalled(
                        f"replica {replica.key} stalled replaying {sql!r} "
                        f"(cost {result.virtual_cost} > deadline {deadline})"
                    )

    def _recovery_failed(self, replica: "Replica", *, manual: bool) -> None:
        health = replica.health
        now = self.clock.now
        health.failure_times.append(now)
        health.failure_times = [
            t for t in health.failure_times if now - t <= CIRCUIT_WINDOW
        ]
        if manual and not self._server.supervised:
            replica.state = ReplicaState.FAILED
            return
        if len(health.failure_times) >= CIRCUIT_THRESHOLD:
            self.retire(replica)
            return
        health.attempts += 1
        if health.attempts >= MAX_RECOVERY_ATTEMPTS:
            replica.state = ReplicaState.FAILED
            health.next_attempt_at = None
            return
        replica.state = ReplicaState.QUARANTINED
        health.next_attempt_at = now + backoff_delay(health.attempts, RECOVERY_BACKOFF_CAP)
        self.stats.backoff_waits += 1
