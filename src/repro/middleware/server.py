"""The diverse-redundancy fault-tolerant SQL server.

``DiverseServer`` is the "middleware" of the paper's conclusions: it
fans every statement out to two or more diverse off-the-shelf server
products (black-box approach: only their client interfaces are used),
compares the answers after representation normalisation, adjudicates,
and manages replica failure and recovery.

Adjudication policies
---------------------

``compare``
    Pure error *detection* (the 2-version configuration of Table 3):
    all active replicas must agree; disagreement raises
    :class:`~repro.errors.AdjudicationFailure` instead of returning a
    possibly-wrong answer.
``majority``
    Error *masking*: the answer backed by a strict majority of active
    replicas wins; out-voted replicas are suspected and queued for
    recovery.
``primary``
    No comparison: the first active replica answers (models a
    conventional non-diverse setup; used as a baseline in benchmarks).

Replica lifecycle is handled by the supervision subsystem
(:mod:`repro.middleware.supervisor`) when ``auto_recover`` is on: one
statement retry before suspicion, quarantine with exponential-backoff
recovery retries, a circuit breaker retiring crash-looping replicas,
checkpointed log replay, and graceful adjudication degradation when the
active set shrinks.  With ``auto_recover=False`` the middleware only
marks replicas FAILED/SUSPECTED and leaves recovery to explicit
:meth:`DiverseServer.recover` calls (the original fire-once behaviour).

Statement deadlines (the watchdog layer)
----------------------------------------

The paper counts *performance* failures — servers hanging or answering
far too slowly — as self-evident, but a replica that never returns has
no representation in a purely answer-driven middleware.  With
``SupervisorPolicy.statement_deadline`` set, every replica answer is
checked against a per-statement budget in virtual-cost units: answers
over budget are excluded from adjudication (the remaining responders
vote among themselves — straggler-tolerant adjudication), the event is
recorded in :attr:`MiddlewareStats.statement_timeouts` and the
:attr:`DiverseServer.timeout_audit` trail, and the straggler is
quarantined and recovered exactly like a crashed replica.  Reads get
one deadline retry (a transient stall is spared eviction); a write is
only re-run when the static analyzer (:mod:`repro.analysis`) proved it
re-execution-safe — otherwise its slow attempt already applied, and
the checkpointed replay path rebuilds the replica consistently
instead.

Static analysis (the semantic layer)
------------------------------------

With ``static_analysis=True`` (the default) every statement is analyzed
against a schema model maintained from the write history
(:class:`repro.analysis.schema.ScriptSchema`).  The resulting
:class:`~repro.analysis.verdicts.StatementVerdict` drives two
behaviours: SELECTs proven order-free vote on row *multisets* (two
correct products may return different row permutations without
disagreeing — no ORDER BY probe needed), and writes proven
re-execution-safe qualify for the single-shot statement retry that was
previously reserved for reads.

Recovery is log-based: the middleware keeps the history of committed
write statements, and a suspected/crashed replica is rebuilt by
restoring its latest checkpoint (if any) and replaying the write-log
tail onto it — the "recovery performed on the faulty server while
others continue" scenario of Section 2.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from repro.analysis.divergence import (
    PROFILES,
    DivergenceKind,
    StatementDivergence,
)
from repro.analysis.schema import ScriptSchema
from repro.analysis.verdicts import DDL_KINDS, WRITE_KINDS, StatementVerdict
from repro.errors import (
    AdjudicationFailure,
    EngineCrash,
    FeatureNotSupported,
    MiddlewareError,
    NoReplicasAvailable,
    SqlError,
    StatementTimeout,
)
from repro.middleware.comparator import ReplicaAnswer, ResultComparator
from repro.middleware.normalizer import normalized_state
from repro.middleware.pipeline import StatementPipeline
from repro.middleware.supervisor import (
    ReplicaHealth,
    ReplicaState,
    ReplicaSupervisor,
    SupervisorPolicy,
    TimeoutAuditEntry,
    VirtualClock,
)
from repro.servers.product import ServerProduct
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.analysis import StatementTraits
from repro.sqlengine.engine import EnginePrepared, Result
from repro.sqlengine.lexer import split_statements
from repro.sqlengine.params import splice_params

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.durability.manager import DurabilityManager

#: Statement kinds that modify state — the canonical set lives with the
#: static analyzer (:data:`repro.analysis.verdicts.WRITE_KINDS`).
_WRITE_KINDS = WRITE_KINDS

#: Statement kinds that change the schema: these bump the pipeline
#: generation, invalidating translation and verdict cache entries.
#: The canonical set lives with the analyzer too.
_DDL_KINDS = DDL_KINDS


@dataclass
class ReplicaStats:
    statements: int = 0
    errors: int = 0
    crashes: int = 0
    outvoted: int = 0
    recoveries: int = 0
    timeouts: int = 0


@dataclass
class Replica:
    product: ServerProduct
    state: ReplicaState = ReplicaState.ACTIVE
    stats: ReplicaStats = field(default_factory=ReplicaStats)
    health: ReplicaHealth = field(default_factory=ReplicaHealth)

    @property
    def key(self) -> str:
        return self.product.key


@dataclass
class MiddlewareStats:
    """Aggregate dependability bookkeeping for one DiverseServer."""

    statements: int = 0
    reads: int = 0
    writes: int = 0
    unanimous: int = 0
    disagreements_detected: int = 0
    failures_masked: int = 0
    adjudication_failures: int = 0
    replica_crashes: int = 0
    recoveries: int = 0
    performance_anomalies: int = 0
    # -- supervision counters -------------------------------------------
    #: Quarantine incidents (replica evicted pending recovery).
    quarantines: int = 0
    #: Recovery retries scheduled with a non-zero backoff delay.
    backoff_waits: int = 0
    #: Replicas permanently retired by the circuit breaker.
    retirements: int = 0
    #: Checkpoint events (every active replica snapshotted).
    checkpoints: int = 0
    #: Recoveries served from a checkpoint + log tail.
    checkpoint_replays: int = 0
    #: Recoveries that had to replay the full write log.
    full_replays: int = 0
    #: Statements replayed across all recoveries.
    replayed_statements: int = 0
    #: Single-shot statement retries issued before suspecting a replica.
    statement_retries: int = 0
    #: Retries whose answer matched (the replica was spared eviction).
    retries_saved: int = 0
    #: Statements served under a weaker adjudication policy than
    #: configured (graceful degradation).
    degraded_statements: int = 0
    #: Degraded statements served with no cross-checking at all (one
    #: active replica under a comparison policy): full quorum loss.
    quorum_losses: int = 0
    # -- watchdog counters ----------------------------------------------
    #: Replica answers excluded for blowing the statement deadline —
    #: self-evident performance failures (hangs and stalls).
    statement_timeouts: int = 0
    #: Recovery attempts failed because a replayed statement blew the
    #: recovery deadline (a replica stalling *during* recovery).
    recovery_timeouts: int = 0
    # -- static-analysis counters ----------------------------------------
    #: SELECTs the analyzer proved order-free and therefore voted as
    #: row multisets (no ORDER BY probe, no false order divergence).
    multiset_comparisons: int = 0
    #: Single-shot retries issued on writes the analyzer proved
    #: re-execution-safe (the generalisation of "writes never retry").
    idempotent_write_retries: int = 0
    #: Disagreement rounds where every cross-group product pair is
    #: statically proven BENIGN_DIALECT — legitimate dialect semantics,
    #: not a fault; out-voted replicas are spared suspicion.
    benign_dialect_divergences: int = 0
    #: Disagreement rounds the analyzer could not prove benign (the
    #: genuinely suspicious ones; these drive quarantine as before).
    fault_indicating_divergences: int = 0
    # -- dual-plan oracle counters ----------------------------------------
    #: SELECTs re-executed through both the compiled plan and the
    #: tree-walker on one replica (``ServerConfig.dual_plan``).
    dual_plan_checks: int = 0
    #: Checks where the two execution strategies disagreed — an
    #: optimiser-level wrong answer that cross-replica voting cannot
    #: see when every replica shares the same planner.
    dual_plan_divergences: int = 0
    # -- prepared/batch counters -----------------------------------------
    #: ``executemany`` invocations (one adjudication round each).
    batches: int = 0
    #: Rows executed through ``executemany``.
    batched_statements: int = 0
    #: Batched rows settled by the raw-equality fast path (identical
    #: bytes from every replica — no comparator vote needed).
    batch_fast_votes: int = 0
    # -- online rebuild counters ------------------------------------------
    #: Online rebuilds started (RETIRED/FAILED -> REBUILDING).
    rebuilds_started: int = 0
    #: Rebuilds that passed the quorum admission gate (-> ACTIVE).
    rebuilds_completed: int = 0
    #: Rebuilds that crashed, stalled, or failed admission (-> RETIRED).
    rebuilds_failed: int = 0
    #: Write-log delta statements replayed by rebuilds.
    rebuild_replayed_statements: int = 0
    # -- durability counters ----------------------------------------------
    #: Records appended across all per-replica WALs.
    wal_records: int = 0
    #: Storage faults fired on the WAL write path, by failure mode.
    wal_torn_writes: int = 0
    wal_lost_flushes: int = 0
    wal_corruptions: int = 0
    #: Durable checkpoints written (per replica per cadence event).
    durable_checkpoints: int = 0
    #: Whole-deployment restart recoveries performed from the medium.
    durable_recoveries: int = 0

    @property
    def detection_events(self) -> int:
        """Everything the redundancy surfaced: disagreements, crashes,
        performance anomalies, and statement timeouts."""
        return (
            self.disagreements_detected
            + self.replica_crashes
            + self.performance_anomalies
            + self.statement_timeouts
        )

    # Every counter is a plain int dataclass field, so reset/merge/
    # as_dict enumerate ``dataclasses.fields``: a counter added later is
    # automatically covered (and the stats audit test enforces it).

    def reset(self) -> None:
        """Zero every counter in place (shared-clock bench reruns)."""
        for spec in dataclass_fields(self):
            setattr(self, spec.name, spec.default)

    def merge(self, other: "MiddlewareStats") -> "MiddlewareStats":
        """Field-wise sum with ``other`` (aggregating across runs)."""
        merged = MiddlewareStats()
        for spec in dataclass_fields(self):
            setattr(
                merged,
                spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )
        return merged

    def as_dict(self) -> dict[str, int]:
        """Every counter by name (reporting; no field left behind)."""
        return {
            spec.name: getattr(self, spec.name) for spec in dataclass_fields(self)
        }


@dataclass
class ServerConfig:
    """Construction-time configuration for :class:`DiverseServer` (and
    :func:`replicated_server`).  One object carries every knob, so
    configurations can be shared, compared, and passed around instead
    of sprawling keyword lists."""

    adjudication: str = "majority"
    normalize: bool = True
    read_split: bool = False
    auto_recover: bool = True
    policy: Optional[SupervisorPolicy] = None
    clock: Optional[VirtualClock] = None
    allow_duplicates: bool = False
    static_analysis: bool = True
    #: Multi-plan divergence oracle (differential query execution): every
    #: adjudicated SELECT is additionally run twice on one replica —
    #: through its compiled plan and through the tree-walker — and the
    #: two answers compared like replica votes.  Catches optimiser-level
    #: wrong results that diverse voting misses when every replica
    #: shares the planner.  Off by default (it doubles read work).
    dual_plan: bool = False
    #: Durability subsystem (:class:`repro.durability.DurabilityManager`):
    #: per-replica write-ahead logs, durable checkpoints, and restart
    #: recovery from the storage medium.  ``None`` keeps the original
    #: in-memory-only deployment.
    durability: Optional["DurabilityManager"] = None


@dataclass
class StatementCall:
    """One execution of one statement, as seen by the replica plumbing.

    ``sql`` is the template text (with ``?`` placeholders for prepared
    statements); ``bound_sql`` is the literal-substituted text recorded
    in the write log so recovery replay needs no parameter store.  For
    unprepared statements the two are identical.  ``targets`` holds, per
    replica product, what that replica runs (see
    :meth:`DiverseServer._resolve`).
    """

    sql: str
    bound_sql: str
    params: tuple = ()
    prepared: Optional["PreparedStatement"] = None
    targets: dict[ServerProduct, Any] = field(default_factory=dict)


#: Upper bound on memoized PreparedStatement handles per server.
_PREPARED_CACHE_SIZE = 512


class DiverseServer:
    """A fault-tolerant SQL server built from diverse OTS products.

    Configure with a :class:`ServerConfig` (``config=``) or with the
    equivalent individual keywords; mixing both is an error.  Settings
    are keyword-only — ``replicas`` is the only positional argument.
    """

    def __init__(
        self,
        replicas: Sequence[ServerProduct],
        *,
        config: Optional[ServerConfig] = None,
        **kwargs: Any,
    ) -> None:
        if config is not None and kwargs:
            raise MiddlewareError(
                "pass either config= or individual settings, not both"
            )
        if config is None:
            try:
                config = ServerConfig(**kwargs)
            except TypeError as error:
                raise MiddlewareError(f"unknown server setting: {error}") from None
        adjudication = config.adjudication
        if len(replicas) < 2 and adjudication != "primary":
            raise MiddlewareError("a diverse server needs at least two replicas")
        if adjudication not in ("compare", "majority", "monitor", "primary"):
            raise MiddlewareError(f"unknown adjudication policy {adjudication!r}")
        if not config.allow_duplicates:
            seen = set()
            for product in replicas:
                if product.key in seen:
                    raise MiddlewareError(
                        f"duplicate product {product.key}: diversity requires "
                        "distinct products (use replicated_server for identical copies)"
                    )
                seen.add(product.key)
        self.config = config
        self.replicas = [Replica(product) for product in replicas]
        self.adjudication = adjudication
        self.comparator = ResultComparator(normalize=config.normalize)
        self.read_split = config.read_split
        self.auto_recover = config.auto_recover
        #: Static semantic analysis per statement: multiset voting for
        #: provably-unordered SELECTs and idempotence-gated write
        #: retries.  Off (ablation) reverts to ordered comparison and
        #: the blanket "writes never retry" rule.
        self.static_analysis = config.static_analysis
        self._schema = ScriptSchema()
        self.stats = MiddlewareStats()
        #: Memoized front-end stages (parse / per-dialect translation /
        #: analysis verdicts), invalidated on DDL via its generation.
        self.pipeline = StatementPipeline()
        self.supervisor = ReplicaSupervisor(policy=config.policy, clock=config.clock)
        self.supervisor.attach(self)
        #: Durability subsystem (per-replica WALs + durable checkpoints);
        #: ``None`` for the original in-memory-only deployment.
        self.durability = config.durability
        if self.durability is not None:
            self.durability.attach(self)
        self._write_log: list[str] = []
        #: The write statement currently in flight (not yet committed to
        #: the log); recoveries triggered mid-statement replay it too.
        self._pending_write: Optional[str] = None
        self._read_cursor = 0
        self._prepared: dict[str, PreparedStatement] = {}
        #: Called (no arguments) after each committed DDL statement has
        #: bumped the pipeline generation; the serving layer uses this
        #: to eagerly invalidate cross-session prepared handles.
        self.ddl_listeners: list[Callable[[], None]] = []
        #: (sql, group leaders) pairs recorded in ``monitor`` mode.
        self.disagreement_log: list[tuple[str, list[str]]] = []
        #: (sql, replica key) pairs where the dual-plan oracle found the
        #: compiled plan and the tree-walker disagreeing.
        self.dual_plan_log: list[tuple[str, str]] = []
        #: One entry per statement-deadline violation (service and
        #: recovery), alongside the fault audit.
        self.timeout_audit: list[TimeoutAuditEntry] = []

    @property
    def supervised(self) -> bool:
        """True when the supervision subsystem drives replica lifecycle."""
        return self.auto_recover

    @property
    def policy(self) -> SupervisorPolicy:
        return self.supervisor.policy

    @property
    def clock(self) -> VirtualClock:
        return self.supervisor.clock

    @property
    def statement_deadline(self) -> Optional[float]:
        """The per-statement deadline budget (virtual-cost units)."""
        return self.supervisor.policy.statement_deadline

    # -- replica management -----------------------------------------------

    def active_replicas(self) -> list[Replica]:
        return [replica for replica in self.replicas if replica.state is ReplicaState.ACTIVE]

    def replica(self, key: str) -> Replica:
        for replica in self.replicas:
            if replica.key == key:
                return replica
        raise KeyError(key)

    # -- execution -----------------------------------------------------------

    def execute(self, sql: str, params: Optional[Sequence[Any]] = None) -> Result:
        """Execute one statement through the redundant configuration.

        With ``params``, ``sql`` may contain ``?`` placeholders and is
        routed through the (memoized) prepared pipeline — the unified
        execution surface shared with :class:`~repro.servers.SqlServer`.
        """
        if params is not None:
            return self.prepare(sql).execute(tuple(params))
        statement, traits, positions = self.pipeline.parsed(sql)
        if positions:
            raise MiddlewareError(
                f"statement has {len(positions)} unbound parameter(s); "
                "use prepare() to execute it with values"
            )
        call = StatementCall(sql=sql, bound_sql=sql)
        return self._execute_bound(call, statement, traits)

    def explain(self, sql: str) -> str:
        """Render the logical plan one replica's planner would use for
        ``sql`` (memoized per statement text and schema generation)."""
        active = self.active_replicas()
        catalog = active[0].product.engine.catalog if active else None
        return self.pipeline.plan(sql, catalog)

    def def_use(self, sql: str):
        """Def/use cells of one statement against the current schema.

        Memoized per (text, schema generation) by the pipeline; works
        for prepared templates too (``?`` parameters parse and
        contribute no cells).  The serving layer uses this to maintain
        each transaction holder's write footprint and to certify
        commuting reads for mid-transaction admission."""
        statement, traits, _ = self.pipeline.parsed(sql)
        return self.pipeline.def_use(sql, statement, self._schema, traits)

    def abstraction(self, sql: str):
        """Ternary-logic predicate abstraction of one statement against
        the current schema: WHERE truth set, dead-predicate findings,
        and the TLP partition triple when one is certifiable.  Memoized
        per (text, schema generation) by the pipeline."""
        statement, _, _ = self.pipeline.parsed(sql)
        return self.pipeline.abstraction(sql, statement, self._schema)

    def prepare(self, sql: str) -> "PreparedStatement":
        """Parse, analyze, and translate ``sql`` once; execute it many
        times with bound parameters through the returned handle.
        Handles are memoized per statement text."""
        handle = self._prepared.get(sql)
        if handle is None:
            handle = PreparedStatement(self, sql)
            if len(self._prepared) >= _PREPARED_CACHE_SIZE:
                self._prepared.pop(next(iter(self._prepared)))
            self._prepared[sql] = handle
        return handle

    def _execute_bound(
        self,
        call: StatementCall,
        statement: ast.Statement,
        traits: StatementTraits,
        fast_unanimous: bool = False,
    ) -> Result:
        """The adjudicated execution core shared by the unprepared,
        prepared, and batched paths.  Charges exactly one supervisor
        tick — ``executemany`` calls this once per row, so deadlines
        and quarantine backoffs see batches as row sequences."""
        is_write = traits.kind in _WRITE_KINDS
        verdict: Optional[StatementVerdict] = None
        divergence: Optional[StatementDivergence] = None
        if self.static_analysis:
            verdict = self.pipeline.verdict(call.sql, statement, self._schema, traits)
            divergence = self.pipeline.divergence(
                call.sql, statement, self._schema, traits
            )
        self.stats.statements += 1
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1

        if self.supervised:
            self.supervisor.tick()

        active = self.active_replicas()
        if not active:
            states = ", ".join(f"{r.key}={r.state.value}" for r in self.replicas)
            raise NoReplicasAvailable(f"no active replicas ({states})")

        policy = self._effective_adjudication(len(active))
        single = policy == "primary" or (
            self.read_split and not is_write and policy != "compare"
        )
        if is_write or not single:
            # Resolve every replica's target before any replica runs, so
            # that a dialect refusal leaves no replica half-applied.
            for replica in active:
                call.targets[replica.product] = self._resolve(call, replica.product)
        self._pending_write = call.bound_sql if is_write else None
        try:
            if single:
                result = self._execute_single(call, active, is_write, policy, verdict)
            else:
                result = self._execute_compared(
                    call, active, is_write, policy, verdict, fast_unanimous,
                    divergence=divergence,
                )
        finally:
            self._pending_write = None
        if is_write:
            self._write_log.append(call.bound_sql)
            if self.static_analysis:
                self._schema.observe(statement)
            if traits.kind in _DDL_KINDS:
                self.pipeline.bump_generation()
                for listener in self.ddl_listeners:
                    listener()
            if self.durability is not None:
                self.durability.log_write(call, traits)
            if self.supervised:
                self.supervisor.maybe_checkpoint()
            if self.durability is not None:
                self.durability.maybe_checkpoint()
        if (
            self.config.dual_plan
            and not is_write
            and isinstance(statement, ast.SelectStatement)
        ):
            self._dual_plan_check(call, verdict, result)
        if policy != self.adjudication:
            result.warnings.append(
                f"adjudication degraded from {self.adjudication!r} to {policy!r}"
                " (too few active replicas)"
            )
        return result

    # -- dual-plan oracle --------------------------------------------------

    def _dual_plan_check(
        self,
        call: StatementCall,
        verdict: Optional[StatementVerdict],
        result: Result,
    ) -> None:
        """Multi-plan divergence oracle: re-run the SELECT twice on one
        replica — once through its compiled plan, once through the
        tree-walker — and compare the two answers exactly as replica
        votes are compared (same normalisation, same order verdict).
        Disagreement means an optimiser/executor-level wrong answer on
        that replica, a fault class cross-replica voting cannot see
        when every replica shares the same planner."""
        active = self.active_replicas()
        if not active:
            return
        replica = active[0]
        engine = replica.product.engine
        answers: list[ReplicaAnswer] = []
        for label, use_planner in (("planned", True), ("walker", False)):
            engine.use_planner = use_planner
            try:
                answer_result = self._run(replica.product, call)
                answers.append(
                    ReplicaAnswer(
                        replica=label,
                        status="ok",
                        columns=tuple(answer_result.columns),
                        rows=tuple(answer_result.rows),
                        rowcount=answer_result.rowcount,
                        virtual_cost=answer_result.virtual_cost,
                        result=answer_result,
                    )
                )
            except EngineCrash:
                replica.product.restart()
                answers.append(ReplicaAnswer(replica=label, status="crash"))
            except (SqlError, FeatureNotSupported) as error:
                answers.append(
                    ReplicaAnswer(replica=label, status="error", error=str(error))
                )
            finally:
                engine.use_planner = True
        if any(answer.status == "crash" for answer in answers):
            return  # a crashed run proves nothing about the planner
        self.stats.dual_plan_checks += 1
        ordered = not (verdict is not None and verdict.multiset_comparable)
        comparison = self.comparator.compare(answers, ordered=ordered)
        if not comparison.unanimous:
            self.stats.dual_plan_divergences += 1
            self.dual_plan_log.append((call.bound_sql, replica.key))
            result.warnings.append(
                f"dual-plan divergence on {replica.key}: compiled plan and "
                "tree-walker disagree"
            )

    def execute_script(self, sql: str) -> list[Result]:
        return [self.execute(statement) for statement in split_statements(sql)]

    def _effective_adjudication(self, active_count: int) -> str:
        """Degrade the adjudication policy when too few replicas remain."""
        if not self.supervised:
            return self.adjudication
        effective = self.supervisor.effective_adjudication(
            self.adjudication, active_count, len(self.replicas)
        )
        if effective != self.adjudication:
            self.stats.degraded_statements += 1
            if active_count < 2 and self.adjudication in ("majority", "compare"):
                self.stats.quorum_losses += 1
        return effective

    # -- single-replica path (primary / read-split) ---------------------------------

    def _execute_single(
        self,
        call: StatementCall,
        active: list[Replica],
        is_write: bool,
        policy: str,
        verdict: Optional[StatementVerdict] = None,
    ) -> Result:
        if is_write and policy != "primary":
            return self._execute_compared(call, active, is_write, policy, verdict)
        if is_write or policy == "primary":
            order = active  # primary answers; no read rotation
        else:
            order = self._rotate(active)
        deadline = self.statement_deadline
        crashed: list[Replica] = []
        timed_out: list[Replica] = []
        #: Replicas that already saw this statement (asked directly, or
        #: quarantined with it pending — recovery replays it for them).
        handled: set[str] = set()
        for replica in order:
            answer = self._ask_with_crash_retry(replica, call)
            handled.add(replica.key)
            if answer.status == "crash":
                crashed.append(replica)
                self._handle_crash(replica)
                continue
            if (
                deadline is not None
                and answer.status == "ok"
                and answer.virtual_cost > deadline
            ):
                retry = self._retry_within_deadline(
                    replica, call, is_write, deadline, verdict
                )
                if retry is None:
                    timed_out.append(replica)
                    self._handle_timeout(
                        replica, call.bound_sql, answer.virtual_cost, deadline
                    )
                    continue
                answer = retry
            if answer.status == "error":
                raise SqlError(answer.error)
            if is_write and policy == "primary":
                # Propagate the write to the other replicas unchecked.
                for other in active:
                    if other.key in handled:
                        continue
                    other_answer = self._ask(other, call)
                    if other_answer.status == "crash":
                        self._handle_crash(other)
                    elif (
                        deadline is not None
                        and other_answer.status == "ok"
                        and other_answer.virtual_cost > deadline
                    ):
                        self._handle_timeout(
                            other, call.bound_sql, other_answer.virtual_cost, deadline
                        )
            return answer.result
        if timed_out:
            keys = ", ".join(replica.key for replica in timed_out)
            raise StatementTimeout(
                f"no replica answered {call.bound_sql!r} within the deadline "
                f"(timed out: {keys})",
                deadline=deadline or 0.0,
            )
        keys = ", ".join(replica.key for replica in crashed)
        raise NoReplicasAvailable(f"all replicas crashed on this statement ({keys})")

    def _rotate(self, active: list[Replica]) -> list[Replica]:
        self._read_cursor = (self._read_cursor + 1) % len(active)
        return active[self._read_cursor :] + active[: self._read_cursor]

    # -- compared path ------------------------------------------------------------

    def _execute_compared(
        self,
        call: StatementCall,
        active: list[Replica],
        is_write: bool,
        policy: str,
        verdict: Optional[StatementVerdict] = None,
        fast_unanimous: bool = False,
        divergence: Optional[StatementDivergence] = None,
    ) -> Result:
        answers: list[ReplicaAnswer] = []
        crashed: list[Replica] = []
        for replica in active:
            answer = self._ask_with_crash_retry(replica, call)
            if answer.status == "crash":
                crashed.append(replica)
            else:
                answers.append(answer)
        for replica in crashed:
            self._handle_crash(replica)
        answers, timed_out = self._enforce_deadline(call, answers, is_write, verdict)
        if not answers:
            if timed_out:
                keys = ", ".join(answer.replica for answer in timed_out)
                raise StatementTimeout(
                    f"no replica answered {call.bound_sql!r} within the deadline "
                    f"(timed out: {keys})",
                    deadline=self.statement_deadline or 0.0,
                )
            keys = ", ".join(replica.key for replica in crashed)
            raise NoReplicasAvailable(f"all replicas crashed on this statement ({keys})")

        self._check_performance(answers)
        # The analyzer's order verdict picks the vote granularity: a
        # SELECT proven UNORDERED votes on the row multiset, so correct
        # replicas returning different physical row orders never read as
        # disagreement (and no ORDER BY probe is injected).  PARTIAL
        # stays ordered — a violated ORDER BY must still be detected.
        ordered = not (verdict is not None and verdict.multiset_comparable)
        if not ordered:
            self.stats.multiset_comparisons += 1
        if fast_unanimous and self._raw_unanimous(answers):
            # Batch fast path: every replica returned identical bytes,
            # which implies an identical vote under any normalization
            # and ordering — skip the comparator, same outcome.
            self.stats.unanimous += 1
            self.stats.batch_fast_votes += 1
            return answers[0].unwrap()
        comparison = self.comparator.compare(answers, ordered=ordered)
        if comparison.unanimous:
            self.stats.unanimous += 1
            return comparison.largest[0].unwrap()

        self.stats.disagreements_detected += 1
        # Triage: can the products legitimately disagree here?  Only
        # when every cross-group product pair is statically proven
        # BENIGN_DIALECT is the round benign; anything weaker (UNKNOWN,
        # AGREE_PROVEN, or an unanalyzed statement) stays suspicious.
        benign = self._benign_divergence(divergence, comparison)
        if benign:
            self.stats.benign_dialect_divergences += 1
        else:
            self.stats.fault_indicating_divergences += 1
        if policy == "monitor":
            # Observation mode (Section 7: "the user could decide on an
            # ongoing basis which architecture is giving the best
            # trade-off"): log the disagreement, answer from the largest
            # agreeing group, never interrupt service.
            self.disagreement_log.append(
                (call.bound_sql, [g[0].replica for g in comparison.groups])
            )
            result = comparison.largest[0].unwrap()
            result.warnings.append(
                "replicas disagreed; answered from the largest agreeing group"
            )
            return result
        if policy == "compare":
            self.stats.adjudication_failures += 1
            raise AdjudicationFailure(
                f"replicas disagree on {call.bound_sql!r}: "
                + "; ".join(
                    f"[{', '.join(a.replica for a in group)}]" for group in comparison.groups
                ),
                disagreement=comparison,
            )
        winners = comparison.majority(len(answers))
        if winners is None:
            self.stats.adjudication_failures += 1
            raise AdjudicationFailure(
                f"no majority among replicas for {call.bound_sql!r}",
                disagreement=comparison,
            )
        self.stats.failures_masked += 1
        winner_key = winners[0].vote_key(
            normalize=self.comparator.normalize, ordered=ordered
        )
        outvoted = comparison.minority_replicas()
        for key in outvoted:
            replica = self.replica(key)
            if benign:
                # A proven dialect divergence is the replica behaving
                # correctly for its product: mask the difference, but
                # spend no retry and raise no suspicion.
                continue
            if self._retry_matches(
                replica, call, is_write, winner_key, verdict, ordered
            ):
                continue
            self._suspect(replica)
        result = winners[0].unwrap()
        result.warnings.append(
            f"masked divergent answer(s) from: {', '.join(sorted(outvoted))}"
        )
        return result

    def _benign_divergence(
        self,
        divergence: Optional[StatementDivergence],
        comparison,
    ) -> bool:
        """True when the statement's divergence analysis proves every
        cross-group product pair may legitimately disagree."""
        if divergence is None:
            return False
        normalized = self.comparator.normalize
        groups = comparison.groups
        for i, group_a in enumerate(groups):
            for group_b in groups[i + 1 :]:
                for a in group_a:
                    for b in group_b:
                        if a.replica not in PROFILES or b.replica not in PROFILES:
                            return False
                        key_a, key_b = (
                            x.vote_key(normalize=normalized, ordered=False) for x in (a, b)
                        )
                        pair_verdict = divergence.verdict(
                            a.replica, b.replica, normalized=normalized, rows_differ=key_a != key_b
                        )
                        if pair_verdict.kind is not DivergenceKind.BENIGN_DIALECT:
                            return False
        return True

    @staticmethod
    def _raw_unanimous(answers: list[ReplicaAnswer]) -> bool:
        """True when every answer is ok and byte-identical to the first."""
        first = answers[0]
        if first.status != "ok":
            return False
        return all(
            answer.status == "ok"
            and answer.columns == first.columns
            and answer.rows == first.rows
            and answer.rowcount == first.rowcount
            for answer in answers[1:]
        )

    #: A replica answering this many times slower than the fastest peer
    #: is flagged as a performance anomaly (self-evident failure class).
    PERFORMANCE_RATIO = 100.0
    #: Floor for the fastest peer's cost in the ratio check.  Guards
    #: against division-free blow-ups on zero cost without clamping to
    #: 1.0, which used to mask genuine stragglers whenever every
    #: virtual cost was sub-unit.
    PERFORMANCE_EPSILON = 1e-9

    def _check_performance(self, answers: list[ReplicaAnswer]) -> None:
        costs = [answer.virtual_cost for answer in answers if answer.status == "ok"]
        if len(costs) >= 2 and max(costs) > self.PERFORMANCE_RATIO * max(
            min(costs), self.PERFORMANCE_EPSILON
        ):
            self.stats.performance_anomalies += 1

    # -- statement watchdog ----------------------------------------------------

    def _enforce_deadline(
        self,
        call: StatementCall,
        answers: list[ReplicaAnswer],
        is_write: bool,
        verdict: Optional[StatementVerdict] = None,
    ) -> tuple[list[ReplicaAnswer], list[ReplicaAnswer]]:
        """Split answers into within-deadline responders and timed-out
        stragglers.  Stragglers are audited and quarantined; responders
        adjudicate among themselves (straggler tolerance).  With no
        deadline configured every answer is a responder."""
        deadline = self.statement_deadline
        if deadline is None:
            return answers, []
        responders: list[ReplicaAnswer] = []
        timed_out: list[ReplicaAnswer] = []
        for answer in answers:
            if answer.status != "ok" or answer.virtual_cost <= deadline:
                responders.append(answer)
                continue
            replica = self.replica(answer.replica)
            retry = self._retry_within_deadline(
                replica, call, is_write, deadline, verdict
            )
            if retry is not None:
                responders.append(retry)
                continue
            timed_out.append(answer)
            self._handle_timeout(replica, call.bound_sql, answer.virtual_cost, deadline)
        return responders, timed_out

    def _retry_within_deadline(
        self,
        replica: Replica,
        call: StatementCall,
        is_write: bool,
        deadline: float,
        verdict: Optional[StatementVerdict] = None,
    ) -> Optional[ReplicaAnswer]:
        """Re-run a statement once on a straggler; a transient stall
        clears on retry and the replica is spared quarantine.  Writes
        are only re-run when the analyzer proved re-execution safe —
        otherwise the slow attempt already applied them and a rerun
        would double-apply."""
        if not self._retry_safe(is_write, verdict):
            return None
        replica.state = ReplicaState.SUSPECTED
        self.stats.statement_retries += 1
        if is_write:
            self.stats.idempotent_write_retries += 1
        retry = self._ask(replica, call)
        if retry.status == "ok" and retry.virtual_cost <= deadline:
            replica.state = ReplicaState.ACTIVE
            self.stats.retries_saved += 1
            return retry
        return None

    def _handle_timeout(
        self, replica: Replica, sql: str, cost: float, deadline: float
    ) -> None:
        """Record a deadline violation (a self-evident performance
        failure) and hand the straggler to the supervisor like a crash:
        repeated timeouts drive ACTIVE → SUSPECTED → QUARANTINED."""
        self.stats.statement_timeouts += 1
        replica.stats.timeouts += 1
        self.timeout_audit.append(
            TimeoutAuditEntry(
                replica=replica.key,
                sql=sql,
                virtual_cost=cost,
                deadline=deadline,
                at=self.clock.now,
            )
        )
        if self.supervised:
            self.supervisor.quarantine(replica)
        else:
            replica.state = ReplicaState.FAILED

    # -- plumbing --------------------------------------------------------------------

    def _resolve(self, call: StatementCall, product: ServerProduct) -> Any:
        """What ``product`` runs for ``call``: the pipeline's translation
        of the statement into its dialect or, for a prepared call, its
        engine handle — (re)prepared from that translation when the
        schema generation moved."""
        if call.prepared is None:
            return self.pipeline.translation(call.sql, product.descriptor)
        handles = call.prepared._handles
        generation = self.pipeline.generation
        entry = handles.get(product)
        if entry is None or entry[0] != generation:
            translated = self.pipeline.translation(call.sql, product.descriptor)
            entry = handles[product] = (generation, product.prepare(translated))
        return entry[1]

    def _run(self, product: ServerProduct, call: StatementCall) -> Result:
        """Run ``call`` on one replica's product through its resolved
        target, resolving it first when it was not (a read only one
        replica answers)."""
        targets = call.targets
        if product not in targets:
            targets[product] = self._resolve(call, product)
        if call.prepared is not None:
            return targets[product].execute(call.params)
        return product.execute(targets[product])

    def _ask(self, replica: Replica, call: StatementCall) -> ReplicaAnswer:
        replica.stats.statements += 1
        try:
            result = self._run(replica.product, call)
        except EngineCrash:
            replica.stats.crashes += 1
            return ReplicaAnswer(replica=replica.key, status="crash")
        except SqlError as error:
            replica.stats.errors += 1
            return ReplicaAnswer(replica=replica.key, status="error", error=str(error))
        return ReplicaAnswer(
            replica=replica.key,
            status="ok",
            columns=tuple(result.columns),
            rows=tuple(result.rows),
            rowcount=result.rowcount,
            virtual_cost=result.virtual_cost,
            result=result,
        )

    def _ask_with_crash_retry(self, replica: Replica, call: StatementCall) -> ReplicaAnswer:
        """Ask once; on a crash, restart and retry once before giving up.

        Crash effects fire before the engine touches the statement, so a
        retry never double-applies a write.  A transient (Heisenbug)
        crash passes on retry and the replica is spared quarantine.
        """
        answer = self._ask(replica, call)
        if answer.status != "crash" or not self.supervised:
            return answer
        replica.state = ReplicaState.SUSPECTED
        self.stats.statement_retries += 1
        replica.product.restart()
        retry = self._ask(replica, call)
        if retry.status != "crash":
            replica.state = ReplicaState.ACTIVE
            self.stats.retries_saved += 1
        return retry

    def _retry_matches(
        self,
        replica: Replica,
        call: StatementCall,
        is_write: bool,
        winner_key: tuple,
        verdict: Optional[StatementVerdict] = None,
        ordered: bool = True,
    ) -> bool:
        """Re-run an out-voted statement once; True when the retry agrees
        with the winning answer (a transient fault — keep the replica).
        Only reads and analyzer-proven re-execution-safe writes retry."""
        if not self._retry_safe(is_write, verdict):
            return False
        replica.state = ReplicaState.SUSPECTED
        self.stats.statement_retries += 1
        if is_write:
            self.stats.idempotent_write_retries += 1
        retry = self._ask(replica, call)
        if (
            retry.status != "crash"
            and retry.vote_key(normalize=self.comparator.normalize, ordered=ordered)
            == winner_key
        ):
            replica.state = ReplicaState.ACTIVE
            self.stats.retries_saved += 1
            return True
        return False

    def _retry_safe(
        self, is_write: bool, verdict: Optional[StatementVerdict]
    ) -> bool:
        """Whether a single-shot re-execution of this statement on one
        replica is allowed.  Reads always are; writes only when the
        static analyzer proved re-execution changes neither the state
        nor the answer (and the policy knob permits it) — the
        generalisation of the blanket "writes never retry" rule."""
        if not self.supervised:
            return False
        if not is_write:
            return True
        return (
            self.policy.idempotent_write_retry
            and verdict is not None
            and verdict.access.reexecution_safe
        )

    def _handle_crash(self, replica: Replica) -> None:
        self.stats.replica_crashes += 1
        if self.supervised:
            self.supervisor.quarantine(replica)
        else:
            replica.state = ReplicaState.FAILED

    def _suspect(self, replica: Replica) -> None:
        replica.stats.outvoted += 1
        replica.state = ReplicaState.SUSPECTED
        if self.supervised:
            self.supervisor.quarantine(replica)

    # -- recovery ---------------------------------------------------------------------

    def recover(self, key: str, *, force: bool = False) -> None:
        """Rebuild a failed/suspected replica by checkpoint + log replay.

        The replica's latest checkpoint (if any) is restored and the
        write-log tail replayed in order (translated to its dialect);
        without a checkpoint the replica is reset to a fresh install and
        the full history replayed.  On success it rejoins the active
        set.  Retired replicas are only resurrected with ``force=True``
        (an operator decision — the circuit breaker retired them for
        crash-looping).
        """
        replica = self.replica(key)
        if replica.state is ReplicaState.RETIRED:
            if not force:
                raise MiddlewareError(
                    f"replica {key} was retired by the circuit breaker; "
                    "pass force=True to resurrect it"
                )
            replica.health.failure_times.clear()
            replica.health.attempts = 0
        self.supervisor.attempt_recovery(replica, manual=True)

    def rebuild(self, key: str) -> bool:
        """Start an online rebuild of a RETIRED/FAILED replica.

        The replica is re-seeded from a healthy-majority snapshot and
        catches up with the live write delta incrementally — one step
        per supervisor tick, so traffic keeps flowing while it
        rebuilds — and re-admitted only once its full state passes the
        ``verify_consistency`` criterion against the active quorum.
        Returns False when the replica is not rebuildable right now
        (wrong state, no healthy donor, or a transaction is open).

        Progress is driven by live traffic; without traffic, call
        :meth:`drive_rebuilds` to pump the clock.
        """
        replica = self.replica(key)
        return self.supervisor.start_rebuild(replica)

    def drive_rebuilds(self, max_ticks: int = 100_000) -> bool:
        """Advance virtual time until no rebuild is in flight (idle
        deployments; live traffic drives rebuilds via ordinary ticks).
        Returns True when every rebuild settled within the budget."""
        for _ in range(max_ticks):
            if not any(
                r.state is ReplicaState.REBUILDING for r in self.replicas
            ):
                return True
            self.supervisor.tick()
        return not any(r.state is ReplicaState.REBUILDING for r in self.replicas)

    def _replica_recovered(self, replica: Replica) -> None:
        """Supervisor callback: ``replica`` just rejoined the active
        set (log replay or rebuild).  Re-baselines its durable state."""
        if self.durability is not None:
            self.durability.on_replica_recovered(replica)

    def restore_write_log(self, statements: Iterable[str]) -> None:
        """Adopt a recovered write history (durable restart path).

        Rebuilds the derived middleware state — schema model for the
        static analyzer and the pipeline's schema generation — exactly
        as if the statements had been executed through this server.
        """
        self._write_log = list(statements)
        self._schema = ScriptSchema()
        for sql in self._write_log:
            statement, traits, _ = self.pipeline.parsed(sql)
            if self.static_analysis:
                self._schema.observe(statement)
            if traits.kind in _DDL_KINDS:
                self.pipeline.bump_generation()

    # -- state consistency -------------------------------------------------------------------

    def verify_consistency(self) -> dict[str, list[str]]:
        """Cross-check the full database state of all active replicas.

        Every base table of every active replica is dumped (ordered by
        its normalised row content) and compared across replicas.  The
        table list is the *union* across active replicas, so a table
        present on some replica but missing from the reference is still
        flagged.  Returns a mapping ``table -> [replicas disagreeing
        with the first active replica]`` — empty when all replicas hold
        the same state.  Used after recovery and at audit points; the
        paper's middleware sketch calls this the consistency-enforcing
        check.
        """
        active = self.active_replicas()
        if len(active) < 2:
            return {}
        baseline = normalized_state(active[0].product.engine)
        disagreements: dict[str, list[str]] = {}
        for replica in active[1:]:
            dump = normalized_state(replica.product.engine)
            for name in baseline.keys() | dump.keys():
                if dump.get(name) != baseline.get(name):
                    disagreements.setdefault(name, []).append(replica.key)
        return dict(sorted(disagreements.items()))

    # -- introspection ---------------------------------------------------------------------

    @property
    def write_log(self) -> list[str]:
        return list(self._write_log)

    def availability(self) -> float:
        """Fraction of replicas currently active."""
        return len(self.active_replicas()) / len(self.replicas)


class PreparedStatement:
    """A statement prepared once against every replica of a
    :class:`DiverseServer`: parsed, analyzed, and dialect-translated up
    front, then executed many times with bound parameters.

    Per-replica engine handles are cached keyed on the pipeline's
    schema generation, so DDL transparently re-prepares.  Adjudication,
    supervision, deadlines, and the write log behave exactly as for
    :meth:`DiverseServer.execute` of the equivalent literal statement —
    the write log records the literal-substituted text, so recovery
    replay is parameter-free.
    """

    def __init__(self, server: DiverseServer, sql: str) -> None:
        self._server = server
        self.sql = sql
        self.statement, self.traits, self._positions = server.pipeline.parsed(sql)
        self.param_count = len(self._positions)
        #: replica product -> (pipeline generation, engine-prepared handle)
        self._handles: dict[ServerProduct, tuple[int, EnginePrepared]] = {}

    def execute(self, params: Sequence[Any] = ()) -> Result:
        """One adjudicated execution with positional parameter values."""
        return self._execute(tuple(params), fast_unanimous=False)

    def executemany(self, rows: Iterable[Sequence[Any]]) -> list[Result]:
        """Execute once per parameter tuple — one adjudication round
        for the batch.  Each row charges one supervisor tick (deadline
        and quarantine semantics are per-row); a full comparator vote
        runs only on rows where the replicas diverge, the rest settle
        on raw answer equality."""
        self._server.stats.batches += 1
        results: list[Result] = []
        for row in rows:
            self._server.stats.batched_statements += 1
            results.append(self._execute(tuple(row), fast_unanimous=True))
        return results

    def _execute(self, params: tuple, fast_unanimous: bool) -> Result:
        if len(params) != self.param_count:
            raise MiddlewareError(
                f"statement takes {self.param_count} parameter(s), "
                f"{len(params)} given"
            )
        bound_sql = (
            splice_params(self.sql, self._positions, params) if params else self.sql
        )
        call = StatementCall(
            sql=self.sql, bound_sql=bound_sql, params=params, prepared=self
        )
        return self._server._execute_bound(
            call, self.statement, self.traits, fast_unanimous=fast_unanimous
        )


def replicated_server(
    factory,
    count: int = 2,
    *,
    config: Optional[ServerConfig] = None,
    adjudication: Optional[str] = None,
    **kwargs,
) -> DiverseServer:
    """A *non-diverse* replicated server: ``count`` identical copies of
    one product (the conventional configuration the paper argues
    against).  Identical copies share identical faults, so coincident
    wrong answers win the vote — the comparison baseline in benchmarks.

    Accepts a :class:`ServerConfig` (``allow_duplicates`` is forced on)
    or the equivalent individual keywords.
    """
    replicas = [factory() for _ in range(count)]
    if config is not None:
        if kwargs or adjudication is not None:
            raise MiddlewareError(
                "pass either config= or individual settings, not both"
            )
        config = ServerConfig(**{**config.__dict__, "allow_duplicates": True})
        return DiverseServer(replicas, config=config)
    if adjudication is not None:
        kwargs["adjudication"] = adjudication
    return DiverseServer(replicas, allow_duplicates=True, **kwargs)
