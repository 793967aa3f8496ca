"""The diverse-redundancy fault-tolerant SQL server.

``DiverseServer`` is the "middleware" of the paper's conclusions: it
fans every statement out to two or more diverse off-the-shelf server
products (black-box approach: only their client interfaces are used),
compares the answers after representation normalisation, adjudicates,
and manages replica failure and recovery.

One replica round
-----------------

Every statement runs as a prepared call (:class:`StatementCall`): a
bound call on its template, a lifted literal statement on its shape,
and any other statement (DDL, transaction control, a shape that cannot
stand for its statements) on a handle of its own text with no
parameters.  One answer loop (:meth:`DiverseServer._answers`) asks the
replicas — all of them for an adjudicated round, until the first
answer for the single path (``primary`` and read-split reads) — and
sorts the self-evident failures out of the answers: a crash gets a
restart and one retry when supervised, a straggler over the statement
deadline one retry when re-execution is safe, and a replica failing
still is evicted.  The answers left are what the round adjudicates.

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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Optional, Protocol, Sequence

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
from repro.middleware.comparator import ReplicaAnswer, ResultComparator, identical
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
from repro.sqlengine.params import (
    Lifted,
    check_params,
    misreads_literals,
    param_text,
    render_param,
    splice_texts,
)


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
    #: statement deadline (a replica stalling *during* recovery).
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
    #: SELECTs re-executed through both the rewritten and the
    #: unrewritten plan on one replica (``ServerConfig.dual_plan``).
    dual_plan_checks: int = 0
    #: Checks where the two plans disagreed — an optimiser-level wrong
    #: answer that cross-replica voting cannot see when every replica
    #: shares the same planner.
    dual_plan_divergences: int = 0
    # -- prepared/batch counters -----------------------------------------
    #: ``executemany`` invocations (each row adjudicated on its own).
    batches: int = 0
    #: Rows executed through ``executemany``.
    batched_statements: int = 0
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


class Durability(Protocol):
    """What the server asks of its durability subsystem
    (:class:`repro.durability.DurabilityManager`)."""

    def attach(self, server: "DiverseServer") -> None: ...

    def log_write(self, call: "StatementCall", traits: StatementTraits) -> None: ...

    def maybe_checkpoint(self) -> None: ...

    def on_replica_recovered(self, replica: Replica) -> None: ...


@dataclass
class ServerConfig:
    """Construction-time configuration for :class:`DiverseServer`.  One
    object carries every knob, so configurations can be shared,
    compared, and passed around instead of sprawling keyword lists."""

    adjudication: str = "majority"
    normalize: bool = True
    read_split: bool = False
    auto_recover: bool = True
    policy: Optional[SupervisorPolicy] = None
    allow_duplicates: bool = False
    static_analysis: bool = True
    #: Multi-plan divergence oracle (differential query execution): every
    #: adjudicated SELECT is additionally run twice on one replica —
    #: through its plan with the rewrite rules applied and through the
    #: plan the same lowering gives with none — and the two answers
    #: compared like replica votes.  Catches optimiser-level wrong
    #: results that diverse voting misses when every replica shares the
    #: planner.  Off by default (it doubles read work).
    dual_plan: bool = False
    #: Durability subsystem (:class:`repro.durability.DurabilityManager`):
    #: per-replica write-ahead logs, durable checkpoints, and restart
    #: recovery from the storage medium.  ``None`` keeps the original
    #: in-memory-only deployment.
    durability: Optional[Durability] = None


@dataclass
class StatementCall:
    """One execution of one statement, as seen by the replica plumbing:
    a call of the prepared statement ``prepared``, whose text is
    ``sql``.

    A bound call has ``params`` for the template's placeholders; a
    lifted literal statement runs on its shape, with ``sent`` the
    statement exactly as the client sent it and ``lift`` the literals
    lifted from it (``params`` their values); a statement that does not
    lift runs on a handle of its own text, so ``sent`` is ``sql`` and
    there are no ``params``.  ``targets`` holds, per replica product,
    the engine handle that replica runs (see
    :meth:`DiverseServer._resolve`).
    """

    sql: str
    prepared: "PreparedStatement"
    params: tuple = ()
    lift: Optional[Lifted] = None
    sent: Optional[str] = None
    targets: dict[ServerProduct, EnginePrepared] = field(default_factory=dict)

    @cached_property
    def bound_sql(self) -> str:
        """The literal text of the call, recorded in the write log so
        recovery replay needs no parameter store: the text as sent, or
        a bound call's ``params`` spliced into the template.  Rendered
        on the first read — a write's log entry, the dual-plan log, an
        eviction or an error message — so a read that succeeds never
        renders it."""
        if self.sent is not None:
            return self.sent
        return splice_texts(
            self.sql, self.prepared.positions, tuple(map(render_param, self.params))
        )

    @cached_property
    def texts(self) -> tuple[str, ...]:
        """The literal spelling of each parameter, in placeholder order,
        as a replica's rendering spells it: a lifted call's literals, a
        bound call's values (:func:`~repro.sqlengine.params.param_text`),
        none for a handle of the statement's own text.  Computed on the
        first :meth:`DiverseServer.literal_text` of the call."""
        if self.lift is not None:
            return self.lift.texts
        return tuple(map(param_text, self.params))


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
        if adjudication not in ("compare", "majority", "primary"):
            raise MiddlewareError(f"unknown adjudication policy {adjudication!r}")
        if not config.allow_duplicates:
            seen = set()
            for product in replicas:
                if product.key in seen:
                    raise MiddlewareError(
                        f"duplicate product {product.key}: diversity requires "
                        "distinct products (set allow_duplicates for identical copies)"
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
        #: analysis verdicts); the analysis layers are invalidated on
        #: DDL via its generation.
        self.pipeline = StatementPipeline()
        self.supervisor = ReplicaSupervisor(policy=config.policy)
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
        #: Prepared handles by statement text, and the parse errors of
        #: texts that did not prepare (lifted shapes, among them).
        self._prepared: dict[str, PreparedStatement | SqlError] = {}
        #: (sql, replica key) pairs where the dual-plan oracle found the
        #: rewritten and the unrewritten plan disagreeing.
        self.dual_plan_log: list[tuple[str, str]] = []
        #: One entry per statement-deadline violation (service and
        #: recovery), alongside the fault audit.
        self.timeout_audit: list[TimeoutAuditEntry] = []

    @property
    def supervised(self) -> bool:
        """True when the supervision subsystem drives replica lifecycle."""
        return self.auto_recover

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
        execution surface shared with
        :class:`~repro.servers.ServerProduct`.

        Without, the value literals of a SELECT, INSERT, UPDATE or
        DELETE are lifted into parameters (:meth:`StatementPipeline.lifted`)
        and the statement runs as a prepared call on its shape, whose
        parse, translations, analyses and engine plans every statement
        of that shape shares.  Each replica still sees the literal
        statement in its dialect, and the write log records ``sql`` as
        sent.  A statement that does not lift, or whose shape cannot
        stand for it (see :meth:`_shape`), runs on the handle of its
        own text (see :meth:`statement_call`).
        """
        if params is not None:
            return self.prepare(sql).execute(tuple(params))
        return self._execute_bound(*self.statement_call(sql))

    def statement_call(self, sql: str) -> tuple["StatementCall", StatementTraits]:
        """The call every replica runs for literal statement ``sql``, and
        the traits it runs with: a lifted call on the statement's shape,
        or a call of the handle of its own text.  Live execution,
        supervisor replay and the durable restart all turn a text into
        what a replica runs here, so a replayed write runs the call, the
        compiled plan and the replica-dialect text that ran live."""
        lifted = self.pipeline.lifted(sql)
        if lifted is not None:
            shape = self._shape(lifted.shape)
            if shape is not None:
                call = StatementCall(shape.sql, shape, lifted.values, lifted, sql)
                return call, shape.literal_traits
        handle = self.prepare(sql)
        if handle.param_count:
            raise MiddlewareError(
                f"statement has {handle.param_count} unbound parameter(s); "
                "use prepare() to execute it with values"
            )
        return StatementCall(sql, handle, sent=sql), handle.traits

    def explain(self, sql: str) -> str:
        """Render the logical plan the first active replica's planner
        would use for ``sql`` (:meth:`ServerProduct.explain`)."""
        return (self.active_replicas() or self.replicas)[0].product.explain(sql)

    def def_use(self, sql: str):
        """Def/use cells of one statement against the current schema.

        Memoized per (text, schema generation) by the pipeline; works
        for prepared templates too (``?`` parameters parse and
        contribute no cells).  The serving layer uses this to maintain
        each transaction holder's write footprint and to certify
        commuting reads for mid-transaction admission."""
        statement, traits, _ = self.pipeline.parsed(sql)
        return self.pipeline.def_use(sql, statement, self._schema, traits)

    def prepare(self, sql: str) -> "PreparedStatement":
        """Parse, analyze, and translate ``sql`` once; execute it many
        times with bound parameters through the returned handle.
        Handles are memoized per statement text, and so is the
        :class:`SqlError` of a text that does not parse."""
        handle = self._prepared.get(sql)
        if handle is None:
            try:
                handle = PreparedStatement(self, sql)
            except SqlError as error:
                handle = error
            if len(self._prepared) >= _PREPARED_CACHE_SIZE:
                self._prepared.pop(next(iter(self._prepared)))
            self._prepared[sql] = handle
        if isinstance(handle, SqlError):
            raise handle
        return handle

    def _shape(self, sql: str) -> Optional["PreparedStatement"]:
        """The prepared statement literal statements lifted to shape
        ``sql`` run as; None when the shape cannot stand for them: it
        does not parse (``VARCHAR(?)``), or it would read a parameter
        otherwise than the literal it stands for (``ORDER BY ?``,
        ``- ?``).  Both answers are kept with the prepared handles."""
        try:
            handle = self.prepare(sql)
        except SqlError:
            return None
        return handle if handle.lifts else None

    def _execute_bound(self, call: StatementCall, traits: StatementTraits) -> Result:
        """The replica round every call runs, literal, lifted, bound or
        batched.  Charges exactly one supervisor tick — ``executemany``
        calls this once per row, so deadlines and quarantine backoffs
        see batches as row sequences."""
        statement = call.prepared.statement
        is_write = traits.kind in WRITE_KINDS
        verdict: Optional[StatementVerdict] = None
        divergence: Optional[StatementDivergence] = None
        if self.static_analysis:
            verdict = self.pipeline.verdict(call.sql, statement, self._schema, traits)
            divergence = self.pipeline.divergence(
                call.sql,
                statement,
                self._schema,
                None if call.lift is None else tuple(map(type, call.params)),
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
                answers = self._answers(call, active, is_write, verdict)
                result = self._adjudicate(
                    call, answers, is_write, policy, verdict, divergence
                )
        finally:
            self._pending_write = None
        if is_write:
            self._write_log.append(call.bound_sql)
            if self.static_analysis:
                self._schema.observe(statement)
            if traits.kind in DDL_KINDS:
                self.pipeline.bump_generation()
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
        replica — once through its rewritten plan, once through the
        plan with no rewrite rules — and compare the two answers exactly
        as replica votes are compared (same normalisation, same order
        verdict).  Disagreement means an optimiser-level wrong answer on
        that replica, a fault class cross-replica voting cannot see
        when every replica shares the same planner."""
        active = self.active_replicas()
        if not active:
            return
        replica = active[0]
        product = replica.product

        def ask(label: str) -> ReplicaAnswer:
            try:
                return ReplicaAnswer.of(label, self._run(product, call))
            except EngineCrash:
                product.restart()
                return ReplicaAnswer(replica=label, status="crash")
            except (SqlError, FeatureNotSupported) as error:
                return ReplicaAnswer(replica=label, status="error", error=str(error))

        rewritten = ask("rewritten")
        with product.unrewritten():
            answers = [rewritten, ask("unrewritten")]
        if any(answer.status == "crash" for answer in answers):
            return  # a crashed run proves nothing about the planner
        self.stats.dual_plan_checks += 1
        ordered = not (verdict is not None and verdict.multiset_comparable)
        comparison = self.comparator.compare(answers, ordered=ordered)
        if not comparison.unanimous:
            self.stats.dual_plan_divergences += 1
            self.dual_plan_log.append((call.bound_sql, replica.key))
            result.warnings.append(
                f"dual-plan divergence on {replica.key}: rewritten and "
                "unrewritten plans disagree"
            )

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

    # -- the replica round -------------------------------------------------------

    def _execute_single(
        self,
        call: StatementCall,
        active: list[Replica],
        is_write: bool,
        policy: str,
        verdict: Optional[StatementVerdict],
    ) -> Result:
        """The single path (``primary``, and read-split reads): the first
        replica to answer answers, unchecked.  A primary write then
        reaches the other replicas with no retry; those that crash or
        straggle are evicted."""
        rest = iter(active if policy == "primary" else self._rotate(active))
        answer = self._answers(call, rest, is_write, verdict, first=True)[0]
        if answer.status == "error":
            raise SqlError(answer.error)
        if is_write:
            deadline = self.statement_deadline
            for replica in rest:
                other = self._ask(replica, call)
                if other.status == "crash" or (
                    deadline is not None
                    and other.status == "ok"
                    and other.virtual_cost > deadline
                ):
                    self._evict(replica, other, call.bound_sql)
        return answer.result

    def _rotate(self, active: list[Replica]) -> list[Replica]:
        self._read_cursor = (self._read_cursor + 1) % len(active)
        return active[self._read_cursor :] + active[: self._read_cursor]

    def _answers(
        self,
        call: StatementCall,
        replicas: Iterable[Replica],
        is_write: bool,
        verdict: Optional[StatementVerdict],
        first: bool = False,
    ) -> list[ReplicaAnswer]:
        """Ask ``replicas`` in turn, only until one answers when
        ``first``, and return their answers (errors included); raise
        when none answered.

        A crash gets a restart and one retry when supervised: crash
        effects fire before the engine touches the statement, so the
        retry never double-applies a write, and a transient (Heisenbug)
        crash passes.  An answer over the statement deadline gets one
        retry when :meth:`_retry_safe` allows it: a transient stall
        clears.  A replica that still crashed or straggled is evicted,
        and the answers left adjudicate among themselves (straggler
        tolerance)."""
        deadline = self.statement_deadline
        answers: list[ReplicaAnswer] = []
        crashed: list[str] = []
        timed_out: list[str] = []
        for replica in replicas:
            answer = self._ask(replica, call)
            if answer.status == "crash" and self.supervised:
                replica.product.restart()
                answer = (
                    self._retry(replica, call, lambda again: again.status != "crash")
                    or answer
                )
            late = (
                deadline is not None
                and answer.status == "ok"
                and answer.virtual_cost > deadline
            )
            if late and self._retry_safe(is_write, verdict):
                retry = self._retry(
                    replica,
                    call,
                    lambda again: again.status == "ok" and again.virtual_cost <= deadline,
                    is_write,
                )
                if retry is not None:
                    answer, late = retry, False
            if late or answer.status == "crash":
                (timed_out if late else crashed).append(replica.key)
                self._evict(replica, answer, call.bound_sql)
                continue
            answers.append(answer)
            if first:
                break
        if answers:
            return answers
        if timed_out:
            raise StatementTimeout(
                f"no replica answered {call.bound_sql!r} within the deadline "
                f"(timed out: {', '.join(timed_out)})",
                deadline=deadline or 0.0,
            )
        raise NoReplicasAvailable(
            f"all replicas crashed on this statement ({', '.join(crashed)})"
        )

    def _adjudicate(
        self,
        call: StatementCall,
        answers: list[ReplicaAnswer],
        is_write: bool,
        policy: str,
        verdict: Optional[StatementVerdict],
        divergence: Optional[StatementDivergence],
    ) -> Result:
        """Vote on the answers of every asked replica."""
        self._check_performance(answers)
        # The analyzer's order verdict picks the vote granularity: a
        # SELECT proven UNORDERED votes on the row multiset, so correct
        # replicas returning different physical row orders never read as
        # disagreement (and no ORDER BY probe is injected).  PARTIAL
        # stays ordered — a violated ORDER BY must still be detected.
        ordered = not (verdict is not None and verdict.multiset_comparable)
        if not ordered:
            self.stats.multiset_comparisons += 1
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
        for loser in (answer for group in comparison.groups[1:] for answer in group):
            replica = self.replica(loser.replica)
            if benign:
                # A proven dialect divergence is the replica behaving
                # correctly for its product: mask the difference, but
                # spend no retry and raise no suspicion.
                continue
            # A retry identical to the out-voted answer lost already and
            # is not normalised.
            if self._retry_safe(is_write, verdict) and self._retry(
                replica,
                call,
                lambda again: again.status != "crash"
                and not identical(again, loser)
                and again.vote_key(normalize=self.comparator.normalize, ordered=ordered)
                == winner_key,
                is_write,
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

    # -- retry and eviction ----------------------------------------------------

    def _retry(
        self,
        replica: Replica,
        call: StatementCall,
        accept: Callable[[ReplicaAnswer], bool],
        is_write: bool = False,
    ) -> Optional[ReplicaAnswer]:
        """Re-run ``call`` once on ``replica``, SUSPECTED meanwhile: the
        retry's answer when ``accept`` takes it (a transient fault; the
        replica is ACTIVE again), else None.  ``is_write`` counts the
        retry of a write the analyzer proved re-execution-safe."""
        replica.state = ReplicaState.SUSPECTED
        self.stats.statement_retries += 1
        if is_write:
            self.stats.idempotent_write_retries += 1
        retry = self._ask(replica, call)
        if not accept(retry):
            return None
        replica.state = ReplicaState.ACTIVE
        self.stats.retries_saved += 1
        return retry

    def _retry_safe(
        self, is_write: bool, verdict: Optional[StatementVerdict]
    ) -> bool:
        """Whether a single-shot re-execution of this statement on one
        replica is allowed.  Reads always are; writes only when the
        static analyzer proved re-execution changes neither the state
        nor the answer (and the policy knob permits it) — the
        generalisation of the blanket "writes never retry" rule.  A
        write's slow attempt has already applied, so re-running any
        other write would double-apply it."""
        if not self.supervised:
            return False
        if not is_write:
            return True
        return (
            self.supervisor.policy.idempotent_write_retry
            and verdict is not None
            and verdict.access.reexecution_safe
        )

    def _evict(self, replica: Replica, answer: ReplicaAnswer, sql: str) -> None:
        """Take a replica that crashed on ``sql``, or answered it over the
        statement deadline, out of the active set.  A deadline violation
        (a self-evident performance failure) is audited.  Supervised,
        the replica is quarantined and recovered — repeated failures
        drive it toward retirement — otherwise it is marked FAILED."""
        if answer.status == "crash":
            self.stats.replica_crashes += 1
        else:
            self.stats.statement_timeouts += 1
            replica.stats.timeouts += 1
            self.timeout_audit.append(
                TimeoutAuditEntry(
                    replica=replica.key,
                    sql=sql,
                    virtual_cost=answer.virtual_cost,
                    deadline=self.statement_deadline,
                )
            )
        if self.supervised:
            self.supervisor.quarantine(replica)
        else:
            replica.state = ReplicaState.FAILED

    def _suspect(self, replica: Replica) -> None:
        replica.stats.outvoted += 1
        replica.state = ReplicaState.SUSPECTED
        if self.supervised:
            self.supervisor.quarantine(replica)

    # -- plumbing --------------------------------------------------------------------

    def _resolve(self, call: StatementCall, product: ServerProduct) -> EnginePrepared:
        """The engine handle ``product`` runs ``call`` through, prepared
        once from the pipeline's translation of the statement into its
        dialect.  DDL never makes it stale: the engine binds names and
        keys its compiled plans by the live catalog."""
        handles = call.prepared._handles
        handle = handles.get(product)
        if handle is None:
            translated = self.pipeline.translation(call.sql, product.descriptor)
            handle = handles[product] = product.prepare(translated)
        return handle

    def _run(self, product: ServerProduct, call: StatementCall) -> Result:
        """Run ``call`` on one replica's product through its resolved
        target, resolving it first when it was not (a read only one
        replica answers)."""
        targets = call.targets
        if product not in targets:
            targets[product] = self._resolve(call, product)
        if call.lift is None:
            return targets[product].execute(call.params)
        return targets[product].execute(call.params, self.literal_text(call, product))

    def literal_text(self, call: StatementCall, product: ServerProduct) -> str:
        """The literal statement ``call`` is on ``product``, in its
        dialect: the translation of the handle's text with the call's
        :attr:`~StatementCall.texts` spliced in.  That is the
        translation of the literal statement, as renames touch
        identifiers only and each text is what the renderer writes for
        its value.  Raises :class:`FeatureNotSupported` when the
        dialect refuses the statement."""
        target = call.targets.get(product) or self._resolve(call, product)
        return splice_texts(target.sql, target.positions, call.texts)

    def target(self, call: StatementCall, product: ServerProduct) -> EnginePrepared:
        """The handle ``product`` runs ``call`` through: the one it ran,
        or else the one it would.  Raises :class:`FeatureNotSupported`
        when the dialect refuses the statement."""
        return call.targets.get(product) or self._resolve(call, product)

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
        return ReplicaAnswer.of(replica.key, result)

    # -- recovery ---------------------------------------------------------------------

    def recover(self, key: str, *, force: bool = False) -> None:
        """Rebuild a failed/suspected replica by checkpoint + log replay.

        The replica's latest checkpoint (if any) is restored and the
        write-log tail replayed in order (each write as the call it ran
        live, :meth:`statement_call`);
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
        as if the statements had been executed through this server:
        each from the call :meth:`statement_call` makes of it.
        """
        self._write_log = list(statements)
        self._schema = ScriptSchema()
        for sql in self._write_log:
            call, traits = self.statement_call(sql)
            if self.static_analysis:
                self._schema.observe(call.prepared.statement)
            if traits.kind in DDL_KINDS:
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
        baseline = active[0].product.normalized_state()
        disagreements: dict[str, list[str]] = {}
        for replica in active[1:]:
            dump = replica.product.normalized_state()
            for name in baseline.keys() | dump.keys():
                if dump.get(name) != baseline.get(name):
                    disagreements.setdefault(name, []).append(replica.key)
        return dict(sorted(disagreements.items()))

    # -- introspection ---------------------------------------------------------------------

    @property
    def write_log(self) -> list[str]:
        return list(self._write_log)


class PreparedStatement:
    """A statement prepared once against every replica of a
    :class:`DiverseServer`: parsed, analyzed, and dialect-translated up
    front, then executed many times with bound parameters.

    Each replica's engine handle is prepared once and kept: it never
    goes stale, as the engine binds names and compiles plans against the
    live catalog on every execution, so a handle answers with the
    columns DDL added since.  Adjudication, supervision, deadlines, and
    the write log behave exactly as for :meth:`DiverseServer.execute` of
    the equivalent literal statement — the write log records the
    literal-substituted text, so recovery replay is parameter-free.
    """

    def __init__(self, server: DiverseServer, sql: str) -> None:
        self._server = server
        self.sql = sql
        self.statement, self.traits, self.positions = server.pipeline.parsed(sql)
        self.param_count = len(self.positions)
        #: replica product -> engine-prepared handle
        self._handles: dict[ServerProduct, EnginePrepared] = {}

    @cached_property
    def lifts(self) -> bool:
        """Whether this statement can be the shape literal statements
        lift to (see :func:`~repro.sqlengine.params.misreads_literals`)."""
        return not misreads_literals(self.statement)

    @cached_property
    def literal_traits(self) -> StatementTraits:
        """The traits of the literal statements lifted to this shape."""
        return self.traits.literal()

    def execute(self, params: Sequence[Any] = ()) -> Result:
        """One adjudicated execution with positional parameter values."""
        params = tuple(params)
        if len(params) != self.param_count:
            raise MiddlewareError(
                f"statement takes {self.param_count} parameter(s), "
                f"{len(params)} given"
            )
        check_params(params)
        call = StatementCall(self.sql, self, params, sent=None if params else self.sql)
        return self._server._execute_bound(call, self.traits)

    def executemany(self, rows: Iterable[Sequence[Any]]) -> list[Result]:
        """:meth:`execute` once per parameter tuple, each row its own
        adjudicated round and supervisor tick, counted as one batch."""
        self._server.stats.batches += 1
        results: list[Result] = []
        for row in rows:
            self._server.stats.batched_statements += 1
            results.append(self.execute(row))
        return results
