"""Workload execution against any SQL endpoint (single server or
diverse middleware) with dependability and throughput metrics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Protocol

from repro.errors import (
    AdjudicationFailure,
    EngineCrash,
    NetworkError,
    NoReplicasAvailable,
    ReproError,
    SqlError,
    StatementTimeout,
)
from repro.workload.generator import TpccGenerator, Transaction, TransactionMix
from repro.workload.schema import SCHEMA_STATEMENTS, populate_statements


class SqlEndpoint(Protocol):
    """Anything accepting SQL: ServerProduct, DiverseServer.

    Endpoints additionally offering ``prepare(sql)`` (ServerProduct and
    DiverseServer both do) can be driven in prepared mode
    (``WorkloadRunner(use_prepared=True)``), which binds each
    transaction's parameters into statement templates prepared once.
    """

    def execute(self, sql: str): ...


@dataclass
class WorkloadMetrics:
    """Outcome of one workload run."""

    transactions: int = 0
    statements: int = 0
    sql_errors: int = 0
    detected_disagreements: int = 0
    crashes: int = 0
    outages: int = 0
    #: Distinct transactions that aborted at least once (never exceeds
    #: ``transactions``; a transaction burning N retries counts once).
    aborted_transactions: int = 0
    #: Aborted *attempts*, one per rollback — the per-retry count
    #: ``aborted_transactions`` used to (mis)report.
    aborted_attempts: int = 0
    retried_successes: int = 0
    exhausted_retries: int = 0
    #: Attempts aborted by the deadline: the transaction's virtual-cost
    #: budget ran out, or the endpoint raised ``StatementTimeout``.
    deadline_aborts: int = 0
    #: Statements that observed a timeout (endpoint-raised, or the
    #: statement whose cost exhausted the transaction budget).
    timed_out_statements: int = 0
    #: Failures of the network path when the endpoint is served over a
    #: wire (session lost mid-transaction, retry-unsafe statement after
    #: session expiry, circuit breaker open).  Zero for direct
    #: endpoints.
    network_errors: int = 0
    elapsed_seconds: float = 0.0
    per_profile: dict[str, int] = field(default_factory=dict)

    @property
    def statements_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.statements / self.elapsed_seconds

    @property
    def failure_free(self) -> bool:
        return (
            self.sql_errors == 0
            and self.detected_disagreements == 0
            and self.crashes == 0
            and self.outages == 0
            and self.timed_out_statements == 0
            and self.network_errors == 0
        )

    def merge(self, other: "WorkloadMetrics") -> None:
        """Fold another run's counters into this one (terminal fan-in).

        Counter fields add; ``elapsed_seconds`` takes the maximum, the
        wall-clock view of concurrent terminals."""
        for spec in _METRIC_FIELDS:
            if spec.name == "elapsed_seconds":
                self.elapsed_seconds = max(self.elapsed_seconds, other.elapsed_seconds)
            elif spec.name == "per_profile":
                for name, count in other.per_profile.items():
                    self.per_profile[name] = self.per_profile.get(name, 0) + count
            else:
                setattr(self, spec.name, getattr(self, spec.name) + getattr(other, spec.name))


_METRIC_FIELDS = tuple(WorkloadMetrics.__dataclass_fields__.values())


class WorkloadRunner:
    """Drives a TPC-C-like stream through an endpoint.

    ``retries`` enables the classical rollback-and-retry recovery the
    paper contrasts diversity with (Section 2.1): an aborted transaction
    is re-submitted up to that many times.  Retry tolerates *transient*
    failures (Heisenbugs); deterministic Bohrbugs fail every attempt.

    ``transaction_deadline`` is a client-side watchdog: a virtual-cost
    budget per transaction attempt.  An attempt whose statements'
    cumulative cost exceeds it — or that hits a middleware
    ``StatementTimeout`` — is aborted (rolled back) and retried under
    the same ``retries`` policy, with the events counted in
    ``deadline_aborts`` / ``timed_out_statements``.  This is how a
    client notices a *hang* the endpoint cannot mask: the statement
    stream stops making progress within budget.

    ``use_prepared`` drives the endpoint through its ``prepare(sql)``
    API instead of literal SQL: each of the TPC-C statement templates is
    prepared once (parse/translate/analyze amortized across the run) and
    per-transaction values are bound at execute time.  The bound SQL is
    byte-identical to the literal stream, so metrics are comparable
    between the two modes.

    ``mix`` reweights the five TPC-C profiles for every generator this
    runner constructs itself (``run`` without an explicit generator, and
    its terminal stream under :func:`run_interleaved`).
    """

    def __init__(
        self,
        endpoint: SqlEndpoint,
        *,
        seed: int = 0,
        retries: int = 0,
        transaction_deadline: Optional[float] = None,
        use_prepared: bool = False,
        mix: Optional[TransactionMix] = None,
    ) -> None:
        if transaction_deadline is not None and transaction_deadline <= 0:
            raise ValueError("the transaction deadline must be positive")
        if use_prepared and not hasattr(endpoint, "prepare"):
            raise ValueError(
                "use_prepared=True requires an endpoint with a prepare() method"
            )
        self.endpoint = endpoint
        self.seed = seed
        self.retries = retries
        self.transaction_deadline = transaction_deadline
        self.use_prepared = use_prepared
        self.mix = mix
        self._prepared_cache: dict[str, Any] = {}

    def setup(self) -> None:
        """Create and populate the schema."""
        for statement in SCHEMA_STATEMENTS:
            self.endpoint.execute(statement)
        for statement in populate_statements():
            self.endpoint.execute(statement)

    def run(
        self,
        transaction_count: int,
        *,
        generator: Optional[TpccGenerator] = None,
    ) -> WorkloadMetrics:
        """Run ``transaction_count`` transactions, collecting metrics.

        A statement-level disagreement (detection by the middleware) or
        SQL error aborts the enclosing transaction (rollback-and-
        continue, the study's recovery baseline).
        """
        generator = generator or TpccGenerator(seed=self.seed, mix=self.mix)
        metrics = WorkloadMetrics()
        start = time.perf_counter()
        for _ in self._steps(generator.transactions(transaction_count), metrics):
            pass
        metrics.elapsed_seconds = time.perf_counter() - start
        return metrics

    def _steps(self, transactions: Iterable[Transaction], metrics: WorkloadMetrics):
        """Run ``transactions`` with their accounting and retries, as
        the one generator :meth:`run` and :func:`run_interleaved` step:
        it yields ``False`` after every executed statement (the
        statement-granularity interleaving point) and ``True`` after
        every transaction."""
        for transaction in transactions:
            metrics.transactions += 1
            metrics.per_profile[transaction.name] = (
                metrics.per_profile.get(transaction.name, 0) + 1
            )
            aborted = False
            for attempt in range(self.retries + 1):
                if (yield from self._attempt_steps(transaction, metrics)):
                    if attempt > 0:
                        metrics.retried_successes += 1
                    break
                if not aborted:
                    aborted = True
                    metrics.aborted_transactions += 1
            else:
                metrics.exhausted_retries += 1
            yield True

    def _calls(self, transaction: Transaction) -> list[tuple[str, tuple]]:
        if self.use_prepared:
            return transaction.prepared_calls()
        return [(statement, ()) for statement in transaction.statements]

    def _execute_call(self, template: str, params: tuple):
        if not self.use_prepared:
            return self.endpoint.execute(template)
        handle = self._prepared_cache.get(template)
        if handle is None:
            handle = self.endpoint.prepare(template)  # type: ignore[attr-defined]
            self._prepared_cache[template] = handle
        return handle.execute(params)

    def _attempt_steps(self, transaction: Transaction, metrics: WorkloadMetrics):
        """One transaction attempt as a generator: yields ``False`` after
        every executed statement; its return value is the attempt's
        success."""
        in_transaction = False
        budget = self.transaction_deadline
        spent = 0.0
        for statement, params in self._calls(transaction):
            upper = statement.strip().upper()
            try:
                result = self._execute_call(statement, params)
                metrics.statements += 1
                if upper == "BEGIN":
                    in_transaction = True
                elif upper in ("COMMIT", "ROLLBACK"):
                    in_transaction = False
            except StatementTimeout:
                metrics.timed_out_statements += 1
                metrics.deadline_aborts += 1
                self._abort(metrics, in_transaction)
                return False
            except AdjudicationFailure:
                metrics.detected_disagreements += 1
                self._abort(metrics, in_transaction)
                return False
            except NoReplicasAvailable:
                metrics.outages += 1
                self._abort(metrics, in_transaction)
                return False
            except EngineCrash:
                metrics.crashes += 1
                self._abort(metrics, in_transaction)
                return False
            except NetworkError:
                # The serving layer could not deliver an answer with
                # exactly-once certainty (session lost mid-transaction,
                # retry-unsafe statement, circuit open).  The safe
                # client response is the same as any abort: roll back
                # and (optionally) retry the whole transaction.
                metrics.network_errors += 1
                self._abort(metrics, in_transaction)
                return False
            except SqlError:
                metrics.sql_errors += 1
                self._abort(metrics, in_transaction)
                return False
            if budget is not None:
                spent += getattr(result, "virtual_cost", 0.0)
                if spent > budget:
                    metrics.timed_out_statements += 1
                    metrics.deadline_aborts += 1
                    self._abort(metrics, in_transaction)
                    return False
            yield False
        return True

    def _abort(self, metrics: WorkloadMetrics, in_transaction: bool) -> None:
        metrics.aborted_attempts += 1
        if in_transaction:
            try:
                self.endpoint.execute("ROLLBACK")
            except ReproError:
                pass


def run_interleaved(
    runners: list[WorkloadRunner],
    transactions_each: int,
    *,
    granularity: str = "transaction",
) -> WorkloadMetrics:
    """Drive several runners as concurrent terminals round-robin and
    return their merged metrics.

    This is how "multiple clients" looks in a deterministic simulation:
    every terminal with its own generator stream (seeded and mixed from
    its runner), contending for sessions, the parked queue, and
    admission control exactly as concurrent clients would against a
    served endpoint.

    ``granularity`` picks the interleaving point: ``"transaction"``
    rotates terminals between whole transactions (a terminal's BEGIN and
    COMMIT are adjacent in the stream), ``"statement"`` rotates after
    *every statement*, so other terminals' statements land inside an
    open transaction — the schedule shape the conflict analyzer's
    admission certificates adjudicate.
    """
    if granularity not in ("transaction", "statement"):
        raise ValueError(f"unknown interleaving granularity {granularity!r}")
    every_metrics = [WorkloadMetrics() for _ in runners]
    terminals = [
        runner._steps(
            TpccGenerator(seed=runner.seed, mix=runner.mix).transactions(transactions_each),
            metrics,
        )
        for runner, metrics in zip(runners, every_metrics)
    ]
    start = time.perf_counter()
    while terminals:
        for terminal in list(terminals):
            # One statement, or through the end of one transaction.
            for transaction_done in terminal:
                if transaction_done or granularity == "statement":
                    break
            else:
                terminals.remove(terminal)
    elapsed = time.perf_counter() - start
    merged = WorkloadMetrics()
    for metrics in every_metrics:
        metrics.elapsed_seconds = elapsed
        merged.merge(metrics)
    return merged
