"""The seven workloads of the end-to-end benchmark.

Every workload follows one protocol, driven by ``run.py`` inside a
fresh child process:

``generate(seed, scale)``
    build the inputs from the seed (the load generator; never timed);
``setup()``
    bring the system to its steady state (schema, population, preload,
    prepared handles, warm-up);
``run(mark)``
    the timed region: a closed loop of one client, which fills a
    :class:`RunLog`; ``mark(index, profile)`` is called at each
    transaction boundary when a tracer is listening;
``verify(log)``
    correctness gates, exact counts and the state digest.

Each workload does a fixed amount of work per repetition (its counts
times ``scale``; a smoke run uses 1/20), because tables grow while TPC-C
runs and statements per second fall with run length.  Operations are
statements (``tpcc-*``), (bug, server) cells, or generated rounds;
transactions are TPC-C transactions, bug scripts on all four servers, or
generated rounds.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import repro.hunt
from repro.bugs import build_corpus
from repro.bugs import groundtruth
from repro.dialects.features import SERVER_KEYS
from repro.durability import DurabilityManager, MemoryMedium, engine_state_signature
from repro.errors import ReproError
from repro.middleware import DiverseServer, ServerConfig
from repro.net import ClientPolicy, NetPolicy, NetServer, SessionSupervisor, SimulatedNetwork
from repro.servers import make_server
from repro.sqlengine.sqlgen import PredicateGenerator
from repro.study import build_table2, build_table3, build_table4
from repro.study.runner import StudyResult, StudyRunner
from repro.workload import SCHEMA_STATEMENTS, TransactionMix, populate_statements

from streams import (
    READ_HEAVY_MIX, StreamTxn, TerminalGenerator, as_literal, as_prepared, round_robin,
)

#: The four-version majority configuration every ``tpcc-*`` workload uses.
KEYS = ("IB", "PG", "OR", "MS")

Mark = Optional[Callable[[int, str], None]]


@dataclass
class RunLog:
    """What one timed region did."""

    #: Operations attempted / failed or refused (statements, cells, rounds).
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    #: One entry per transaction, in stream order.
    latencies_ms: list[float] = field(default_factory=list)
    profiles: list[str] = field(default_factory=list)


@dataclass
class Verdict:
    """Correctness of one repetition, and the numbers that must repeat
    exactly between two runs of one seed."""

    gates: dict[str, bool]
    counts: dict[str, int]
    state_digest: str
    #: Workload-specific timings taken outside the timed region.
    extra_s: dict[str, float] = field(default_factory=dict)


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


# -- TPC-C through the diverse middleware ---------------------------------


class Tpcc:
    """One TPC-C stream through the four-version majority middleware.

    The five ``tpcc-*`` workloads are this class with different
    arguments: statement form (prepared or literal), transaction mix,
    preloaded history, durability, and the served wire path.
    """

    def __init__(
        self,
        name: str,
        why: str,
        *,
        transactions: int,
        warmup_rounds: int = 5,
        preload: int = 0,
        literal: bool = False,
        mix: Optional[TransactionMix] = None,
        durable: bool = False,
        terminals: int = 0,
    ) -> None:
        self.name = name
        self.why = why
        self._transactions = transactions
        #: Warm-up is this many times one transaction of every profile.
        self._warmup_rounds = warmup_rounds
        self._preload = preload
        self._literal = literal
        self._mix = mix
        self._durable = durable
        #: 0 = in-process calls; N = N sessions over the simulated wire,
        #: with ``transactions`` and ``warmup_rounds`` each.
        self._terminals = terminals

    # -- inputs ---------------------------------------------------------

    def generate(self, seed: int, scale: float) -> None:
        timed = scaled(self._transactions, scale)
        self._preload_stream: list[StreamTxn] = []
        first_terminal = 0
        if self._preload:
            loader = TerminalGenerator(seed=seed)
            self._preload_stream = as_prepared(
                loader.transactions(scaled(self._preload, scale))
            )
            first_terminal = 1
        form = as_literal if self._literal else as_prepared
        self._warmup_streams = []
        self._timed_streams = []
        for index in range(max(1, self._terminals)):
            generator = TerminalGenerator(
                seed=seed + index, terminal=first_terminal + index, mix=self._mix
            )
            # Warm-up and timed phases share one generator (one order-id
            # sequence), warm-up first.
            self._warmup_streams.append(
                form(generator.every_profile(scaled(self._warmup_rounds, scale)))
            )
            self._timed_streams.append(form(generator.transactions(timed)))

    # -- set-up ---------------------------------------------------------

    def _new_server(self, medium: Optional[MemoryMedium]) -> DiverseServer:
        durability = DurabilityManager(medium) if medium is not None else None
        return DiverseServer(
            [make_server(key) for key in KEYS],
            config=ServerConfig(adjudication="majority", durability=durability),
        )

    def setup(self) -> None:
        self._medium = MemoryMedium() if self._durable else None
        self.server = self._new_server(self._medium)
        if self._terminals:
            net_server = NetServer(self.server, NetPolicy(idle_deadline=100_000.0))
            self.network = SimulatedNetwork(net_server)
            self.endpoints: list[Any] = [
                SessionSupervisor(
                    self.network, policy=ClientPolicy(request_timeout=64.0)
                )
                for _ in range(self._terminals)
            ]
        else:
            self.endpoints = [self.server]
        loader = self.endpoints[0]
        for statement in SCHEMA_STATEMENTS + populate_statements():
            loader.execute(statement)
        self._handles: list[dict[str, Any]] = [{} for _ in self.endpoints]
        log = RunLog()
        self._drive(self._bind([self._preload_stream]), log, None)
        self._drive(self._bind(self._warmup_streams), log, None)
        if log.failed:
            raise RuntimeError(f"{self.name}: {log.failed} statement(s) failed in set-up")
        self._bound = self._bind(self._timed_streams)
        self._writes_before = len(self.server.write_log)

    def _bind(self, streams: list[list[StreamTxn]]):
        """Resolve every call of the per-terminal streams to
        ``(callable, argument)`` and interleave the terminals."""
        bound = []
        for index, stream in enumerate(streams):
            endpoint = self.endpoints[index]
            handles = self._handles[index]
            steps_of = []
            for txn in stream:
                steps = []
                for sql, params in txn.calls:
                    if self._literal:
                        steps.append((endpoint.execute, sql))
                        continue
                    handle = handles.get(sql)
                    if handle is None:
                        handle = handles[sql] = endpoint.prepare(sql)
                    steps.append((handle.execute, params))
                steps_of.append((index, txn.profile, steps))
            bound.append(steps_of)
        return round_robin(bound)

    # -- the closed loop ------------------------------------------------

    def _drive(self, bound, log: RunLog, mark: Mark) -> None:
        latencies = log.latencies_ms
        now = time.perf_counter
        for position, (terminal, profile, steps) in enumerate(bound):
            if mark is not None:
                mark(position, profile)
            started = now()
            done = 0
            try:
                for call, argument in steps:
                    call(argument)
                    done += 1
            except ReproError:
                log.failed += len(steps) - done
                try:
                    self.endpoints[terminal].execute("ROLLBACK")
                except ReproError:
                    pass
            latencies.append((now() - started) * 1000.0)
            log.profiles.append(profile)
            log.attempted += len(steps)

    def run(self, mark: Mark = None) -> RunLog:
        log = RunLog()
        started = time.perf_counter()
        self._drive(self._bound, log, mark)
        log.elapsed_s = time.perf_counter() - started
        return log

    # -- correctness ----------------------------------------------------

    def _signatures(self, server: DiverseServer) -> list[str]:
        return [engine_state_signature(r.product.engine) for r in server.replicas]

    def verify(self, log: RunLog) -> Verdict:
        stats = self.server.stats
        pipeline = self.server.pipeline.stats
        signatures = self._signatures(self.server)
        gates = {
            "no_failed_operations": log.failed == 0,
            "no_disagreements": stats.disagreements_detected == 0,
            "replicas_consistent": self.server.verify_consistency() == {},
            "all_replicas_active": len(self.server.active_replicas()) == len(KEYS),
        }
        counts = {
            "adjudications": stats.statements,
            "writes": stats.writes,
            "multiset_comparisons": stats.multiset_comparisons,
            "checkpoints": stats.checkpoints,
            "pipeline_hits": pipeline.hits,
            "pipeline_misses": pipeline.misses,
            "timed_write_sql_bytes": sum(
                len(sql) for sql in self.server.write_log[self._writes_before:]
            ),
        }
        extra: dict[str, float] = {}
        if self._terminals:
            net = self.network.net_server.stats
            clients = [endpoint.stats for endpoint in self.endpoints]
            counts.update(
                frames=self.network.stats.frames_sent,
                statements_served=net.statements_served,
                parked=net.parked_statements,
                shed=net.shed_statements + net.shed_compares + net.queue_deadline_sheds,
                resends=sum(c.resends for c in clients),
                reconnects=sum(c.reconnects for c in clients),
            )
            gates["no_shedding_or_resends"] = counts["shed"] == 0 and counts["resends"] == 0
            for endpoint in self.endpoints:
                endpoint.close()
        if self._durable:
            counts.update(
                wal_records=stats.wal_records,
                checkpoint_count=stats.durable_checkpoints,
            )
            extra["recovery_s"], recovered = self._power_cut_and_recover()
            gates["recovered_state_equal"] = recovered == signatures
        return Verdict(gates, counts, _digest(signatures), extra)

    def _power_cut_and_recover(self) -> tuple[float, list[str]]:
        """Restart a fresh deployment from the surviving disk image."""
        restarted = self._new_server(self._medium.clone())
        started = time.perf_counter()
        outcome = restarted.durability.recover_server()
        elapsed = time.perf_counter() - started
        if outcome.healed or outcome.crashed or outcome.residual_disagreements:
            return elapsed, []
        return elapsed, self._signatures(restarted)


# -- the paper's own experiment -------------------------------------------


class CorpusStudy:
    """Every bug script of the 181-bug corpus on all four servers:
    translate, run on a faulty and a pristine server, classify; then
    build the paper's tables.  The seed sets the order of the bugs."""

    name = "corpus-study"
    why = (
        "the paper's experiment, 181 bug scripts x 4 servers: DDL, reset, "
        "dialect translation and fault injection, almost no steady-state executor work"
    )
    def generate(self, seed: int, scale: float) -> None:
        self._seed = seed
        self._scale = scale

    def setup(self) -> None:
        self.corpus = build_corpus()
        reports = list(self.corpus)
        random.Random(self._seed).shuffle(reports)
        #: Below full scale (smoke runs) only a prefix runs, and the
        #: paper's tables cannot be checked.
        self._full = self._scale >= 1.0
        self._reports = reports if self._full else reports[: scaled(len(reports), self._scale)]

    def run(self, mark: Mark = None) -> RunLog:
        log = RunLog()
        now = time.perf_counter
        started = now()
        runner = StudyRunner(self.corpus)
        cells = {}
        for position, report in enumerate(self._reports):
            if mark is not None:
                mark(position, report.reported_for)
            began = now()
            for target in SERVER_KEYS:
                cells[(report.bug_id, target)] = runner.run_cell(report, target)
            log.latencies_ms.append((now() - began) * 1000.0)
            log.profiles.append(report.reported_for)
        self.result = StudyResult(corpus=self.corpus, cells=cells)
        if self._full:
            self.tables = (
                build_table2(self.result),
                build_table3(self.result),
                build_table4(self.result),
            )
        log.elapsed_s = now() - started
        log.attempted = len(cells)
        return log

    def verify(self, log: RunLog) -> Verdict:
        cells = self.result.cells
        kinds = sorted(
            (bug, server, cell.kind.name, cell.failed) for (bug, server), cell in cells.items()
        )
        gates = {"every_cell_classified": len(cells) == 4 * len(self._reports)}
        counts = {
            "cells": len(cells),
            "cells_failed": sum(1 for cell in cells.values() if cell.failed),
        }
        if self._full:
            table2, table3, table4 = self.tables
            gates.update(
                table3_exact=all(
                    (
                        table3[pair].run,
                        table3[pair].fail_any,
                        table3[pair].one_se,
                        table3[pair].one_nse,
                        table3[pair].both_nondetectable,
                        table3[pair].both_detectable_se,
                        table3[pair].both_detectable_nse,
                    )
                    == expected
                    for pair, expected in groundtruth.PAPER_TABLE3.items()
                ),
                table4_exact=all(
                    table4[reported][target] == value
                    for reported, columns in groundtruth.PAPER_TABLE4.items()
                    for target, value in columns.items()
                ),
                no_bug_fails_three_servers=all(
                    row.more_than_two == 0 for row in table2.values()
                ),
                four_nondetectable_bugs=sum(
                    row.both_nondetectable for row in table3.values()
                )
                == 4,
                detectability_at_least_94_percent=all(
                    row.detectable_fraction >= 0.94 for row in table3.values()
                ),
            )
        return Verdict(gates, counts, _digest(kinds))


# -- the generative hunt --------------------------------------------------


class _RoundClock(PredicateGenerator):
    """Stamps the clock at the start of every generated round, which is
    the only view ``run_hunt`` gives of its per-round latency."""

    stamps: list[float] = []

    def select_statement(self) -> str:
        self.stamps.append(time.perf_counter())
        return super().select_statement()


class HuntCampaign:
    """``run_hunt`` on pristine products: generated NULL-rich SELECTs,
    literal execution on four engines, TLP / pivot / vote oracles."""

    name = "hunt-campaign"
    why = (
        "generative testing on pristine products: sqlgen, literal Engine.execute, "
        "predicate analysis and three oracles; the front-end without the middleware"
    )
    def generate(self, seed: int, scale: float) -> None:
        self._seed = seed
        self._rounds = scaled(150, scale)

    def setup(self) -> None:
        _RoundClock.stamps = []
        repro.hunt.PredicateGenerator = _RoundClock

    def run(self, mark: Mark = None) -> RunLog:
        log = RunLog()
        started = time.perf_counter()
        self.report = repro.hunt.run_hunt(self._rounds, seed=self._seed)
        ended = time.perf_counter()
        log.elapsed_s = ended - started
        stamps = _RoundClock.stamps + [ended]
        log.latencies_ms = [
            (later - earlier) * 1000.0 for earlier, later in zip(stamps, stamps[1:])
        ]
        log.profiles = ["round"] * len(log.latencies_ms)
        log.attempted = self._rounds
        log.failed = self.report.errors
        return log

    def verify(self, log: RunLog) -> Verdict:
        report = self.report
        gates = {
            "no_findings": report.findings == [],
            "no_errors": report.errors == 0,
            "every_round_ran": report.statements == self._rounds
            and len(log.latencies_ms) == self._rounds,
            "oracles_exercised": report.tlp_checks > 0 and report.pivot_checks > 0,
        }
        counts = {
            "rounds": report.statements,
            "tlp_checks": report.tlp_checks,
            "pivot_checks": report.pivot_checks,
            "vote_checks": report.vote_checks,
            "benign_filtered": report.benign_filtered,
        }
        return Verdict(gates, counts, _digest(report.to_payload()))


# -- registry -------------------------------------------------------------


def build_workloads() -> dict[str, Any]:
    """Fresh workload objects, in reporting order."""
    workloads = [
        Tpcc(
            "tpcc-prepared",
            "steady-state OLTP through prepared handles: front-end amortised away, "
            "~77% writes; compiled plans and adjudication dominate",
            transactions=600,
        ),
        Tpcc(
            "tpcc-literal",
            "the same stream as distinct literal SQL: every pipeline cache misses, so "
            "lexer, parser, translator and analysis run per statement per replica",
            transactions=100,
            literal=True,
        ),
        Tpcc(
            "tpcc-readheavy",
            "order_status/stock_level over preloaded history: scans, a join, ORDER BY, "
            "COUNT(DISTINCT) and large multiset comparisons beside few writes",
            transactions=500,
            preload=100,
            mix=READ_HEAVY_MIX,
        ),
        Tpcc(
            "tpcc-durable",
            "the prepared stream with per-replica WALs and checkpoints on a memory "
            "medium, then power cut and restart recovery: the only durability work",
            transactions=200,
            durable=True,
        ),
        Tpcc(
            "tpcc-served",
            "four sessions round-robin through SessionSupervisor, wire codec, NetServer "
            "admission and the middleware: the only workload that runs repro.net",
            transactions=150,
            warmup_rounds=2,
            terminals=4,
        ),
        CorpusStudy(),
        HuntCampaign(),
    ]
    return {workload.name: workload for workload in workloads}
