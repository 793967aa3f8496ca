"""Static fault-trigger reachability over the bug corpus.

The dynamic dead-fault audit (:func:`repro.study.runner.dead_faults`)
can only judge faults the study actually *fired* — Heisenbug faults,
which activate probabilistically, are excluded by construction.  This
module is the static complement: every trigger the corpus seeds is a
predicate over statement traits, relations, raw SQL, or the engine
phase, all of which are computable from the scripts without
execution.  A fault whose
trigger no statement of any hosting script can ever satisfy is dead by
construction — Heisenbug or not.

The evaluation is exact because triggers only inspect the
:class:`~repro.sqlengine.engine.ExecutionContext` surface that
:class:`StaticContext` duck-types: ``sql``, ``traits``, ``all_tags``
(static tags plus schema-predicted dynamic view tags), and
``engine.phase``.  The corpus and its faults live above this layer;
:class:`FaultCorpus` and :class:`SeededFault` name what is read of them.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Protocol, Sequence

from repro.analysis.schema import ScriptSchema
from repro.analysis.verdicts import WRITE_KINDS
from repro.dialects.features import SERVER_KEYS
from repro.dialects.translator import translate_script
from repro.errors import FeatureNotSupported
from repro.sqlengine.analysis import StatementTraits, extract_traits
from repro.sqlengine.lexer import split_statements
from repro.sqlengine.parser import parse_statement


class _Trigger(Protocol):
    def matches(self, ctx: Any) -> bool: ...


class SeededFault(Protocol):
    """What is read of a seeded fault (:class:`repro.faults.FaultSpec`)."""

    fault_id: str

    @property  # read-only, so any trigger class fits
    def trigger(self) -> _Trigger: ...


class _Report(Protocol):
    reported_for: str
    script: str
    runnable_on: frozenset[str]


class FaultCorpus(Protocol):
    """What is read of the bug corpus (:class:`repro.bugs.corpus.Corpus`):
    its reports and each server's seeded faults."""

    def __iter__(self) -> Iterator[_Report]: ...

    def faults_for(self, server: str) -> Sequence[SeededFault]: ...


class _StaticEngine:
    """Just enough engine surface for :class:`RecoveryTrigger`."""

    def __init__(self, phase: str) -> None:
        self.phase = phase


class StaticContext:
    """A statically constructed stand-in for ``ExecutionContext``."""

    def __init__(
        self,
        sql: str,
        traits: StatementTraits,
        dynamic_tags: Iterable[str] = (),
        phase: str = "serve",
    ) -> None:
        self.sql = sql
        self.traits = traits
        self.dynamic_tags = set(dynamic_tags)
        self.engine = _StaticEngine(phase)

    @property
    def all_tags(self) -> set[str]:
        return self.traits.tags | self.dynamic_tags


def script_contexts(sql: str, schema: Optional[ScriptSchema] = None) -> list[StaticContext]:
    """One serve-phase context per statement of ``sql`` (plus a
    recover-phase twin for each write, since recovery replays writes).

    Dynamic view tags are predicted against the schema state *before*
    each statement, exactly as the engine would see it.
    """
    if schema is None:
        schema = ScriptSchema()
    contexts: list[StaticContext] = []
    for statement_sql in split_statements(sql):
        stmt = parse_statement(statement_sql)
        traits = extract_traits(stmt)
        dynamic = schema.predicted_dynamic_tags(traits)
        contexts.append(StaticContext(statement_sql, traits, dynamic))
        if traits.kind in WRITE_KINDS:
            contexts.append(
                StaticContext(statement_sql, traits, dynamic, phase="recover")
            )
        schema.observe(stmt)
    return contexts


def server_contexts(corpus: FaultCorpus, server: str) -> list[StaticContext]:
    """Static contexts for every statement ``server`` would execute
    across the corpus: its own reports verbatim, foreign runnable
    reports through the dialect translator."""
    contexts: list[StaticContext] = []
    for report in corpus:
        if server not in report.runnable_on:
            continue
        if server == report.reported_for:
            script = report.script
        else:
            try:
                script = translate_script(report.script, server)
            except FeatureNotSupported:
                # A portability-drift finding, reported by the lint's
                # translator check — not a reachability question.
                continue
        contexts.extend(script_contexts(script))
    return contexts


def fault_reachability(corpus: FaultCorpus) -> dict[str, dict[str, bool]]:
    """Per server: fault id -> is any seeded trigger statically
    reachable from the statements that server would execute?"""
    result: dict[str, dict[str, bool]] = {}
    for server in SERVER_KEYS:
        contexts = server_contexts(corpus, server)
        result[server] = {
            fault.fault_id: any(fault.trigger.matches(ctx) for ctx in contexts)
            for fault in corpus.faults_for(server)
        }
    return result


def unreachable_faults(corpus: FaultCorpus) -> list[tuple[str, SeededFault]]:
    """Faults no statement of any hosting script can trigger.

    Unlike the dynamic audit's :func:`repro.study.runner.dead_faults`,
    Heisenbug faults are *included*: activation probability is
    irrelevant to whether the trigger is reachable at all.
    """
    reachability = fault_reachability(corpus)
    dead: list[tuple[str, SeededFault]] = []
    for server in SERVER_KEYS:
        reachable = reachability[server]
        for fault in corpus.faults_for(server):
            if not reachable[fault.fault_id]:
                dead.append((server, fault))
    return dead
