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

from typing import Any, Iterable, Iterator, Protocol, Sequence

from repro.analysis.schema import ScriptSchema
from repro.analysis.verdicts import WRITE_KINDS
from repro.dialects.features import SERVER_KEYS
from repro.dialects.translator import ScriptPieces
from repro.errors import FeatureNotSupported
from repro.sqlengine.analysis import StatementTraits


class _Trigger(Protocol):
    def matches(self, ctx: Any) -> bool: ...


class SeededFault(Protocol):
    """What is read of a seeded fault (:class:`repro.faults.FaultSpec`)."""

    fault_id: str

    @property  # read-only, so any trigger class fits
    def trigger(self) -> _Trigger: ...


class _Report(Protocol):
    reported_for: str
    runnable_on: frozenset[str]


class FaultCorpus(Protocol):
    """What is read of the bug corpus (:class:`repro.bugs.corpus.Corpus`):
    each server's seeded faults."""

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


def statement_contexts(script: ScriptPieces) -> Iterator[list[StaticContext]]:
    """Per statement of ``script``, its serve-phase context (plus a
    recover-phase twin for a write, since recovery replays writes).

    Dynamic view tags are predicted against the schema state *before*
    each statement, exactly as the engine would see it.
    """
    schema = ScriptSchema()
    for piece in script.statements():
        traits = piece.traits
        dynamic = schema.predicted_dynamic_tags(traits)
        contexts = [StaticContext(piece.sql, traits, dynamic)]
        if traits.kind in WRITE_KINDS:
            contexts.append(StaticContext(piece.sql, traits, dynamic, phase="recover"))
        yield contexts
        schema.observe(piece.statement)


def script_contexts(script: ScriptPieces) -> list[StaticContext]:
    """Every statement context of ``script`` (:func:`statement_contexts`)."""
    return [ctx for contexts in statement_contexts(script) for ctx in contexts]


def server_contexts(report: _Report, script: ScriptPieces, server: str) -> list[StaticContext]:
    """Static contexts for every statement ``server`` would execute of
    one report's ``script``: none when it does not run there, the
    script verbatim at home and translated elsewhere."""
    if server not in report.runnable_on:
        return []
    if server != report.reported_for:
        try:
            script = script.translated(server)
        except FeatureNotSupported:
            # A portability-drift finding, reported by the lint's
            # translator check — not a reachability question.
            return []
    return script_contexts(script)


class FaultReachability:
    """The seeded faults no statement a server would execute can
    trigger, gathered one report's script at a time (:meth:`add`), so a
    caller that holds each script's pieces hands them in as it goes."""

    def __init__(self, corpus: FaultCorpus) -> None:
        self._faults = {server: corpus.faults_for(server) for server in SERVER_KEYS}
        self._contexts: dict[str, list[StaticContext]] = {server: [] for server in SERVER_KEYS}

    def add(self, report: _Report, script: ScriptPieces) -> None:
        for server, contexts in self._contexts.items():
            contexts.extend(server_contexts(report, script, server))

    def unreachable(self) -> list[tuple[str, SeededFault]]:
        """Faults no statement of any hosting script can trigger.

        Unlike the dynamic audit's :func:`repro.study.runner.dead_faults`,
        Heisenbug faults are *included*: activation probability is
        irrelevant to whether the trigger is reachable at all.
        """
        return [
            (server, fault)
            for server, faults in self._faults.items()
            for fault in faults
            if not any(fault.trigger.matches(ctx) for ctx in self._contexts[server])
        ]
