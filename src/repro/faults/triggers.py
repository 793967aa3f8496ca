"""Trigger predicates: when does a fault fire?

A trigger inspects the :class:`~repro.sqlengine.engine.ExecutionContext`
of the statement being executed.  Triggers compose with ``&`` and ``|``.

Triggers only read the :class:`TriggerContext` surface, so the static
reachability analysis (:mod:`repro.analysis.reachability`) can evaluate
them against synthetic contexts without running any engine.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Protocol, runtime_checkable

from repro.sqlengine.analysis import StatementTraits


@runtime_checkable
class TriggerContext(Protocol):
    """What a trigger may inspect about the statement in flight.

    Satisfied by the live :class:`~repro.sqlengine.engine.ExecutionContext`
    and by :class:`repro.analysis.reachability.StaticContext` — keeping
    this surface narrow is what makes faults statically auditable.
    """

    sql: str
    traits: StatementTraits
    engine: Any

    @property
    def all_tags(self) -> set[str]: ...


class Trigger:
    """Base trigger; subclasses implement :meth:`matches`."""

    def matches(self, ctx: TriggerContext) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def __and__(self, other: "Trigger") -> "Trigger":
        return AllOf((self, other))


class AlwaysTrigger(Trigger):
    """Fires on every statement (used for behaviour-flag faults)."""

    def matches(self, ctx: TriggerContext) -> bool:
        return True


class TagTrigger(Trigger):
    """Fires when the statement's trait tags match.

    ``required`` tags must all be present; if ``any_of`` is non-empty at
    least one of those must be present too; ``forbidden`` tags must all
    be absent.  Dynamic tags (``view.distinct_used`` ...) participate.
    """

    def __init__(
        self,
        required: Iterable[str] = (),
        any_of: Iterable[str] = (),
        forbidden: Iterable[str] = (),
        kind: str | None = None,
    ) -> None:
        self.required = frozenset(required)
        self.any_of = frozenset(any_of)
        self.forbidden = frozenset(forbidden)
        self.kind = kind

    def matches(self, ctx: TriggerContext) -> bool:
        tags = ctx.all_tags
        if self.kind is not None and ctx.traits.kind != self.kind:
            return False
        if not self.required <= tags:
            return False
        if self.any_of and not (self.any_of & tags):
            return False
        if self.forbidden & tags:
            return False
        return True


class RelationTrigger(Trigger):
    """Fires when the statement references one of the given relations.

    Bug scripts in the generated corpus use per-bug table names
    (``t<bug id>_...``), so a relation trigger scopes a generic fault to
    exactly its bug script — the "failure region" of that bug.
    """

    def __init__(self, names: Iterable[str], kind: str | None = None) -> None:
        self.names = frozenset(name.lower() for name in names)
        self.kind = kind

    def matches(self, ctx: TriggerContext) -> bool:
        if self.kind is not None and ctx.traits.kind != self.kind:
            return False
        return bool(self.names & ctx.traits.relations)


class SqlPatternTrigger(Trigger):
    """Fires when the raw SQL text matches a regular expression."""

    def __init__(self, pattern: str) -> None:
        self.regex = re.compile(pattern, re.IGNORECASE | re.DOTALL)

    def matches(self, ctx: TriggerContext) -> bool:
        return bool(self.regex.search(ctx.sql))


class RecoveryTrigger(Trigger):
    """Fires only while the engine is replaying the write log during
    replica recovery (``engine.phase == "recover"``).

    Models faults that bite the recovery path itself — a replica that
    crashes again mid-replay — which is what the supervisor's backoff
    and circuit breaker exist to contain.  Compose with other triggers
    to scope the relapse to particular statements:
    ``RecoveryTrigger() & SqlPatternTrigger(r"INSERT INTO orders")``.
    """

    def __init__(self, phase: str = "recover") -> None:
        self.phase = phase

    def matches(self, ctx: TriggerContext) -> bool:
        return getattr(ctx.engine, "phase", "serve") == self.phase


class AllOf(Trigger):
    """Conjunction of triggers."""

    def __init__(self, triggers: Iterable[Trigger]) -> None:
        self.triggers = tuple(triggers)

    def matches(self, ctx: TriggerContext) -> bool:
        return all(trigger.matches(ctx) for trigger in self.triggers)
