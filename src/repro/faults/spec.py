"""Fault specifications and the failure taxonomy of the study."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.effects import Effect
    from repro.faults.triggers import Trigger


class FailureKind(Enum):
    """The paper's failure-type classification (Section 4.1)."""

    ENGINE_CRASH = "engine_crash"
    INCORRECT_RESULT = "incorrect_result"
    PERFORMANCE = "performance"
    OTHER = "other"
    #: Durability extension (not in the paper's study data): the fault
    #: corrupts the write path to stable storage — torn writes, lost
    #: flushes, bit rot — and manifests only at restart recovery.
    STORAGE = "storage"
    #: Concurrency extension (not in the paper's study data): broken
    #: transaction isolation — lost updates, dirty reads, phantoms —
    #: the anomaly families the conflict analyzer's serializability
    #: certificates must keep out of certified-commuting schedules.
    CONCURRENCY = "concurrency"


class Detectability(Enum):
    """The paper's detectability classification (Section 4.1).

    Self-evident: crashes, signalled exceptions, performance failures.
    Non-self-evident: silently wrong output, no exception.
    """

    SELF_EVIDENT = "self_evident"
    NON_SELF_EVIDENT = "non_self_evident"


@dataclass
class FaultSpec:
    """One seeded fault in one server product.

    Parameters
    ----------
    fault_id:
        Unique identifier, conventionally ``<server>-<bug id>`` for
    faults tied to a corpus bug report (e.g. ``IB-223512``).
    description:
        One-line account of the misbehaviour.
    trigger:
        Predicate over the execution context deciding when the fault
        is exercised.
    effect:
        What the fault does when exercised.
    kind / detectability:
        How the resulting failure classifies in the study taxonomy.
    heisenbug:
        A Heisenbug is *not* reproducible by simply re-running its bug
        script: it only activates in stress mode (multiple clients,
        large transaction counts — the paper's Section 3.2 plan), and
        then only with probability ``stress_activation``.
    """

    fault_id: str
    description: str
    trigger: "Trigger"
    effect: "Effect"
    kind: FailureKind = FailureKind.INCORRECT_RESULT
    detectability: Detectability = Detectability.NON_SELF_EVIDENT
    heisenbug: bool = False
    stress_activation: float = 0.35
    #: Free-form origin notes (which paper bug report this models, etc.)
    notes: Optional[str] = None
    tags: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not 0.0 <= self.stress_activation <= 1.0:
            raise ValueError("stress_activation must be a probability")
