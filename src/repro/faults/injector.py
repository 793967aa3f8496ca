"""The fault injector: the engine's window into a server's fault catalog."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.faults.effects import BehaviourFlagEffect
from repro.faults.spec import FaultSpec


@dataclass
class FaultActivation:
    """A record of one fault firing (for study verification and stats)."""

    fault_id: str
    sql: str
    phase: str


class FaultInjector:
    """Holds a server's seeded faults and applies them at engine hooks.

    Implements the hook protocol of
    :class:`repro.sqlengine.engine.NullInjector`:
    ``before_statement`` / ``after_statement`` / ``flag``.

    Heisenbugs never activate in normal mode — re-running their bug
    script shows no failure, exactly how the study classified them.
    Under :attr:`stress_mode` (the Section 3.2 "more stressful simulated
    environment") each triggered Heisenbug activates with its
    ``stress_activation`` probability, drawn from a seeded RNG so runs
    are reproducible.
    """

    def __init__(
        self,
        faults: Iterable[FaultSpec] = (),
        *,
        seed: int = 0,
        stress_mode: bool = False,
    ) -> None:
        self._faults: dict[str, FaultSpec] = {}
        #: The installed faults by ``effect.phase``, and the behaviour-
        #: flag faults by flag name, each in installation order: a hook
        #: walks only the faults that can answer it.
        self._by_phase: dict[str, list[FaultSpec]] = {}
        self._by_flag: dict[str, list[FaultSpec]] = {}
        self._rng = random.Random(seed)
        self.stress_mode = stress_mode
        self.activations: list[FaultActivation] = []
        self.activation_counts: dict[str, int] = {}
        for fault in faults:
            self.add(fault)

    # -- catalog management --------------------------------------------------

    def add(self, fault: FaultSpec) -> None:
        if fault.fault_id in self._faults:
            raise ValueError(f"duplicate fault id {fault.fault_id!r}")
        self._faults[fault.fault_id] = fault
        effect = fault.effect
        self._by_phase.setdefault(effect.phase, []).append(fault)
        if isinstance(effect, BehaviourFlagEffect):
            self._by_flag.setdefault(effect.flag, []).append(fault)

    def remove(self, fault_id: str) -> None:
        fault = self._faults.pop(fault_id, None)
        if fault is None:
            return
        effect = fault.effect
        self._by_phase[effect.phase].remove(fault)
        if isinstance(effect, BehaviourFlagEffect):
            self._by_flag[effect.flag].remove(fault)

    def faults(self) -> list[FaultSpec]:
        return list(self._faults.values())

    def reset_history(self) -> None:
        self.activations.clear()
        self.activation_counts.clear()

    # -- engine hook protocol ---------------------------------------------------

    def flag(self, name: str, ctx: Optional[object] = None) -> bool:
        """True when a behaviour-flag fault exposes ``name``.

        The fault's trigger is consulted when a context is available, so
        flag faults can be scoped (e.g. only for statements touching a
        bug script's tables).
        """
        for fault in self._by_flag.get(name, ()):
            if ctx is not None and not fault.trigger.matches(ctx):
                continue
            if not self._activates(fault):
                continue
            self._record(fault, ctx, phase="flag")
            return True
        return False

    def before_statement(self, ctx) -> None:
        for fault in self._active_faults(ctx, phase="before"):
            self._record(fault, ctx, phase="before")
            fault.effect.apply_before(ctx)

    def after_statement(self, ctx, result):
        for fault in self._active_faults(ctx, phase="after"):
            self._record(fault, ctx, phase="after")
            result = fault.effect.apply_after(ctx, result)
        return result

    def mutate_storage(self, ctx, payload):
        """Run a WAL record through every matching storage-phase fault.

        Called by the durability layer when a committed write is
        appended to this server's WAL; ``ctx`` describes the logged
        statement.  Returns ``(data, fired)`` where ``data`` is the
        (possibly mutated) record bytes — ``None`` when a lost-flush
        effect dropped it — and ``fired`` lists the fault specs that
        activated, for the middleware's failure-mode counters.
        """
        fired = []
        data = payload
        for fault in self._active_faults(ctx, phase="storage"):
            self._record(fault, ctx, phase="storage")
            fired.append(fault)
            data = fault.effect.apply_storage(ctx, data)
            if data is None:
                break
        return data, fired

    def mutate_network(self, ctx, delivery):
        """Run one frame delivery through every matching network-phase
        fault.

        Called by the simulated transport for each frame it moves;
        ``ctx`` is a :class:`repro.net.transport.NetworkContext`
        describing the frame.  Returns ``(deliveries, fired)`` where
        ``deliveries`` is the rewritten delivery list (possibly empty —
        a dropped frame — or several — a duplicated one) and ``fired``
        lists the fault specs that activated, for transport telemetry.
        """
        deliveries = [delivery]
        fired = []
        for fault in self._active_faults(ctx, phase="network"):
            self._record(fault, ctx, phase="network")
            fired.append(fault)
            rewritten = []
            for entry in deliveries:
                rewritten.extend(fault.effect.apply_network(ctx, entry))
            deliveries = rewritten
            if not deliveries:
                break
        return deliveries, fired

    # -- internals ------------------------------------------------------------

    def _active_faults(self, ctx, phase: str):
        for fault in self._by_phase.get(phase, ()):
            if not fault.trigger.matches(ctx):
                continue
            if not self._activates(fault):
                continue
            yield fault

    def _activates(self, fault: FaultSpec) -> bool:
        if not fault.heisenbug:
            return True
        if not self.stress_mode:
            return False
        return self._rng.random() < fault.stress_activation

    _MAX_ACTIVATION_LOG = 10_000

    def _record(self, fault: FaultSpec, ctx, phase: str) -> None:
        self.activation_counts[fault.fault_id] = (
            self.activation_counts.get(fault.fault_id, 0) + 1
        )
        if len(self.activations) < self._MAX_ACTIVATION_LOG:
            self.activations.append(
                FaultActivation(
                    fault_id=fault.fault_id,
                    sql=getattr(ctx, "sql", ""),
                    phase=phase,
                )
            )

    @property
    def fired_fault_ids(self) -> set[str]:
        return set(self.activation_counts)
