"""One off-the-shelf server product: engine + dialect + fault catalog."""

from __future__ import annotations

from typing import Iterable

from repro.dialects.features import DialectDescriptor
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec
from repro.sqlengine.engine import Engine, EnginePrepared, Executable, Result
from repro.sqlengine.plan import explain_statement


class ServerProduct:
    """A simulated OTS SQL server product.

    Parameters
    ----------
    descriptor:
        The product's dialect (feature gate + spelling maps).
    faults:
        Seeded faults; usually produced by the bug corpus
        (:func:`repro.bugs.corpus.build_corpus`).
    seed / stress_mode:
        Passed to the :class:`~repro.faults.injector.FaultInjector`
        (Heisenbug activation model).
    """

    def __init__(
        self,
        descriptor: DialectDescriptor,
        faults: Iterable[FaultSpec] = (),
        *,
        seed: int = 0,
        stress_mode: bool = False,
    ) -> None:
        self.descriptor = descriptor
        self.injector = FaultInjector(faults, seed=seed, stress_mode=stress_mode)
        self.engine = Engine(
            name=f"{descriptor.product} {descriptor.version}",
            injector=self.injector,
            statement_validator=descriptor.validate,
        )

    # -- identity ---------------------------------------------------------

    @property
    def key(self) -> str:
        return self.descriptor.key

    @property
    def product(self) -> str:
        return self.descriptor.product

    @property
    def version(self) -> str:
        return self.descriptor.version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ServerProduct {self.key} ({self.product} {self.version})>"

    # -- execution ----------------------------------------------------------

    def execute(self, sql: Executable, params=None) -> Result:
        """Execute SQL (text, or a statement already parsed), returning
        the last :class:`Result`.

        With ``params``, ``sql`` is one statement with ``?``
        placeholders, routed through the (memoized) prepared path — the
        unified execution surface shared with
        :class:`~repro.middleware.DiverseServer`."""
        if params is not None:
            return self.engine.prepare(sql).execute(tuple(params))
        return self.engine.execute(sql)

    def explain(self, sql: str) -> str:
        """Render the logical plan the engine's planner would use for
        one SELECT (or a one-line note for any other statement)."""
        return explain_statement(sql, self.engine.catalog)

    def execute_script(self, sql: str) -> list[Result]:
        return self.engine.execute_script(sql)

    def prepare(self, sql: Executable) -> EnginePrepared:
        """Parse one statement (``?`` placeholders allowed) once; the
        returned handle executes it with bound parameters.  Fault
        injection runs per execution, exactly as for :meth:`execute` of
        the equivalent literal statement; the dialect gate, whose answer
        reads only the statement's traits, is decided once per handle."""
        return self.engine.prepare(sql)

    # -- lifecycle -------------------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self.engine.crashed

    def reset(self) -> None:
        """Wipe schema + data and clear crash state (fresh install)."""
        self.engine.reset()
        self.injector.reset_history()

    def restart(self) -> None:
        """Restart after a crash, keeping data (recovery path)."""
        self.engine.restart()

    def snapshot(self):
        """Capture the engine's durable state (checkpointed recovery)."""
        return self.engine.snapshot()

    def restore(self, snapshot) -> None:
        """Replace the engine's state with a checkpoint snapshot."""
        self.engine.restore(snapshot)

    # -- fault management ----------------------------------------------------------

    def fired_faults(self) -> set[str]:
        return self.injector.fired_fault_ids
