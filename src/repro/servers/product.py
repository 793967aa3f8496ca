"""One off-the-shelf server product: engine + dialect + fault catalog.

:class:`ServerProduct` is the one surface through which the layers
above (the middleware, its supervisor, durability and the harnesses)
read or change a replica: its SQL interface, its start, stop and
restore operations, its transaction state and recovery phase, the two
dumps replicas are compared by, and the rows a durable checkpoint
writes and loads.  Nothing above :mod:`repro.servers` reaches into the
engine behind it (``tests/test_import_direction.py`` keeps it so).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Iterable, Iterator

from repro import records
from repro.dialects.features import DialectDescriptor
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec
from repro.sqlengine.engine import Engine, EnginePrepared, Executable, Result
from repro.sqlengine.plan import explain_statement
from repro.sqlengine.values import normalize_row


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

    @property
    def in_transaction(self) -> bool:
        """Whether a transaction is open on this product."""
        return self.engine.transactions.in_transaction

    @contextmanager
    def recovering(self) -> Iterator[None]:
        """Run the block in the product's recovery phase, where
        recovery-scoped faults (:class:`~repro.faults.triggers.RecoveryTrigger`)
        fire; the serve phase returns on every exit."""
        self.engine.phase = "recover"
        try:
            yield
        finally:
            self.engine.phase = "serve"

    @contextmanager
    def unrewritten(self) -> Iterator[None]:
        """Run the block with SELECT plans compiled without
        ``REWRITE_RULES`` (the dual-plan oracle's second plan); rewrites
        are back on at every exit."""
        self.engine.rewrite = False
        try:
            yield
        finally:
            self.engine.rewrite = True

    # -- state ---------------------------------------------------------------

    def row_count(self) -> int:
        """Rows across all tables (the rebuild seeding cost model)."""
        return self.engine.storage.row_count()

    def normalized_state(self) -> dict[str, list[tuple]]:
        """The whole database in canonical form: every base table
        (lower-cased name) mapped to its sorted normalised rows.  The
        consistency check and the rebuild admission gate compare
        replicas through this dump."""
        return {
            name.lower(): sorted(map(normalize_row, rows))
            for name, _, rows in self.table_rows()
        }

    def state_signature(self) -> str:
        """:func:`engine_state_signature` of this product."""
        return engine_state_signature(self.engine)

    def table_rows(self) -> list[tuple[str, int, list[tuple]]]:
        """Every base table as ``(name, column count, rows)``, each row
        a tuple copy that shares nothing with the live heap."""
        return [
            (data.name, data.column_count, data.snapshot())
            for data in self.engine.storage.tables()
        ]

    def load_rows(self, name: str, columns: int, rows: Iterable[Iterable[Any]]) -> None:
        """Replace the rows of table ``name`` with ``rows`` (a durable
        checkpoint's bulk load).  Raises :class:`ValueError` when no
        table ``name`` is ``columns`` wide, or a row is not."""
        data = self.engine.storage.get_optional(name)
        if data is None:
            raise ValueError(f"table {name!r} has no schema")
        if data.column_count != columns:
            raise ValueError(f"width mismatch on {name!r}")
        data.replace_rows(rows)

    # -- fault management ----------------------------------------------------------

    def fired_faults(self) -> set[str]:
        return self.injector.fired_fault_ids


def engine_state_signature(engine: Engine) -> str:
    """A canonical fingerprint of one engine's durable state.

    Covers the catalog (tables, views, indexes by name) and every
    table's row multiset in the checkpoint value codec.  Two engines
    with equal signatures hold the same logical database; the
    restart-recovery healer and the power-cut property tests compare
    these.
    """
    tables = {}
    for data in engine.storage.tables():
        rows = sorted(
            json.dumps(row, sort_keys=True, default=records.json_default)
            for row in data.snapshot()
        )
        tables[data.name.lower()] = rows
    catalog = engine.catalog
    indexes = sorted(
        index.name.lower()
        for table in catalog.tables()
        for index in catalog.indexes_on(table.name)
    )
    payload = {
        "tables": tables,
        "table_names": sorted(t.name.lower() for t in catalog.tables()),
        "views": sorted(v.name.lower() for v in catalog.views()),
        "indexes": indexes,
    }
    return json.dumps(payload, sort_keys=True)
