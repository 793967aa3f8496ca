"""The engine facade: one database instance accepting SQL text.

An :class:`Engine` owns a catalog, row storage, and a transaction
manager.  It consults a fault *injector* at three hook points —
before execution, behaviour flags during execution, and result
transformation after execution — which is how the four simulated server
products (:mod:`repro.servers`) get their distinct fault behaviour while
sharing one correct engine.

A caller that runs one statement on several engines parses it once
and hands each engine the :class:`ParsedStatement` instead of the text.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, NamedTuple, Optional, Union

from repro.errors import (
    CatalogError,
    ConstraintViolation,
    EngineCrash,
    SqlError,
    TypeMismatch,
)
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.analysis import StatementTraits, extract_traits
from repro.sqlengine.catalog import Catalog, ColumnDef, IndexDef, TableSchema, ViewDef
from repro.sqlengine.expressions import ColumnBinding
from repro.sqlengine.parser import parse_prepared, parse_script
from repro.sqlengine.plan.dml import compile_statement
from repro.sqlengine.plan.lattice import kind_of_class
from repro.sqlengine.plan.physical import compile_row_expression, compile_select
from repro.sqlengine.storage import Storage, TableImage
from repro.sqlengine.tokens import Token
from repro.sqlengine.transactions import TransactionManager
from repro.sqlengine.typenames import resolve_type
from repro.sqlengine.types import cast_value
from repro.sqlengine.values import is_finite, row_key


@dataclass
class Result:
    """Outcome of one successfully executed statement."""

    kind: str  # 'select' | 'dml' | 'ddl' | 'txn'
    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0
    #: Simulated execution cost (arbitrary units).  Injected performance
    #: faults inflate this; the study classifier compares it against a
    #: threshold instead of wall-clock time so benchmarks stay fast.
    virtual_cost: float = 1.0
    #: Advisory notes attached by whoever produced the result — the
    #: middleware records masked disagreements and degraded adjudication
    #: here.  Part of the unified result surface; never affects voting.
    warnings: list[str] = field(default_factory=list)


class ParsedStatement(NamedTuple):
    """One statement's text with its parse: what :meth:`Engine.execute`
    and :meth:`Engine.prepare` run without scanning or parsing again.

    ``sql`` stays the statement text fault triggers read; ``traits``
    are ``extract_traits(statement)`` and ``positions`` the offset in
    ``sql`` of each of its ``?`` placeholders.
    """

    sql: str
    statement: ast.Statement
    traits: StatementTraits
    positions: tuple[int, ...]

    @classmethod
    def parse(cls, sql: str, tokens: Optional[list[Token]] = None) -> "ParsedStatement":
        """Parse ``sql``, one statement (``?`` placeholders allowed),
        from ``tokens`` when the caller already holds its scan."""
        statement, positions = parse_prepared(sql if tokens is None else tokens)
        return cls(sql, statement, extract_traits(statement), positions)


#: What the engine runs: SQL text, or a statement a caller parsed.
Executable = Union[str, ParsedStatement]


def executable_text(sql: Executable) -> str:
    """The statement text of ``sql``."""
    return sql if isinstance(sql, str) else sql.sql


def parse_once(sql: str, tokens: Optional[list[Token]] = None) -> Executable:
    """``sql`` parsed once, for running on several engines — or the
    text itself when it is not exactly one statement, so that each
    engine runs or rejects it exactly as it would the text.

    ``tokens`` (ending in EOF) stand in for scanning ``sql``: a piece
    of a longer scan, say, whose text is their rendering."""
    try:
        return ParsedStatement.parse(sql, tokens)
    except SqlError:
        return sql


class ExecutionContext:
    """Everything a fault trigger may inspect about the current statement."""

    def __init__(
        self,
        engine: "Engine",
        sql: str,
        statement: ast.Statement,
        params: tuple = (),
        traits: Optional[StatementTraits] = None,
    ) -> None:
        self.engine = engine
        self.sql = sql
        self.statement = statement
        #: Positional values bound to ``?`` placeholders for this execution.
        self.params = params
        self.traits: StatementTraits = traits if traits is not None else extract_traits(statement)
        #: Tags discovered only at run time (e.g. ``view.distinct_used``
        #: when a referenced relation turned out to be a DISTINCT view).
        self.dynamic_tags: set[str] = set()

    @property
    def all_tags(self) -> set[str]:
        return self.traits.tags | self.dynamic_tags

    def flag(self, name: str) -> bool:
        """Query a behaviour flag from the engine's fault injector."""
        return self.engine.injector.flag(name, self)

    def note_view_use(self, view: ViewDef) -> None:
        self.dynamic_tags.add("view.used")
        if view.has_distinct:
            self.dynamic_tags.add("view.distinct_used")


@dataclass
class EngineSnapshot:
    """An engine's durable state at one moment.

    Used by the middleware's checkpointed recovery: restoring a snapshot
    and replaying the write-log tail past it is equivalent to replaying
    the full history, at a cost bounded by writes-since-checkpoint.
    The catalog is copied; each table is a copy-on-write
    :class:`~repro.sqlengine.storage.TableImage` that shares unchanged
    rows with the live engine.  Either way the snapshot stays valid
    however the live engine mutates afterwards, and can be restored
    repeatedly.
    """

    catalog: Catalog
    tables: dict[str, TableImage]


class NullInjector:
    """Fault injector that injects nothing (a correct server)."""

    def flag(self, name: str, ctx: Optional[ExecutionContext] = None) -> bool:
        return False

    def before_statement(self, ctx: ExecutionContext) -> None:
        return None

    def after_statement(self, ctx: ExecutionContext, result: Result) -> Result:
        return result


StatementValidator = Callable[[ast.Statement, StatementTraits], None]

#: Upper bound on memoized prepared handles per engine; evicts oldest.
_PREPARED_CACHE_SIZE = 512

#: The one plan cache: ``(id(statement), parameter types, rewrite,
#: catalog content token)`` -> compiled plan.  A plan reads nothing of
#: the engine that compiled it, so every engine that runs one statement
#: over an equal catalog shares it.  A statement's plans live exactly as
#: long as the statement (:func:`_forget_plans`).
_PLANS: dict[tuple, Any] = {}
#: ``id(statement)`` -> the keys of its plans in :data:`_PLANS`.
_PLAN_KEYS: dict[int, list[tuple]] = {}


def _forget_plans(statement_id: int) -> None:
    """Drop a statement's plans; its finalizer calls this, before its
    id can be reused."""
    for key in _PLAN_KEYS.pop(statement_id):
        del _PLANS[key]


def statement_plans(statement: ast.Statement) -> list:
    """The plans compiled so far for ``statement``, oldest first."""
    return [_PLANS[key] for key in _PLAN_KEYS.get(id(statement), ())]


class Engine:
    """One in-memory SQL database instance."""

    def __init__(
        self,
        name: str = "engine",
        injector: Optional[NullInjector] = None,
        statement_validator: Optional[StatementValidator] = None,
    ) -> None:
        self.name = name
        self.injector = injector or NullInjector()
        self.statement_validator = statement_validator
        self.catalog = Catalog()
        self.storage = Storage()
        self.transactions = TransactionManager()
        self.crashed = False
        #: 'serve' normally; 'recover' while the middleware replays the
        #: write log onto this engine (recovery-scoped faults key on it).
        self.phase = "serve"
        self._prepared: dict[str, EnginePrepared] = {}
        #: Whether SELECT plans apply ``REWRITE_RULES``; the dual-plan
        #: oracle turns it off for its unrewritten second plan.
        self.rewrite = True
        #: Compiled CHECKs and DEFAULTs per table (see
        #: :meth:`_table_constraints`), guarded by the schema generation.
        self._constraints: dict[str, tuple[TableSchema, int, tuple]] = {}

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Drop all data and schema; clear crash state (fresh install)."""
        self.transactions.abort_if_open()
        self.catalog.clear()
        self.storage.clear()
        self._constraints.clear()
        self.crashed = False

    def restart(self) -> None:
        """Recover from a crash: open transactions are lost, data kept."""
        self.transactions.abort_if_open()
        self.crashed = False

    def snapshot(self) -> EngineSnapshot:
        """Capture the full durable state (schema + rows)."""
        return EngineSnapshot(
            catalog=self.catalog.clone(),
            tables=self.storage.image(),
        )

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Replace the engine's state with a snapshot's; clears crash
        state.  The snapshot is copied, so it can be restored again."""
        self.transactions.abort_if_open()
        self.catalog = snapshot.catalog.clone()
        self.storage = Storage.restored(snapshot.tables)
        # A restore rewinds the generation counter, so generation-keyed
        # caches cannot be trusted across it.
        self._constraints.clear()
        self.crashed = False

    # -- execution -----------------------------------------------------------

    def execute(self, sql: Executable) -> Result:
        """Execute a semicolon-separated script statement by statement
        (or the one statement a caller already parsed); return the last
        result."""
        if self.crashed:
            raise EngineCrash(self.name, "engine is down (previous crash)")
        if isinstance(sql, ParsedStatement):
            return self._execute_statement(sql.statement, sql.sql, traits=sql.traits)
        result = Result(kind="txn")
        for stmt in parse_script(sql):
            result = self._execute_statement(stmt, sql)
        return result

    def prepare(self, sql: Executable) -> "EnginePrepared":
        """Parse ``sql`` (one statement, ``?`` placeholders allowed) once
        and return a handle that executes it with bound parameters.

        Handles are memoized per statement text: preparing the same text
        twice returns the cached handle.  Parsing is schema-independent,
        so the cache never needs DDL invalidation — name binding happens
        at execute time against the live catalog.
        """
        text = executable_text(sql)
        handle = self._prepared.get(text)
        if handle is None:
            handle = EnginePrepared(
                self, ParsedStatement.parse(sql) if isinstance(sql, str) else sql
            )
            if len(self._prepared) >= _PREPARED_CACHE_SIZE:
                self._prepared.pop(next(iter(self._prepared)))
            self._prepared[text] = handle
        return handle

    def _execute_statement(
        self,
        stmt: ast.Statement,
        sql: str,
        params: tuple = (),
        traits: Optional[StatementTraits] = None,
        admitted: bool = False,
    ) -> Result:
        ctx = ExecutionContext(self, sql, stmt, params=params, traits=traits)
        if not admitted and self.statement_validator is not None:
            self.statement_validator(stmt, ctx.traits)
        try:
            self.injector.before_statement(ctx)
            result = self._dispatch(stmt, ctx)
            result = self.injector.after_statement(ctx, result)
        except EngineCrash:
            self.crashed = True
            self.transactions.abort_if_open()
            raise
        return result

    def _dispatch(self, stmt: ast.Statement, ctx: ExecutionContext) -> Result:
        if isinstance(stmt, ast.SelectStatement):
            return self._execute_select(stmt, ctx)
        if isinstance(stmt, ast.Insert):
            return self._execute_insert(stmt, ctx)
        if isinstance(stmt, ast.Update):
            return self._execute_update(stmt, ctx)
        if isinstance(stmt, ast.Delete):
            return self._execute_delete(stmt, ctx)
        if isinstance(stmt, ast.CreateTable):
            return self._execute_create_table(stmt, ctx)
        if isinstance(stmt, ast.CreateView):
            return self._execute_create_view(stmt, ctx)
        if isinstance(stmt, ast.CreateIndex):
            return self._execute_create_index(stmt, ctx)
        if isinstance(stmt, ast.DropTable):
            return self._execute_drop_table(stmt, ctx)
        if isinstance(stmt, ast.DropView):
            return self._execute_drop_view(stmt, ctx)
        if isinstance(stmt, ast.DropIndex):
            return self._execute_drop_index(stmt, ctx)
        if isinstance(stmt, ast.AlterTableAddColumn):
            return self._execute_alter_add_column(stmt, ctx)
        if isinstance(stmt, ast.BeginTransaction):
            self.transactions.begin()
            return Result(kind="txn")
        if isinstance(stmt, ast.Commit):
            self.transactions.commit()
            return Result(kind="txn")
        if isinstance(stmt, ast.Rollback):
            if stmt.savepoint:
                self.transactions.rollback_to_savepoint(stmt.savepoint)
            else:
                self.transactions.rollback()
            return Result(kind="txn")
        if isinstance(stmt, ast.Savepoint):
            self.transactions.savepoint(stmt.name)
            return Result(kind="txn")
        raise SqlError(f"unsupported statement {type(stmt).__name__}")  # pragma: no cover

    # -- planned execution -----------------------------------------------------

    def _cached_plan(self, stmt: ast.Statement, params: tuple) -> Any:
        """The compiled plan for this AST, these parameters' types, the
        current :attr:`rewrite` choice and the catalog's content, from
        the one plan cache (:data:`_PLANS`).

        A plan depends on nothing else, so every engine that runs one
        statement object (a :class:`ParsedStatement` handed to several
        engines, a prepared statement re-executed) over an equal
        catalog shares one compile, and a DDL, reset or restore that
        changes the content misses.  The statement is keyed by identity
        and its plans dropped when it dies: its *text* is not a safe
        key, since every statement of a multi-statement script shares
        one source text.  The parameter types are part of the key
        because the planner decides from their kinds which conjuncts are
        total; literal SQL binds none.  A compile that raises (a missing
        target table, say) caches nothing.
        """
        types = tuple(map(type, params)) if params else ()
        catalog = self.catalog
        generation, token = catalog.token
        if generation != catalog.generation:
            token = catalog.content_token()
        key = (id(stmt), types, self.rewrite, token)
        plan = _PLANS.get(key)
        if plan is not None:
            return plan
        plan = compile_statement(
            stmt, catalog, tuple(map(kind_of_class, types)), self.rewrite
        )
        keys = _PLAN_KEYS.get(key[0])
        if keys is None:
            keys = _PLAN_KEYS[key[0]] = []
            weakref.finalize(stmt, _forget_plans, key[0]).atexit = False
        keys.append(key)
        _PLANS[key] = plan
        return plan

    def _execute_select(self, stmt: ast.SelectStatement, ctx: ExecutionContext) -> Result:
        output = self._cached_plan(stmt, ctx.params).execute(ctx)
        return Result(
            kind="select",
            columns=output.columns,
            rows=output.rows,
            rowcount=len(output.rows),
        )

    # -- DML -------------------------------------------------------------------

    def _execute_insert(self, stmt: ast.Insert, ctx: ExecutionContext) -> Result:
        return self._cached_plan(stmt, ctx.params).execute(ctx)

    def _insert_rows(
        self,
        schema: TableSchema,
        data,
        target_indices: list[int],
        source_rows: list[tuple],
        ctx: ExecutionContext,
    ) -> Result:
        """Validate and store evaluated INSERT rows: all checks run
        against the pending batch before any row lands in the heap."""
        inserted: list[list[Any]] = []
        pending: list[list[Any]] = []
        for source in source_rows:
            if len(source) != len(target_indices):
                raise SqlError(
                    f"INSERT has {len(source)} values for {len(target_indices)} columns"
                )
            row = self._complete_row(schema, target_indices, source, ctx)
            self._check_row_constraints(schema, row, ctx)
            self._check_uniqueness(schema, data, row, pending=pending)
            pending.append(row)
        for row in pending:
            stored = data.insert(row)
            inserted.append(stored)
            self.transactions.record(lambda r=stored, d=data: d.remove_row(r))
        return Result(kind="dml", rowcount=len(inserted))

    def _complete_row(
        self,
        schema: TableSchema,
        target_indices: list[int],
        source: tuple,
        ctx: ExecutionContext,
    ) -> list[Any]:
        missing = object()
        row: list[Any] = [missing] * len(schema.columns)
        for index, value in zip(target_indices, source):
            column = schema.columns[index]
            row[index] = cast_value(value, column.sql_type, implicit=True)
        defaults = None
        for index, column in enumerate(schema.columns):
            if row[index] is missing:
                if defaults is None:
                    defaults = self._table_constraints(schema)[1]
                default = defaults[index]
                row[index] = None if default is None else self._cast_default(
                    default(None, None, ctx), column
                )
        return row

    @staticmethod
    def _cast_default(value: Any, column: ColumnDef) -> Any:
        # This cast is where a wrongly-typed DEFAULT that slipped through
        # creation (bug 217042 behaviour) finally fails — the "detected
        # with high latency" runtime error the paper describes.
        return cast_value(value, column.sql_type, implicit=True)

    def _table_constraints(self, schema: TableSchema) -> tuple:
        """``(checks, defaults)`` of ``schema``, compiled once per table
        and catalog generation: each CHECK as ``(closure, violation
        message)``, column CHECKs in column order then table CHECKs, and
        per column its DEFAULT's closure or None."""
        # Probed with `in` and a subscript: this runs for every inserted
        # and updated row.
        constraints = self._constraints
        generation = self.catalog.generation
        if schema.name in constraints:
            entry = constraints[schema.name]
            if entry[0] is schema and entry[1] == generation:
                return entry[2]
        bindings = [ColumnBinding(schema.name, column.name) for column in schema.columns]
        checks = [
            (
                compile_row_expression(column.check, self.catalog, bindings),
                f"CHECK constraint on column {column.name!r} violated",
            )
            for column in schema.columns
            if column.check is not None
        ]
        checks.extend(
            (
                compile_row_expression(check, self.catalog, bindings),
                f"CHECK constraint on table {schema.name!r} violated",
            )
            for check in schema.checks
        )
        defaults = [
            None
            if column.default is None
            else compile_row_expression(column.default, self.catalog)
            for column in schema.columns
        ]
        compiled = (checks, defaults)
        constraints[schema.name] = (schema, generation, compiled)
        return compiled

    def _check_row_constraints(
        self, schema: TableSchema, row: list[Any], ctx: ExecutionContext
    ) -> None:
        for index, column in enumerate(schema.columns):
            if column.not_null and row[index] is None:
                raise ConstraintViolation(
                    f"column {column.name!r} of {schema.name!r} may not be NULL"
                )
        for check, message in self._table_constraints(schema)[0]:
            if check(row, None, ctx) is False:
                raise ConstraintViolation(message)

    def _check_uniqueness(
        self,
        schema: TableSchema,
        data,
        row: list[Any],
        *,
        pending: list[list[Any]] = (),
        skip: Optional[list[Any]] = None,
    ) -> None:
        for _, _, indices, primary in self.catalog.unique_sets(schema):
            values = [row[i] for i in indices]
            if any(value is None for value in values):
                if primary:
                    raise ConstraintViolation(
                        f"primary key of {schema.name!r} may not be NULL"
                    )
                continue  # SQL UNIQUE ignores NULLs
            key = row_key(tuple(values))
            index = data.unique_index(indices)
            if index is not None:
                # Maintained-index probe: O(1) against the heap, then
                # just the (small) pending batch linearly.
                hit = index.map.get(key)
                if hit is not None and hit is not row and hit is not skip:
                    label = "primary key" if primary else "unique"
                    raise ConstraintViolation(
                        f"{label} constraint violated on {schema.name!r}"
                    )
                candidates: Any = pending
            else:
                # The heap itself cannot be uniquely indexed (duplicate
                # or unkeyable stored values): scan, as before.
                candidates = itertools.chain(data.rows(), pending)
            for existing in candidates:
                if existing is row or existing is skip:
                    continue
                if row_key(tuple(existing[i] for i in indices)) == key:
                    label = "primary key" if primary else "unique"
                    raise ConstraintViolation(
                        f"{label} constraint violated on {schema.name!r}"
                    )

    def _execute_update(self, stmt: ast.Update, ctx: ExecutionContext) -> Result:
        return Result(kind="dml", rowcount=self._cached_plan(stmt, ctx.params).execute(ctx))

    def apply_row_update(
        self,
        schema: TableSchema,
        data,
        row: list[Any],
        new_values: dict[int, Any],
        ctx: ExecutionContext,
    ) -> None:
        """Validate and apply one row's UPDATE, recording undo.  Goes
        through :meth:`TableData.update_row` so maintained unique
        indexes stay consistent without a rebuild."""
        old_values = {index: row[index] for index in new_values}
        candidate = list(row)
        for index, value in new_values.items():
            candidate[index] = value
        self._check_row_constraints(schema, candidate, ctx)
        self._check_uniqueness(schema, data, candidate, skip=row)
        data.update_row(row, new_values)
        self.transactions.record(
            lambda r=row, old=old_values, d=data: d.update_row(r, old)
        )

    def _execute_delete(self, stmt: ast.Delete, ctx: ExecutionContext) -> Result:
        return Result(kind="dml", rowcount=self._cached_plan(stmt, ctx.params).execute(ctx))

    # -- DDL -------------------------------------------------------------------

    def _no_row_value(self, expr: ast.Expression, ctx: ExecutionContext) -> Any:
        """What ``expr`` evaluates to where no row is available (a
        DEFAULT before its table or column exists)."""
        return compile_row_expression(expr, self.catalog)(None, None, ctx)

    def _execute_create_table(self, stmt: ast.CreateTable, ctx: ExecutionContext) -> Result:
        columns: list[ColumnDef] = []
        primary_key: list[str] = []
        unique_sets: list[list[str]] = []
        checks: list[ast.Expression] = []
        for spec in stmt.columns:
            sql_type = resolve_type(spec.type_name, spec.type_args)
            if spec.default is not None and not ctx.flag("skip_default_type_validation"):
                # SQL-92 requires the DEFAULT to be assignable to the
                # column type at definition time.  Interbase report
                # 217042(3) shows two products skipping this check.
                value = self._no_row_value(spec.default, ctx)
                try:
                    cast_value(value, sql_type, implicit=True)
                except TypeMismatch:
                    raise TypeMismatch(
                        f"DEFAULT value for column {spec.name!r} is not assignable "
                        f"to type {sql_type.render()}"
                    ) from None
            columns.append(
                ColumnDef(
                    name=spec.name,
                    sql_type=sql_type,
                    not_null=spec.not_null,
                    default=spec.default,
                    check=spec.check,
                )
            )
            if spec.primary_key:
                primary_key.append(spec.name.lower())
            if spec.unique:
                unique_sets.append([spec.name.lower()])
        for constraint in stmt.constraints:
            if constraint.kind == "PRIMARY KEY":
                if primary_key:
                    raise SqlError(f"table {stmt.name!r} has two primary keys")
                primary_key = [name.lower() for name in constraint.columns]
            elif constraint.kind == "UNIQUE":
                unique_sets.append([name.lower() for name in constraint.columns])
            elif constraint.kind == "CHECK" and constraint.check is not None:
                checks.append(constraint.check)
        schema = TableSchema(
            name=stmt.name,
            columns=columns,
            primary_key=primary_key,
            unique_sets=unique_sets,
            checks=checks,
        )
        for key in primary_key:
            schema.column_index(key)  # raises if the PK names a missing column
        self.catalog.add_table(schema)
        self.storage.create(stmt.name, len(columns))
        self.transactions.record(lambda: self._undo_create_table(stmt.name))
        return Result(kind="ddl")

    def _undo_create_table(self, name: str) -> None:
        try:
            self.catalog.drop_table(name)
        except CatalogError:  # pragma: no cover - undo best effort
            pass
        self.storage.drop(name)

    def _execute_create_view(self, stmt: ast.CreateView, ctx: ExecutionContext) -> Result:
        view = ViewDef(name=stmt.name, query=stmt.query, column_names=stmt.column_names)
        # Validate the defining query by running it once, like products
        # that bind views eagerly; surfaces missing tables/columns now.
        output = compile_select(stmt.query, self.catalog).execute(ctx)
        if stmt.column_names is not None and len(stmt.column_names) != len(output.columns):
            raise CatalogError(
                f"view {stmt.name!r} column list does not match its query"
            )
        self.catalog.add_view(view)
        self.transactions.record(lambda: self.catalog.drop_view(stmt.name))
        return Result(kind="ddl")

    def _execute_create_index(self, stmt: ast.CreateIndex, ctx: ExecutionContext) -> Result:
        index = IndexDef(
            name=stmt.name,
            table=stmt.table,
            columns=stmt.columns,
            unique=stmt.unique,
            clustered=stmt.clustered,
        )
        schema = self.catalog.table(stmt.table)
        data = self.storage.get(stmt.table)
        if stmt.unique:
            indices = [schema.column_index(name) for name in stmt.columns]
            seen: set = set()
            for row in data.rows():
                values = tuple(row[i] for i in indices)
                if any(value is None for value in values):
                    continue
                key = row_key(values)
                if key in seen:
                    raise ConstraintViolation(
                        f"existing rows violate unique index {stmt.name!r}"
                    )
                seen.add(key)
        self.catalog.add_index(index)
        self.transactions.record(lambda: self.catalog.drop_index(stmt.name))
        return Result(kind="ddl")

    def _execute_drop_table(self, stmt: ast.DropTable, ctx: ExecutionContext) -> Result:
        allow_view = ctx.flag("allow_drop_table_on_view")
        if allow_view and self.catalog.has_view(stmt.name):
            view = self.catalog.view(stmt.name)
            self.catalog.drop_table(stmt.name, allow_view=True)
            self.transactions.record(lambda v=view: self.catalog.add_view(v))
            return Result(kind="ddl")
        schema = self.catalog.table(stmt.name)  # raises the standard error
        indexes = self.catalog.indexes_on(stmt.name)
        self.catalog.drop_table(stmt.name)
        data = self.storage.drop(stmt.name)

        def undo() -> None:
            self.catalog.add_table(schema)
            for index in indexes:
                self.catalog.add_index(index)
            if data is not None:
                self.storage._tables[schema.name.lower()] = data

        self.transactions.record(undo)
        return Result(kind="ddl")

    def _execute_drop_view(self, stmt: ast.DropView, ctx: ExecutionContext) -> Result:
        view = self.catalog.view(stmt.name)
        self.catalog.drop_view(stmt.name)
        self.transactions.record(lambda v=view: self.catalog.add_view(v))
        return Result(kind="ddl")

    def _execute_drop_index(self, stmt: ast.DropIndex, ctx: ExecutionContext) -> Result:
        index = self.catalog.index(stmt.name)
        self.catalog.drop_index(stmt.name)
        self.transactions.record(lambda ix=index: self.catalog.add_index(ix))
        return Result(kind="ddl")

    def _execute_alter_add_column(
        self, stmt: ast.AlterTableAddColumn, ctx: ExecutionContext
    ) -> Result:
        schema = self.catalog.table(stmt.table)
        data = self.storage.get(stmt.table)
        if schema.has_column(stmt.column.name):
            raise CatalogError(
                f"column {stmt.column.name!r} already exists in {stmt.table!r}"
            )
        sql_type = resolve_type(stmt.column.type_name, stmt.column.type_args)
        column = ColumnDef(
            name=stmt.column.name,
            sql_type=sql_type,
            not_null=stmt.column.not_null,
            default=stmt.column.default,
            check=stmt.column.check,
        )
        fill: Any = None
        if column.default is not None:
            fill = self._cast_default(self._no_row_value(column.default, ctx), column)
        if column.not_null and fill is None and len(data) > 0:
            raise ConstraintViolation(
                f"cannot add NOT NULL column {column.name!r} without a default"
            )
        schema.columns.append(column)
        data.add_column(fill)
        self.catalog.bump()

        def undo() -> None:
            schema.columns.pop()
            data.drop_last_column()
            self.catalog.bump()

        self.transactions.record(undo)
        return Result(kind="ddl")


class EnginePrepared:
    """A statement parsed once, executable many times with bound params.

    Obtained from :meth:`Engine.prepare`.  The parsed AST and extracted
    traits are reused across executions; parameters are bound at
    evaluation time through :attr:`ExecutionContext.params`, so the
    cached tree is never mutated.
    """

    def __init__(self, engine: Engine, parsed: ParsedStatement) -> None:
        self._engine = engine
        self.sql = parsed.sql
        self.statement = parsed.statement
        #: The offset in :attr:`sql` of each ``?`` placeholder.
        self.positions = parsed.positions
        self.param_count = len(parsed.positions)
        self.traits = parsed.traits

    @cached_property
    def literal_traits(self) -> StatementTraits:
        """The traits of this statement with literals in place of its
        placeholders."""
        return self.traits.literal()

    @cached_property
    def _admitted(self) -> bool:
        """The engine's dialect gate on :attr:`traits`, run on the first
        execution only: its answer reads the traits and the dialect.  A
        refusal raises and is not kept, so every execution of a refused
        handle raises it afresh."""
        return self._admit(self.traits)

    @cached_property
    def _literal_admitted(self) -> bool:
        """:attr:`_admitted` for :attr:`literal_traits`."""
        return self._admit(self.literal_traits)

    def _admit(self, traits: StatementTraits) -> bool:
        validator = self._engine.statement_validator
        if validator is not None:
            validator(self.statement, traits)
        return True

    def execute(self, params: tuple = (), literal: Optional[str] = None) -> Result:
        """Execute with positional values for the ``?`` placeholders.

        ``literal`` is the statement text the values were lifted from:
        :attr:`sql` with each value's literal spliced in at its ``?``.
        The execution then stands for that literal statement: fault
        triggers see its text and :attr:`literal_traits`."""
        if self._engine.crashed:
            raise EngineCrash(self._engine.name, "engine is down (previous crash)")
        bound = tuple(params)
        if len(bound) != self.param_count:
            raise SqlError(
                f"statement takes {self.param_count} parameter(s), "
                f"{len(bound)} given"
            )
        if not all(map(is_finite, bound)):
            raise SqlError(f"cannot bind a NaN or infinite parameter value in {bound!r}")
        if literal is None:
            return self._engine._execute_statement(
                self.statement, self.sql, bound, self.traits, self._admitted
            )
        return self._engine._execute_statement(
            self.statement, literal, bound, self.literal_traits, self._literal_admitted
        )

    def executemany(self, rows) -> list[Result]:
        """Execute once per parameter tuple, in order."""
        return [self.execute(row) for row in rows]
