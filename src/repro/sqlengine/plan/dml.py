"""Compiled DML: planned INSERT / UPDATE / DELETE execution.

DML planning reuses the expression compiler and, for UPDATE, the same
unique-key point-lookup machinery as SELECT plans; ``INSERT ... SELECT``
and subqueries in WHERE, SET and VALUES compile as SELECT plans one
nesting level down.  The target table and columns are resolved against
the catalog at compile time, so a missing one raises from
:func:`compile_statement`, before any value is evaluated; the rows and
undo log are those of the engine the plan runs on (``ctx.engine``).
Planned DML returns its row count and the engine builds the
``Result``, so this module never imports the engine that runs it.

**The write-check rule.**  A write decides when it compiles what it
checks and how it coerces each column.  Plans are keyed by catalog
content and parameter kinds, so the decision holds for every row the
plan touches.  An INSERT checks every NOT NULL column, every CHECK and
every unique set of each new row.  An UPDATE checks NOT NULL on the
columns it assigns, the CHECKs that read an assigned column (one with
a subquery or a volatile function reads every column) and the unique
sets that hold an assigned column: a row that was valid stays valid
under assignments that touch none of a constraint's columns.  It skips
an untouched unique set only while the heap's index over it is live,
which proves the heap unique there; a poisoned index (a duplicate
loaded around the checks) keeps the full scan.  Checks run in one
order — NOT NULL in column order, column CHECKs, table CHECKs, unique
sets in ``unique_sets`` order — so the first error is the full check's.
An exact ``int`` stored into an INTEGER column is kept as it is; every
other value goes through :func:`cast_value`.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.errors import ConstraintViolation, SqlError
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.expressions import ColumnBinding
from repro.sqlengine.functions import VOLATILE_FUNCTIONS
from repro.sqlengine.plan.compiler import Scope, compile_expression
from repro.sqlengine.plan.lattice import kind_of_type
from repro.sqlengine.plan.logical import LogicalPlan, Scan
from repro.sqlengine.plan.physical import (
    QueryCompiler,
    compile_filter,
    compile_row_expression,
    compile_select,
    compile_unique_probe,
)
from repro.sqlengine.plan.rewrites import is_total, split_conjuncts, unique_pin
from repro.sqlengine.types import TypeFamily, cast_value
from repro.sqlengine.values import row_key


def _table_plan(schema, queries: QueryCompiler) -> tuple[LogicalPlan, Scope]:
    """A single-scan pseudo-plan so DML can reuse the SELECT planner's
    totality gate and unique-key pin (DML rows bind under the schema's
    declared name), and the scope its expressions compile in."""
    scan = Scan(table=schema.name, label=schema.name, width=len(schema.columns))
    bindings = [ColumnBinding(schema.name, column.name) for column in schema.columns]
    kinds = [kind_of_type(column.sql_type) for column in schema.columns]
    plan = LogicalPlan(
        root=None,
        scans=[scan],
        bindings=bindings,
        kinds=kinds,
        unique_sets=[queries.catalog.unique_sets(schema)],
        param_kinds=queries.param_kinds,
    )
    return plan, Scope(bindings, queries=queries, resolution=plan.resolution())


def _compile_where(where, plan: LogicalPlan, scope: Scope) -> tuple:
    """``(selector, conjuncts)`` for a DML WHERE clause: the filter
    kernel over it, and its conjuncts when they are all total for the
    plan's parameter kinds, else None.  A WHERE that is not total stays
    one expression; no WHERE keeps every row."""
    if where is None:
        return (lambda rows, ctx: rows), []
    conjuncts = split_conjuncts(where)
    if all(is_total(plan, conjunct) for conjunct in conjuncts):
        return compile_filter(conjuncts, scope, True), conjuncts
    return compile_filter([where], scope, False), None


def _whole_heap(data, ctx) -> list:
    return data.rows()


def _casts(schema, indices) -> list[tuple]:
    """``(position, type, keeps_int)`` per target column: ``keeps_int``
    when the column is INTEGER, into which an exact ``int`` is stored as
    it is (``type(v) is int``, so not a bool)."""
    types = [schema.columns[index].sql_type for index in indices]
    return [
        (index, sql_type, sql_type.family is TypeFamily.INTEGER)
        for index, sql_type in zip(indices, types)
    ]


def _check_reads(check: ast.Expression, schema) -> Optional[frozenset]:
    """The positions of the columns a CHECK reads; None when it may
    read more than its row: it holds a subquery or a volatile function,
    or names a column that is not one of the table's."""
    table = schema.name.lower()
    reads = set()
    for node in ast.walk_expressions(check):
        if (
            isinstance(node, (ast.ScalarSubquery, ast.ExistsPredicate))
            or (isinstance(node, ast.InPredicate) and node.subquery is not None)
            or (isinstance(node, ast.FunctionCall) and node.name in VOLATILE_FUNCTIONS)
        ):
            return None
        if isinstance(node, ast.ColumnRef):
            if (node.table is not None and node.table.lower() != table) or not (
                schema.has_column(node.name)
            ):
                return None
            reads.add(schema.column_index(node.name))
    return frozenset(reads)


class _RowChecks:
    """The constraints a write checks on each row it stores, decided
    when its plan compiles.  ``assigned`` holds the positions of the
    columns an UPDATE assigns; None stands for an INSERT's every column.

    The CHECKs compile on the first row that reaches them: compiling
    one can raise (a subquery over a dropped table), and it must raise
    where evaluating it would, not for a statement that stores no row.
    """

    def __init__(self, schema, catalog, assigned: Optional[set]) -> None:
        def touched(reads) -> bool:
            return assigned is None or reads is None or not assigned.isdisjoint(reads)

        self.table = schema.name
        #: ``(position, message)`` per NOT NULL column checked, in column order.
        self.not_null = [
            (index, f"column {column.name!r} of {schema.name!r} may not be NULL")
            for index, column in enumerate(schema.columns)
            if column.not_null and touched((index,))
        ]
        checks = [
            (column.check, f"CHECK constraint on column {column.name!r} violated")
            for column in schema.columns
            if column.check is not None
        ]
        checks.extend(
            (check, f"CHECK constraint on table {schema.name!r} violated")
            for check in schema.checks
        )
        self._checks = [
            (check, message) for check, message in checks if touched(_check_reads(check, schema))
        ]
        self._bindings = [ColumnBinding(schema.name, column.name) for column in schema.columns]
        self._compiled: Optional[list] = None
        #: Whether a row needs :meth:`run`.
        self.has_checks = bool(self._checks)
        #: ``(unique key, whether the write sets one of its columns)``,
        #: in ``unique_sets`` order.
        self.keys = [(key, touched(key.indices)) for key in catalog.unique_sets(schema)]

    def run(self, row: list, ctx) -> None:
        """Raise the first CHECK ``row`` violates."""
        compiled = self._compiled
        if compiled is None:
            catalog = ctx.engine.catalog
            compiled = self._compiled = [
                (compile_row_expression(check, catalog, self._bindings), message)
                for check, message in self._checks
            ]
        for check, message in compiled:
            if check(row, None, ctx) is False:
                raise ConstraintViolation(message)


def _check_uniqueness(
    table: str, data, row: list, keys, *, pending=(), skip: Optional[list] = None
) -> None:
    """Raise when ``row`` holds the values of another row of the heap
    or of ``pending`` on one of ``keys`` (unique keys, in order),
    ignoring ``row`` itself and ``skip``; a primary key may not hold
    NULL, and a UNIQUE set ignores a row with one."""
    for _, _, indices, primary in keys:
        values = tuple([row[i] for i in indices])
        if None in values:
            if primary:
                raise ConstraintViolation(f"primary key of {table!r} may not be NULL")
            continue  # SQL UNIQUE ignores NULLs
        key = row_key(values)
        index = data.unique_index(indices)
        if index is not None:
            # Maintained-index probe: O(1) against the heap, then
            # just the (small) pending batch linearly.
            hit = index.map.get(key)
            if hit is not None and hit is not row and hit is not skip:
                label = "primary key" if primary else "unique"
                raise ConstraintViolation(f"{label} constraint violated on {table!r}")
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
                raise ConstraintViolation(f"{label} constraint violated on {table!r}")


class PlannedInsert:
    """INSERT ... VALUES with pre-compiled value closures, or INSERT ...
    SELECT with a compiled query.  Every source row is evaluated before
    the first is checked (width, constraints) and stored."""

    def __init__(self, stmt: ast.Insert, queries: QueryCompiler) -> None:
        self._table = stmt.table
        schema = queries.catalog.table(stmt.table)
        if stmt.columns is not None:
            target = [schema.column_index(name) for name in stmt.columns]
            if len(set(target)) != len(target):
                raise SqlError(f"duplicate column in INSERT into {stmt.table!r}")
        else:
            target = list(range(len(schema.columns)))
        self._width = len(schema.columns)
        self._casts = _casts(schema, target)
        #: ``(position, type, DEFAULT)`` per column the INSERT leaves out
        #: that has a DEFAULT, in column order; their closures compile
        #: on the first row, as the CHECKs do.
        self._defaults = [
            (index, column.sql_type, column.default)
            for index, column in enumerate(schema.columns)
            if index not in target and column.default is not None
        ]
        self._default_closures: Optional[list] = None
        self._checks = _RowChecks(schema, queries.catalog, None)
        if stmt.rows is None:
            self._query = queries.subquery(stmt.query, None)
            return
        self._query = None
        scope = Scope((), no_row=True, queries=queries)
        self._rows = [[compile_expression(expr, scope) for expr in row] for row in stmt.rows]

    def _defaulted(self, ctx) -> list:
        closures = self._default_closures
        if closures is None:
            catalog = ctx.engine.catalog
            closures = self._default_closures = [
                (index, sql_type, compile_row_expression(default, catalog))
                for index, sql_type, default in self._defaults
            ]
        return closures

    def execute(self, ctx) -> int:
        engine = ctx.engine
        data = engine.storage.get(self._table)
        if self._query is not None:
            source_rows = self._query.execute(ctx).rows
        else:
            source_rows = [[closure(None, None, ctx) for closure in row] for row in self._rows]
        casts = self._casts
        checks = self._checks
        table = checks.table
        keys = [key for key, _ in checks.keys]
        pending: list[list[Any]] = []
        for source in source_rows:
            if len(source) != len(casts):
                raise SqlError(f"INSERT has {len(source)} values for {len(casts)} columns")
            row: list[Any] = [None] * self._width
            for (index, sql_type, keeps_int), value in zip(casts, source):
                row[index] = (
                    value
                    if keeps_int and type(value) is int
                    else cast_value(value, sql_type, implicit=True)
                )
            if self._defaults:
                for index, sql_type, default in self._defaulted(ctx):
                    # This cast is where a wrongly-typed DEFAULT that
                    # slipped through creation (bug 217042 behaviour)
                    # finally fails — the "detected with high latency"
                    # runtime error the paper describes.
                    row[index] = cast_value(default(None, None, ctx), sql_type, implicit=True)
            for index, message in checks.not_null:
                if row[index] is None:
                    raise ConstraintViolation(message)
            if checks.has_checks:
                checks.run(row, ctx)
            _check_uniqueness(table, data, row, keys, pending=pending)
            pending.append(row)
        for row in pending:
            stored = data.insert(row)
            engine.transactions.record(lambda r=stored, d=data: d.remove_row(r))
        return len(pending)


class PlannedUpdate:
    """UPDATE with a compiled predicate and, when the WHERE clause is
    total and pins a unique key, an index point lookup instead of a
    heap scan.  It checks what its assignments can break (see the
    module's write-check rule)."""

    def __init__(self, stmt: ast.Update, queries: QueryCompiler) -> None:
        self._table = stmt.table
        schema = queries.catalog.table(stmt.table)
        plan, scope = _table_plan(schema, queries)
        self._select, conjuncts = _compile_where(stmt.where, plan, scope)
        indices = [schema.column_index(name) for name, _ in stmt.assignments]
        self._assignments = [
            (*cast, compile_expression(expr, scope))
            for cast, (_, expr) in zip(_casts(schema, indices), stmt.assignments)
        ]
        self._checks = _RowChecks(schema, queries.catalog, set(indices))
        self._candidate_rows = self._compile_probe(conjuncts, plan, scope)
        self._total = conjuncts is not None

    @staticmethod
    def _compile_probe(conjuncts, plan: LogicalPlan, scope: Scope):
        """``(table data, ctx) -> candidate rows``: a unique-key probe
        when the WHERE clause is total and pins every column of a
        uniqueness constraint, else the whole heap."""
        pin = unique_pin(plan, 0, conjuncts) if conjuncts else None
        if pin is None:
            return _whole_heap
        key, exprs, kinds = pin
        getters = [compile_expression(expr, scope) for expr in exprs]
        return compile_unique_probe(key.indices, tuple(kinds), getters)

    def execute(self, ctx) -> int:
        engine = ctx.engine
        data = engine.storage.get(self._table)
        checks = self._checks
        table = checks.table
        # An untouched unique set is checked only when its index is
        # poisoned: then the heap may hold duplicates there, and the
        # full scan finds them as it always has.
        keys = [
            key
            for key, touched in checks.keys
            if touched or data.unique_index(key.indices) is None
        ]
        candidates = self._candidate_rows(data, ctx)
        select = self._select
        if self._total:
            rows = select(candidates, ctx)
        else:
            # A WHERE that may raise (or read the table through a
            # subquery) is evaluated row by row between the updates, so
            # an error leaves the rows before it updated.
            rows = (row for row in candidates if select([row], ctx))
        updated = 0
        for row in rows:
            new_values: dict[int, Any] = {}
            for index, sql_type, keeps_int, closure in self._assignments:
                value = closure(row, None, ctx)
                new_values[index] = (
                    value
                    if keeps_int and type(value) is int
                    else cast_value(value, sql_type, implicit=True)
                )
            for index, message in checks.not_null:
                if new_values[index] is None:
                    raise ConstraintViolation(message)
            if checks.has_checks or keys:
                candidate = list(row)
                for index, value in new_values.items():
                    candidate[index] = value
                if checks.has_checks:
                    checks.run(candidate, ctx)
                if keys:
                    _check_uniqueness(table, data, candidate, keys, skip=row)
            old_values = {index: row[index] for index in new_values}
            data.update_row(row, new_values)
            engine.transactions.record(
                lambda r=row, old=old_values, d=data: d.update_row(r, old)
            )
            updated += 1
        return updated


class PlannedDelete:
    """DELETE with a compiled predicate over the heap scan."""

    def __init__(self, stmt: ast.Delete, queries: QueryCompiler) -> None:
        self._table = stmt.table
        schema = queries.catalog.table(stmt.table)
        plan, scope = _table_plan(schema, queries)
        self._select, _ = _compile_where(stmt.where, plan, scope)

    def execute(self, ctx) -> int:
        engine = ctx.engine
        engine.catalog.table(self._table)  # raises if dropped (defensive)
        data = engine.storage.get(self._table)
        # Every row is tested before any is removed, so a raising WHERE
        # removes nothing and a subquery sees the whole table.
        doomed = {id(row) for row in self._select(data.rows(), ctx)}
        removed = data.delete_rows(lambda row: id(row) in doomed)
        engine.transactions.record(lambda r=removed, d=data: d.restore_rows(r))
        return len(removed)


def compile_statement(stmt: ast.Statement, catalog, param_kinds: tuple, rewrite: bool) -> Any:
    """Compile a SELECT, INSERT, UPDATE or DELETE against ``catalog``
    for parameters of ``param_kinds``, SELECT blocks with the rewrite
    rules applied unless ``rewrite`` is false."""
    if isinstance(stmt, ast.SelectStatement):
        return compile_select(stmt, catalog, param_kinds, rewrite)
    # DML expressions run at depth 0: their subqueries at 1.
    queries = QueryCompiler(catalog, param_kinds, rewrite, 0)
    if isinstance(stmt, ast.Insert):
        return PlannedInsert(stmt, queries)
    if isinstance(stmt, ast.Update):
        return PlannedUpdate(stmt, queries)
    return PlannedDelete(stmt, queries)
