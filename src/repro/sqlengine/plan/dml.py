"""Compiled DML: planned INSERT / UPDATE / DELETE execution.

DML planning reuses the expression compiler and, for UPDATE, the same
unique-key point-lookup machinery as SELECT plans; ``INSERT ... SELECT``
and subqueries in WHERE, SET and VALUES compile as SELECT plans one
nesting level down.  The mutation tail — casts, constraint checks,
undo records — is the engine's (:meth:`Engine._insert_rows` /
:meth:`Engine.apply_row_update`), reached through ``ctx.engine``.  The
target table and columns are resolved against the catalog at compile
time, so a missing one raises from :func:`compile_statement`, before any
value is evaluated; the schema, rows and undo log are those of the
engine the plan runs on.  Planned UPDATE and DELETE return their row
count and the engine builds the ``Result``, so this module never
imports the engine that runs it.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SqlError
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.expressions import ColumnBinding
from repro.sqlengine.plan.compiler import Scope, compile_expression
from repro.sqlengine.plan.lattice import kind_of_type
from repro.sqlengine.plan.logical import LogicalPlan, Scan
from repro.sqlengine.plan.physical import (
    QueryCompiler,
    compile_filter,
    compile_select,
    compile_unique_probe,
)
from repro.sqlengine.plan.rewrites import is_total, split_conjuncts, unique_pin
from repro.sqlengine.types import cast_value


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
        self._target_indices = target
        if stmt.rows is None:
            self._query = queries.subquery(stmt.query, None)
            return
        self._query = None
        scope = Scope((), no_row=True, queries=queries)
        self._rows = [[compile_expression(expr, scope) for expr in row] for row in stmt.rows]

    def execute(self, ctx) -> Any:
        engine = ctx.engine
        schema = engine.catalog.table(self._table)
        data = engine.storage.get(self._table)
        if self._query is not None:
            source_rows = self._query.execute(ctx).rows
        else:
            source_rows = [
                tuple(closure(None, None, ctx) for closure in row) for row in self._rows
            ]
        return engine._insert_rows(
            schema, data, self._target_indices, source_rows, ctx
        )


class PlannedUpdate:
    """UPDATE with a compiled predicate and, when the WHERE clause is
    total and pins a unique key, an index point lookup instead of a
    heap scan."""

    def __init__(self, stmt: ast.Update, queries: QueryCompiler) -> None:
        self._table = stmt.table
        schema = queries.catalog.table(stmt.table)
        plan, scope = _table_plan(schema, queries)
        self._select, conjuncts = _compile_where(stmt.where, plan, scope)
        self._assignments = []
        for name, expr in stmt.assignments:
            index = schema.column_index(name)
            self._assignments.append(
                (index, schema.columns[index].sql_type, compile_expression(expr, scope))
            )
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
        schema = engine.catalog.table(self._table)
        data = engine.storage.get(self._table)
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
            for index, sql_type, closure in self._assignments:
                value = closure(row, None, ctx)
                new_values[index] = cast_value(value, sql_type, implicit=True)
            engine.apply_row_update(schema, data, row, new_values, ctx)
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
