"""Compiled DML: planned INSERT / UPDATE / DELETE execution.

DML planning reuses the expression compiler and, for UPDATE, the same
unique-key point-lookup machinery as SELECT plans.  Each planned
statement mirrors the engine's interpreted path exactly — evaluation
order, cast points, constraint checks, undo records — by delegating the
shared mutation tail back to the engine
(:meth:`Engine._insert_rows` / :meth:`Engine.apply_row_update`).
Planned UPDATE and DELETE return their row count and the engine builds
the ``Result``, so this module never imports the engine that runs it.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.expressions import ColumnBinding
from repro.sqlengine.plan.compiler import Scope, compile_expression
from repro.sqlengine.plan.logical import (
    LogicalPlan,
    PlanUnsupported,
    Scan,
    _reject_subqueries,
    kind_of_type,
)
from repro.sqlengine.plan.physical import (
    compile_filter,
    compile_select,
    compile_unique_probe,
)
from repro.sqlengine.plan.rewrites import _Analyzer, split_conjuncts
from repro.sqlengine.types import cast_value


def _table_plan(stmt: ast.Statement, engine, schema, param_kinds: tuple) -> LogicalPlan:
    """A single-scan pseudo-plan so DML can reuse the SELECT analyzer
    (the walker binds DML rows under the schema's declared name)."""
    scan = Scan(table=schema.name, label=schema.name, width=len(schema.columns))
    bindings = [ColumnBinding(schema.name, column.name) for column in schema.columns]
    kinds = [kind_of_type(column.sql_type) for column in schema.columns]
    return LogicalPlan(
        statement=stmt,
        core=None,
        root=None,
        scans=[scan],
        bindings=bindings,
        kinds=kinds,
        unique_sets=[engine.catalog.unique_sets(schema)],
        param_kinds=param_kinds,
    )


def _compile_where(where, plan: LogicalPlan, scope: Scope) -> tuple:
    """``(selector, conjuncts)`` for a DML WHERE clause: the filter
    kernel over it, and its conjuncts when they are all total for the
    plan's parameter kinds, else None.  A WHERE that is not total stays
    one expression; no WHERE keeps every row."""
    if where is None:
        return (lambda rows, ctx: rows), []
    conjuncts = split_conjuncts(where)
    analyzer = _Analyzer(plan)
    if all(analyzer.is_total(conjunct) for conjunct in conjuncts):
        return compile_filter(conjuncts, scope, True), conjuncts
    return compile_filter([where], scope, False), None


def _whole_heap(data, ctx) -> list:
    return data.rows()


class PlannedInsert:
    """INSERT ... VALUES with pre-compiled value closures."""

    def __init__(self, stmt: ast.Insert, engine) -> None:
        if stmt.rows is None:
            raise PlanUnsupported("INSERT ... SELECT")
        self._engine = engine
        self._table = stmt.table
        schema = engine.catalog.table(stmt.table)
        if stmt.columns is not None:
            target = [schema.column_index(name) for name in stmt.columns]
            if len(set(target)) != len(target):
                raise PlanUnsupported("duplicate INSERT column")
        else:
            target = list(range(len(schema.columns)))
        self._target_indices = target
        scope = Scope((), no_row=True)
        rows = []
        for row in stmt.rows:
            for expr in row:
                _reject_subqueries(expr)
            if len(row) != len(target):
                raise PlanUnsupported("INSERT width mismatch")
            rows.append([compile_expression(expr, scope) for expr in row])
        self._rows = rows

    def execute(self, ctx) -> Any:
        engine = self._engine
        schema = engine.catalog.table(self._table)
        data = engine.storage.get(self._table)
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

    def __init__(self, stmt: ast.Update, engine, param_kinds: tuple) -> None:
        self._engine = engine
        self._table = stmt.table
        schema = engine.catalog.table(stmt.table)
        plan = _table_plan(stmt, engine, schema, param_kinds)
        scope = Scope(plan.bindings)
        if stmt.where is not None:
            _reject_subqueries(stmt.where)
        for _, expr in stmt.assignments:
            _reject_subqueries(expr)
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
        if not conjuncts:
            return _whole_heap
        analyzer = _Analyzer(plan)
        pinned: dict[int, ast.Expression] = {}
        for conjunct in conjuncts:
            if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
                continue
            for column, value in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if not isinstance(column, ast.ColumnRef):
                    continue
                if not isinstance(value, (ast.Literal, ast.Parameter)):
                    continue
                index = analyzer.resolve(column)
                if index is not None:
                    pinned.setdefault(index, value)
        if not pinned:
            return _whole_heap
        for _, _, indices, _ in plan.unique_sets[0]:
            if all(local in pinned for local in indices):
                kinds = tuple(plan.kinds[local] for local in indices)
                if None in kinds:
                    continue
                getters = [
                    compile_expression(pinned[local], scope) for local in indices
                ]
                return compile_unique_probe(indices, kinds, getters)
        return _whole_heap

    def execute(self, ctx) -> int:
        engine = self._engine
        schema = engine.catalog.table(self._table)
        data = engine.storage.get(self._table)
        candidates = self._candidate_rows(data, ctx)
        select = self._select
        if self._total:
            rows = select(candidates, ctx)
        else:
            # A WHERE that may raise is evaluated row by row between the
            # updates, as the walker does, so an error leaves the same
            # rows updated.
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

    def __init__(self, stmt: ast.Delete, engine, param_kinds: tuple) -> None:
        self._engine = engine
        self._table = stmt.table
        schema = engine.catalog.table(stmt.table)
        if stmt.where is not None:
            _reject_subqueries(stmt.where)
        plan = _table_plan(stmt, engine, schema, param_kinds)
        self._select, _ = _compile_where(stmt.where, plan, Scope(plan.bindings))

    def execute(self, ctx) -> int:
        engine = self._engine
        engine.catalog.table(self._table)  # raises if dropped (defensive)
        data = engine.storage.get(self._table)
        # Every row is tested before any is removed, as the walker's
        # delete_rows does, so a raising WHERE removes nothing.
        doomed = {id(row) for row in self._select(data.rows(), ctx)}
        removed = data.delete_rows(lambda row: id(row) in doomed)
        engine.transactions.record(lambda r=removed, d=data: d.restore_rows(r))
        return len(removed)


def compile_statement(stmt: ast.Statement, engine, param_kinds: tuple) -> Optional[Any]:
    """Compile any plannable statement for parameters of
    ``param_kinds``; None for kinds with no planner."""
    if isinstance(stmt, ast.SelectStatement):
        return compile_select(stmt, engine, param_kinds)
    if isinstance(stmt, ast.Insert):
        return PlannedInsert(stmt, engine)
    if isinstance(stmt, ast.Update):
        return PlannedUpdate(stmt, engine, param_kinds)
    if isinstance(stmt, ast.Delete):
        return PlannedDelete(stmt, engine, param_kinds)
    return None
