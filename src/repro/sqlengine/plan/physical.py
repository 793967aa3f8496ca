"""Physical plan compilation: logical operators to batch closures.

``compile_select`` turns a lowered + rewritten :class:`LogicalPlan`
into a :class:`PhysicalSelect` whose ``execute(ctx)`` produces the same
:class:`~repro.sqlengine.executor.QueryResult` as the tree-walker —
same rows, same order, same column names, same errors — while running
compiled closures over row batches instead of per-row AST recursion.

A plan is compiled for one tuple of parameter kinds, so everything its
shape depends on is decided before it runs.  What only the data can
tell is handled in place, never by handing the statement back to the
walker: a unique-key probe that cannot use its index (poisoned, stored
key kinds that differ, a probe value that will not hash) returns the
whole heap, and the filter above it re-applies every conjunct; a hash
join whose keys will not hash evaluates the equality row by row.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Optional

from repro.errors import BindError, TypeMismatch
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.executor import QueryResult, SelectExecutor, order_rows
from repro.sqlengine.expressions import _AMBIGUOUS
from repro.sqlengine.functions import Accumulator
from repro.sqlengine.plan.compiler import (
    CMP_OPERATORS,
    Closure,
    Scope,
    compile_expression,
)
from repro.sqlengine.plan.logical import (
    Aggregate,
    CrossJoin,
    Distinct,
    DualScan,
    Filter,
    HashJoin,
    IndexLookup,
    Limit,
    LogicalPlan,
    PlanUnsupported,
    Scan,
    Sort,
    lower_select,
)
from repro.sqlengine.plan.rewrites import apply_rewrites
from repro.sqlengine.values import distinct_key, row_key, sql_compare

Source = Callable[[Any], list]
Selector = Callable[[list, Any], list]


def _join_key(value: Any, expected: str):
    """Hash key for a join/index probe: ``distinct_key`` with booleans
    bridged onto the numeric kind (matching ``sql_compare``'s
    bool/number reconciliation).  Returns None when the value's kind is
    not ``expected`` — hashing it would diverge from the walker."""
    if isinstance(value, bool):
        return ("n", int(value)) if expected == "n" else None
    key = distinct_key(value)
    return key if key[0] == expected else None


def compile_unique_probe(
    indices: tuple, kinds: tuple, getters: list
) -> Callable[[Any, Any], list]:
    """``(table data, ctx) -> rows`` for a unique-key point probe: the
    row holding the key, if any, or the whole heap when the index cannot
    answer (unavailable, stored key kinds other than the declared ones,
    a probe value that does not hash under its kind).  The caller
    re-applies every conjunct to what the probe returns, so the heap is
    always a correct answer."""

    def probe(data: Any, ctx: Any) -> list:
        index = data.unique_index(indices)
        if index is None:
            return data.rows()
        for stored, kind in zip(index.kinds, kinds):
            if stored - {kind}:
                return data.rows()
        key = []
        for getter, expected in zip(getters, kinds):
            value = getter(None, None, ctx)
            if value is None:
                return []  # `col = NULL` is never TRUE; the walker keeps no rows
            part = _join_key(value, expected)
            if part is None:
                return data.rows()
            key.append(part)
        row = index.map.get(tuple(key))
        return [row] if row is not None else []

    return probe


def _hoisted_comparison(conjunct: ast.Expression, scope: Scope) -> Optional[tuple]:
    """``(column index, operator, parameter index or None, literal)``
    for a ``column <op> parameter|literal`` conjunct; None otherwise."""
    if type(conjunct) is not ast.BinaryOp or conjunct.op not in CMP_OPERATORS:
        return None
    column, operand = conjunct.left, conjunct.right
    if type(column) is not ast.ColumnRef:
        return None
    index = scope.resolve(column)
    if index is None or index == _AMBIGUOUS:
        return None
    test = CMP_OPERATORS[conjunct.op]
    if type(operand) is ast.Parameter:
        return (index, test, operand.index, None)
    if type(operand) is ast.Literal:
        return (index, test, None, operand.value)
    return None


def compile_filter(conjuncts: list, scope: Scope, total: bool) -> Selector:
    """The filter kernel: ``(rows, ctx) -> rows`` keeping the rows on
    which every conjunct is SQL TRUE, stopping at the first conjunct
    that is not.

    Early exit is sound because a filter holds more than one conjunct
    only when they were proved total (predicate pushdown, planned
    UPDATE / DELETE), so no skipped one could raise.  ``total`` says that
    the conjuncts were proved total for the plan's parameter kinds, so a
    ``column <op> parameter|literal`` conjunct fetches its operand once
    per execution: a NULL operand makes the result empty, and a row
    compares with the Python operator when the stored value and the
    operand are both exactly ``int`` (``sql_compare`` otherwise).  Any
    other conjunct runs its compiled closure in the same loop.
    """
    hoisted: list[tuple] = []
    predicates: list[Closure] = []
    for conjunct in conjuncts:
        spec = _hoisted_comparison(conjunct, scope) if total else None
        if spec is None:
            predicates.append(compile_expression(conjunct, scope))
        else:
            hoisted.append(spec)
    if not hoisted and len(predicates) == 1:
        predicate = predicates[0]
        return lambda rows, ctx: [row for row in rows if predicate(row, None, ctx) is True]

    def select(rows: list, ctx: Any) -> list:
        params = ctx.params
        bound = []
        for index, test, param, literal in hoisted:
            operand = literal if param is None else params[param]
            if operand is None:
                return []  # `col <op> NULL` is never TRUE
            bound.append((index, test, operand, type(operand) is int))
        kept = []
        for row in rows:
            for index, test, operand, exact in bound:
                stored = row[index]
                if exact and type(stored) is int:
                    if not test(stored, operand):
                        break
                else:
                    cmp = sql_compare(stored, operand)
                    if cmp is None or not test(cmp, 0):
                        break
            else:
                for predicate in predicates:
                    if predicate(row, None, ctx) is not True:
                        break
                else:
                    kept.append(row)
        return kept

    return select


def compile_select(
    stmt: ast.SelectStatement, engine, param_kinds: tuple = ()
) -> "PhysicalSelect":
    """Lower, rewrite, and compile a SELECT for ``engine`` and
    parameters of ``param_kinds``.

    Raises :class:`PlanUnsupported` when the statement is outside the
    planner's subset; the caller keeps using the tree-walker.
    """
    plan = lower_select(stmt, engine.catalog, param_kinds)
    apply_rewrites(plan)
    if plan.incomplete:
        raise PlanUnsupported("plan references a missing table")
    return PhysicalSelect(plan, engine)


class PhysicalSelect:
    """A compiled SELECT plan bound to one engine's catalog snapshot.

    Valid only while the catalog generation it was compiled against is
    current; the engine's plan cache enforces that.
    """

    def __init__(self, plan: LogicalPlan, engine) -> None:
        self.plan = plan
        self._engine = engine
        stmt = plan.statement
        core = plan.core

        root = plan.root
        self._limit = None
        if isinstance(root, Limit):
            self._limit = root.count
            root = root.child
        self._has_sort = False
        if isinstance(root, Sort):
            self._has_sort = True
            sort_items = root.order_by
            root = root.child
        self._distinct = False
        if isinstance(root, Distinct):
            self._distinct = True
            root = root.child

        bindings = plan.bindings
        self._width = len(bindings)
        row_scope = Scope(bindings)

        if isinstance(root, Aggregate):
            self._grouped = True
            agg_nodes = SelectExecutor._collect_core_aggregates(core)
            slots = {id(node): position for position, node in enumerate(agg_nodes)}
            out_scope = Scope(bindings, agg_slots=slots)
            self._agg_specs = [
                (node.name, node.distinct, node.star, self._agg_arg(node, row_scope))
                for node in agg_nodes
            ]
            self._group_keys = [
                compile_expression(expr, row_scope) for expr in root.group_by
            ]
            self._having = (
                compile_expression(root.having, out_scope)
                if root.having is not None
                else None
            )
        else:
            self._grouped = False
            out_scope = row_scope
        items = root.items

        self._name_parts = self._compile_names(items, bindings)
        self._project, self._columns = self._compile_projection(
            items, bindings, out_scope
        )
        self._order_spec = (
            self._compile_order(sort_items, out_scope) if self._has_sort else None
        )
        self._source = self._compile_source(root.child, plan)

    # -- compilation ---------------------------------------------------------

    @staticmethod
    def _agg_arg(node: ast.FunctionCall, row_scope: Scope):
        """Per-row accumulator feed for one aggregate call: None for
        ``COUNT(*)``, an arg closure, or a raising marker for wrong
        arity (the walker raises per accumulated row)."""
        if node.star:
            return None
        if len(node.args) != 1:
            name = node.name

            def bad_arity(row: Any, aggs: Any, ctx: Any) -> Any:
                raise TypeMismatch(f"aggregate {name} takes exactly one argument")

            return bad_arity
        return compile_expression(node.args[0], row_scope)

    def _compile_names(self, items, bindings):
        """Output-name recipe mirroring ``SelectExecutor._output_names``:
        literal strings, per-execution flag consults for unaliased
        AVG/SUM (Interbase 222476), and a raising part for a qualified
        ``*`` that matches no table."""
        parts: list[tuple] = []
        for item in items:
            expr = item.expression
            if isinstance(expr, ast.Star):
                matched = False
                for binding in bindings:
                    if expr.table is None or binding.label.lower() == expr.table.lower():
                        parts.append(("name", binding.name))
                        matched = True
                if expr.table is not None and not matched:
                    table = expr.table
                    parts.append(("error", f"unknown table {table!r} in select list"))
                continue
            if item.alias:
                parts.append(("name", item.alias))
            elif isinstance(expr, ast.ColumnRef):
                parts.append(("name", expr.name))
            elif isinstance(expr, ast.FunctionCall):
                if expr.name in ("AVG", "SUM"):
                    parts.append(("flag", expr.name))
                else:
                    parts.append(("name", expr.name))
            else:
                parts.append(("name", "EXPR"))
        return parts

    def _names(self, ctx) -> list[str]:
        names: list[str] = []
        for kind, payload in self._name_parts:
            if kind == "name":
                names.append(payload)
            elif kind == "flag":
                names.append("" if ctx.flag("empty_agg_field_names") else payload)
            else:
                raise BindError(payload)
        return names

    def _compile_projection(self, items, bindings, scope: Scope):
        """Row projector ``(row, aggs, ctx) -> tuple``, plus a
        ``row -> tuple`` column fetch when every item is a column (else
        None): ``*`` and each column reference that resolves cleanly
        become column positions at compile time."""
        parts: list[tuple] = []  # ("col", index) | ("fn", closure)
        for item in items:
            expr = item.expression
            if isinstance(expr, ast.Star):
                for index, binding in enumerate(bindings):
                    if expr.table is None or binding.label.lower() == expr.table.lower():
                        parts.append(("col", index))
                continue
            if isinstance(expr, ast.ColumnRef):
                index = scope.resolve(expr)
                if index is not None and index != _AMBIGUOUS:
                    parts.append(("col", index))
                    continue
            parts.append(("fn", compile_expression(expr, scope)))

        if parts and all(kind == "col" for kind, _ in parts):
            indices = [payload for _, payload in parts]
            # itemgetter of one index returns the bare value, not a 1-tuple.
            columns = (
                itemgetter(*indices) if len(indices) > 1 else lambda row: (row[indices[0]],)
            )
            return (lambda row, aggs, ctx: columns(row)), columns

        def project(row: Any, aggs: Any, ctx: Any) -> tuple:
            values = []
            for kind, payload in parts:
                if kind == "col":
                    values.append(row[payload])
                else:
                    values.append(payload(row, aggs, ctx))
            return tuple(values)

        return project, None

    def _compile_order(self, order_by, scope: Scope):
        """ORDER BY recipe; the walker resolves unqualified column names
        against *output* names first, which can vary per execution
        (flag-dependent aggregate names), so name resolution happens at
        execute time against the computed name list."""
        spec: list[tuple] = []
        for item in order_by:
            expr = item.expression
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                spec.append(("ordinal", expr.value, item.descending))
                continue
            if isinstance(expr, ast.ColumnRef) and expr.table is None:
                fallback = compile_expression(expr, scope)
                spec.append(("byname", (expr.name.lower(), fallback), item.descending))
                continue
            spec.append(("expr", compile_expression(expr, scope), item.descending))
        return spec

    # -- source tree ---------------------------------------------------------

    def _compile_source(self, node: Any, plan: LogicalPlan) -> Source:
        engine = self._engine
        if isinstance(node, DualScan):
            return lambda ctx: [()]
        if isinstance(node, Scan):
            storage = engine.storage
            table = node.table
            return lambda ctx: storage.get(table).rows()
        if isinstance(node, IndexLookup):
            return self._compile_lookup(node, plan)
        if isinstance(node, Filter):
            child = self._compile_source(node.child, plan)
            scope = Scope(plan.bindings, shift=self._subtree_shift(node.child))
            select = compile_filter(node.conjuncts, scope, node.pushed)
            return lambda ctx: select(child(ctx), ctx)
        if isinstance(node, CrossJoin):
            left = self._compile_source(node.left, plan)
            right = self._compile_source(node.right, plan)

            def cross(ctx: Any) -> list:
                left_rows = left(ctx)
                right_rows = right(ctx)
                return [lrow + rrow for lrow in left_rows for rrow in right_rows]

            return cross
        if isinstance(node, HashJoin):
            return self._compile_hash_join(node, plan)
        raise PlanUnsupported(f"no physical operator for {type(node).__name__}")

    @staticmethod
    def _subtree_shift(node: Any) -> int:
        """Row coordinates of a source subtree: scan-local below joins
        (shift by the scan's combined-row offset), combined above."""
        while isinstance(node, Filter):
            node = node.child
        if isinstance(node, Scan):
            return node.offset
        if isinstance(node, IndexLookup):
            return node.scan.offset
        return 0

    def _compile_lookup(self, node: IndexLookup, plan: LogicalPlan) -> Source:
        engine = self._engine
        table = node.scan.table
        probe_scope = Scope(plan.bindings)
        probe = compile_unique_probe(
            tuple(node.key_indices),
            tuple(node.key_kinds),
            [compile_expression(expr, probe_scope) for expr in node.key_exprs],
        )
        return lambda ctx: probe(engine.storage.get(table), ctx)

    def _compile_hash_join(self, node: HashJoin, plan: LogicalPlan) -> Source:
        left = self._compile_source(node.left, plan)
        right = self._compile_source(node.right, plan)
        scope = Scope(plan.bindings)
        analyzer_resolve = Scope(plan.bindings)
        left_index = analyzer_resolve.resolve(node.left_key)
        right_shift = self._subtree_shift(node.right)
        right_index = analyzer_resolve.resolve(node.right_key) - right_shift
        expected = node.key_kind
        # Exact-semantics fallback for rows/batches whose key values the
        # hash cannot represent faithfully: evaluate the original
        # equality predicate over the cross product, as the walker does.
        equality = compile_expression(
            ast.BinaryOp("=", node.left_key, node.right_key), scope
        )

        def join(ctx: Any) -> list:
            left_rows = left(ctx)
            right_rows = right(ctx)
            if not left_rows or not right_rows:
                return []
            build: dict = {}
            clean = True
            for rrow in right_rows:
                value = rrow[right_index]
                if value is None:
                    continue  # NULL keys never compare TRUE
                try:
                    key = _join_key(value, expected)
                except TypeMismatch:
                    key = None
                if key is None:
                    clean = False
                    break
                build.setdefault(key, []).append(rrow)
            if not clean:
                return [
                    lrow + rrow
                    for lrow in left_rows
                    for rrow in right_rows
                    if equality(lrow + rrow, None, ctx) is True
                ]
            out = []
            for lrow in left_rows:
                value = lrow[left_index]
                if value is None:
                    continue
                try:
                    key = _join_key(value, expected)
                except TypeMismatch:
                    key = None
                if key is None:
                    # Odd probe value: nested-loop this row only, keeping
                    # the walker's per-comparison raise behaviour.
                    for rrow in right_rows:
                        combined = lrow + rrow
                        if equality(combined, None, ctx) is True:
                            out.append(combined)
                    continue
                hits = build.get(key)
                if hits:
                    for rrow in hits:
                        out.append(lrow + rrow)
            return out

        return join

    # -- execution -----------------------------------------------------------

    def execute(self, ctx) -> QueryResult:
        rows = self._source(ctx)
        if rows and ctx.flag("plan_filter_truncates"):
            # Injected planner fault (dual-plan oracle target): the
            # compiled filter stage drops the final row of the batch.
            rows = rows[:-1]

        if self._grouped:
            names, out_rows, ctx_rows, ctx_aggs = self._run_grouped(rows, ctx)
        else:
            names = self._names(ctx)
            if self._columns is not None:
                out_rows = list(map(self._columns, rows))
            else:
                project = self._project
                out_rows = [project(row, None, ctx) for row in rows]
            ctx_rows = rows
            ctx_aggs = None

        if self._distinct:
            seen: set = set()
            kept_rows = []
            kept_ctx_rows = []
            kept_ctx_aggs = [] if ctx_aggs is not None else None
            for index, row in enumerate(out_rows):
                key = row_key(row)
                if key in seen:
                    continue
                seen.add(key)
                kept_rows.append(row)
                kept_ctx_rows.append(ctx_rows[index])
                if kept_ctx_aggs is not None:
                    kept_ctx_aggs.append(ctx_aggs[index])
            out_rows = kept_rows
            ctx_rows = kept_ctx_rows
            ctx_aggs = kept_ctx_aggs

        if self._order_spec is not None:
            out_rows = self._sorted(names, out_rows, ctx_rows, ctx_aggs, ctx)
        if self._limit is not None:
            out_rows = out_rows[: self._limit]
        return QueryResult(names, out_rows)

    def _run_grouped(self, rows: list, ctx):
        group_keys = self._group_keys
        if group_keys:
            groups: dict = {}
            order: list = []
            for row in rows:
                key = tuple(
                    distinct_key(closure(row, None, ctx)) for closure in group_keys
                )
                bucket = groups.get(key)
                if bucket is None:
                    groups[key] = bucket = []
                    order.append(key)
                bucket.append(row)
            group_items = [groups[key] for key in order]
        else:
            group_items = [rows]

        names = self._names(ctx)
        having = self._having
        project = self._project
        specs = self._agg_specs
        null_row = (None,) * self._width
        out_rows = []
        ctx_rows = []
        ctx_aggs = []
        for group_rows in group_items:
            accumulators = [
                Accumulator(name, distinct, star) for name, distinct, star, _ in specs
            ]
            for row in group_rows:
                for accumulator, (_, _, star, arg) in zip(accumulators, specs):
                    if star:
                        accumulator.add(None)
                    else:
                        accumulator.add(arg(row, None, ctx))
            aggs = tuple(accumulator.result() for accumulator in accumulators)
            representative = group_rows[0] if group_rows else null_row
            if having is not None and having(representative, aggs, ctx) is not True:
                continue
            out_rows.append(project(representative, aggs, ctx))
            ctx_rows.append(representative)
            ctx_aggs.append(aggs)
        return names, out_rows, ctx_rows, ctx_aggs

    def _sorted(self, names, out_rows, ctx_rows, ctx_aggs, ctx):
        resolved: list[tuple] = []
        for kind, payload, descending in self._order_spec:
            if kind == "byname":
                target, fallback = payload
                match = None
                for index, name in enumerate(names):
                    if name.lower() == target:
                        match = index
                        break
                if match is not None:
                    resolved.append(("output", match, descending))
                else:
                    resolved.append(("expr", fallback, descending))
            else:
                resolved.append((kind, payload, descending))

        decorated = []
        for index, row in enumerate(out_rows):
            values = []
            for kind, payload, _ in resolved:
                if kind == "ordinal":
                    if not 1 <= payload <= len(row):
                        raise BindError(
                            f"ORDER BY position {payload} is out of range"
                        )
                    value = row[payload - 1]
                elif kind == "output":
                    value = row[payload]
                else:
                    value = payload(
                        ctx_rows[index],
                        ctx_aggs[index] if ctx_aggs is not None else None,
                        ctx,
                    )
                values.append(value)
            decorated.append((tuple(values), row))
        return order_rows(decorated, [descending for _, _, descending in resolved])
