"""Physical plan compilation: logical operators to batch closures.

``compile_select`` turns a SELECT into a :class:`PhysicalSelect` whose
``execute(ctx)`` produces a :class:`QueryResult` by running compiled
closures over row batches.  Every query block is a plan of its own,
compiled by one :class:`QueryCompiler` per nesting level: the operands
of a set operation, each view and derived table (run again on every
read), and each subquery an expression holds (run each time the
expression is evaluated).

A plan is compiled for one tuple of parameter kinds and one choice of
rewrite rules, so everything its shape depends on is decided before it
runs.  It reads the catalog only while it compiles and the rows of
``ctx.engine`` only while it runs, so one plan serves every engine whose
catalog has the content it was compiled against.  What only the data can tell is handled in place: a unique-key
probe that cannot use its index (poisoned, stored key kinds that
differ, a probe value that will not hash) returns the whole heap, and
the filter above it re-applies every conjunct; a hash join whose keys
will not hash evaluates the equality row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from operator import itemgetter
from typing import Any, Callable, Optional

from repro.errors import BindError, CatalogError, TypeMismatch
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.expressions import _AMBIGUOUS, collect_aggregates
from repro.sqlengine.functions import Accumulator
from repro.sqlengine.plan.compiler import (
    CMP_OPERATORS,
    Closure,
    Scope,
    _raiser,
    compile_expression,
)
from repro.sqlengine.plan.logical import (
    MAX_SUBQUERY_DEPTH,
    Aggregate,
    CrossJoin,
    Derived,
    Distinct,
    DualScan,
    Filter,
    HashJoin,
    IndexLookup,
    Join,
    Limit,
    LogicalPlan,
    Scan,
    SetOp,
    Sort,
    lower_select,
)
from repro.sqlengine.plan.rewrites import apply_rewrites
from repro.sqlengine.values import distinct_key, row_key, sql_compare

Source = Callable[[Any], list]
Selector = Callable[[list, Any], list]


@dataclass
class QueryResult:
    """Final output of a SELECT: plain column names plus rows."""

    columns: list[str]
    rows: list[tuple]


def _sort_key(value: Any) -> tuple:
    # The rank keeps NULL from ever being compared with a value.
    return (1,) if value is None else (0, distinct_key(value))


_NUMERIC = {int, Decimal}


def _column_keys(values: list) -> list:
    """Sort keys for one ORDER BY item's values, chosen once for the
    column: the raw values when every one is exactly ``int`` or
    ``Decimal`` (they compare exactly across the two), the stripped
    strings when every one is exactly ``str`` (PAD SPACE), else
    ``_sort_key`` per value.  Floats stay wrapped, because
    ``distinct_key`` compares them as ``Decimal(str(f))`` (so ``0.1``
    ties ``Decimal('0.1')``); so do NULLs, booleans, dates and mixes."""
    kinds = set(map(type, values))
    if kinds <= _NUMERIC:
        return values
    if kinds == {str}:
        return [value.rstrip() for value in values]
    return list(map(_sort_key, values))


def order_rows(keys: list[list], rows: list[tuple], directions: list[bool]) -> list[tuple]:
    """``rows`` sorted by their ORDER BY values — ``keys[i][j]`` is item
    ``i``'s value for row ``j`` — with ``directions[i]`` true for DESC.
    NULLs sort last ascending and first descending; ties keep input
    order.  One stable sort per item, the least significant first
    (``reverse=`` keeps ties in order), so no key is wrapped to invert
    its comparisons."""
    order = list(range(len(rows)))
    for values, descending in zip(reversed(keys), reversed(directions)):
        order.sort(key=_column_keys(values).__getitem__, reverse=descending)
    return [rows[index] for index in order]


def _distinct_rows(rows: list[tuple]) -> list[tuple]:
    seen: set = set()
    result: list[tuple] = []
    for row in rows:
        key = row_key(row)
        if key not in seen:
            seen.add(key)
            result.append(row)
    return result


def _collect_core_aggregates(block) -> list[ast.FunctionCall]:
    """The aggregate calls of a select list and HAVING (``block`` is an
    :class:`Aggregate` node, holding them after constant folding)."""
    nodes: list[ast.FunctionCall] = []
    for item in block.items:
        if not isinstance(item.expression, ast.Star):
            nodes.extend(collect_aggregates(item.expression))
    if block.having is not None:
        nodes.extend(collect_aggregates(block.having))
    return nodes


def _join_key(value: Any, expected: str):
    """Hash key for a join/index probe: ``distinct_key`` with booleans
    bridged onto the numeric kind (matching ``sql_compare``'s
    bool/number reconciliation).  Returns None when the value's kind is
    not ``expected`` — hashing it would diverge from ``sql_compare``."""
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
                return []  # `col = NULL` is never TRUE: no row qualifies
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


class _TooDeep:
    """The plan of a block nested deeper than ``MAX_SUBQUERY_DEPTH``."""

    def execute(self, ctx) -> QueryResult:
        raise BindError("subquery nesting too deep")


class QueryCompiler:
    """What every block at one nesting level compiles against: the
    catalog, the parameter kinds, whether the rewrite rules apply, and
    the ``depth`` its blocks run at (1 for a SELECT of its own, 0 for
    the expressions of DML, CHECK and DEFAULT, whose subqueries run
    at 1)."""

    def __init__(self, catalog, param_kinds: Optional[tuple], rewrite: bool, depth: int) -> None:
        self.catalog = catalog
        self.param_kinds = param_kinds
        self.rewrite = rewrite
        self.depth = depth

    def nested(self) -> "QueryCompiler":
        return QueryCompiler(self.catalog, self.param_kinds, self.rewrite, self.depth + 1)

    def query(self, stmt: ast.SelectStatement, outer: Optional[Scope]) -> Any:
        """The plan of ``stmt`` at this level, whose column references
        fall back to ``outer``."""
        if self.depth > MAX_SUBQUERY_DEPTH:
            return _TooDeep()
        plan = lower_select(stmt, self.catalog, self.param_kinds, self.depth)
        if self.rewrite:
            apply_rewrites(plan)
        return PhysicalSelect(plan, self, outer)

    def subquery(self, stmt: ast.SelectStatement, outer: Optional[Scope]) -> Any:
        """The plan of a subquery evaluated in ``outer``, one level down."""
        return self.nested().query(stmt, outer)


def compile_select(
    stmt: ast.SelectStatement, catalog, param_kinds: tuple = (), rewrite: bool = True
) -> "PhysicalSelect":
    """Lower, rewrite (unless ``rewrite`` is false) and compile a SELECT
    against ``catalog`` for parameters of ``param_kinds``."""
    return QueryCompiler(catalog, param_kinds, rewrite, 1).query(stmt, None)


def compile_row_expression(expr: ast.Expression, catalog, bindings=None) -> Closure:
    """A closure for an expression the engine evaluates outside any
    statement plan: a CHECK over a table row (``bindings``), or a
    DEFAULT where no row is available (``bindings`` None)."""
    queries = QueryCompiler(catalog, (), True, 0)
    if bindings is None:
        return compile_expression(expr, Scope((), no_row=True, queries=queries))
    return compile_expression(expr, Scope(bindings, queries=queries))


class PhysicalSelect:
    """A compiled SELECT plan for one catalog's content.

    It reads rows from ``ctx.engine`` at run time, so it runs on any
    engine whose catalog has the content it was compiled against; the
    engine's plan cache keys it by that content.
    """

    def __init__(self, plan: LogicalPlan, compiler: QueryCompiler, outer: Optional[Scope] = None) -> None:
        self.plan = plan
        self._compiler = compiler
        self._outer = outer

        root = plan.root
        self._limit = None
        if isinstance(root, Limit):
            self._limit = root.count
            root = root.child
        sort_items = None
        if isinstance(root, Sort):
            sort_items = root.order_by
            root = root.child
        self._name_parts = plan.names
        self._distinct = False

        if isinstance(root, SetOp):
            self._setop = self._compile_setop(root)
            self._order_spec = (
                self._compile_order(sort_items, None) if sort_items else None
            )
            return
        self._setop = None
        if isinstance(root, Distinct):
            self._distinct = True
            root = root.child

        bindings = plan.bindings
        self._width = len(bindings)
        row_scope = self._scope()

        if isinstance(root, Aggregate):
            self._grouped = True
            agg_nodes = _collect_core_aggregates(root)
            slots = {id(node): position for position, node in enumerate(agg_nodes)}
            out_scope = self._scope(agg_slots=slots)
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

        self._project, self._columns = self._compile_projection(
            root.items, bindings, out_scope
        )
        self._order_spec = (
            self._compile_order(sort_items, out_scope) if sort_items else None
        )
        self._source = self._compile_source(root.child)
        plan.compiled()

    def _scope(self, **options) -> Scope:
        """A scope over the block's combined FROM row."""
        return Scope(
            self.plan.bindings,
            outer=self._outer,
            queries=self._compiler,
            resolution=self.plan.resolution(),
            **options,
        )

    # -- compilation ---------------------------------------------------------

    @staticmethod
    def _agg_arg(node: ast.FunctionCall, row_scope: Scope):
        """Per-row accumulator feed for one aggregate call: None for
        ``COUNT(*)``, an arg closure, or a raising marker for wrong
        arity (raised per accumulated row)."""
        if node.star:
            return None
        if len(node.args) != 1:
            name = node.name

            def bad_arity(row: Any, aggs: Any, ctx: Any) -> Any:
                raise TypeMismatch(f"aggregate {name} takes exactly one argument")

            return bad_arity
        return compile_expression(node.args[0], row_scope)

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

    def _compile_order(self, order_by, scope: Optional[Scope]):
        """ORDER BY recipe.  Unqualified column names resolve against
        the *output* names first, which can vary per execution
        (flag-dependent aggregate names), so name resolution happens at
        execute time against the computed name list.  A set operation
        (``scope`` None) orders by position or output name only."""
        spec: list[tuple] = []
        for item in order_by:
            expr = item.expression
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                spec.append(("ordinal", expr.value, item.descending))
                continue
            if scope is None:
                key = _raiser(
                    lambda: BindError(
                        "ORDER BY expression must name an output column of a set operation"
                    )
                )
            else:
                key = compile_expression(expr, scope)
            if isinstance(expr, ast.ColumnRef) and expr.table is None:
                spec.append(("byname", (expr.name.lower(), key), item.descending))
            else:
                spec.append(("expr", key, item.descending))
        return spec

    def _compile_setop(self, node: SetOp) -> Callable[[Any], QueryResult]:
        left = PhysicalSelect(node.left, self._compiler, self._outer)
        right = PhysicalSelect(node.right, self._compiler, self._outer)
        op, keep_all = node.op, node.all

        def setop(ctx: Any) -> QueryResult:
            left_result = left.execute(ctx)
            right_result = right.execute(ctx)
            if len(left_result.columns) != len(right_result.columns):
                raise TypeMismatch(
                    f"{op} operands have different column counts "
                    f"({len(left_result.columns)} vs {len(right_result.columns)})"
                )
            if op == "UNION":
                rows = left_result.rows + right_result.rows
                if not keep_all:
                    rows = _distinct_rows(rows)
            else:
                right_keys = {row_key(row) for row in right_result.rows}
                keep = op == "INTERSECT"
                rows = _distinct_rows(
                    [row for row in left_result.rows if (row_key(row) in right_keys) == keep]
                )
            return QueryResult(left_result.columns, rows)

        return setop

    # -- source tree ---------------------------------------------------------

    def _compile_source(self, node: Any) -> Source:
        if isinstance(node, DualScan):
            return lambda ctx: [()]
        if isinstance(node, Scan):
            table = node.table
            if not self._compiler.catalog.has_table(table):
                return lambda ctx: _raise(CatalogError(f"relation {table!r} does not exist"))
            return lambda ctx: ctx.engine.storage.get(table).rows()
        if isinstance(node, Derived):
            return self._compile_derived(node)
        if isinstance(node, IndexLookup):
            return self._compile_lookup(node)
        if isinstance(node, Filter):
            child = self._compile_source(node.child)
            shift = _subtree_shift(node.child)
            select = compile_filter(node.conjuncts, self._scope(shift=shift), node.pushed)
            if not node.pushed or shift:
                return lambda ctx: select(child(ctx), ctx)

            def pushed(ctx: Any) -> list:
                rows = select(child(ctx), ctx)
                if rows and ctx.flag("plan_filter_truncates"):
                    # Injected planner fault (dual-plan oracle target):
                    # the pushed filter over the first FROM leaf drops
                    # the last row it keeps.
                    return rows[:-1]
                return rows

            return pushed
        if isinstance(node, CrossJoin):
            left = self._compile_source(node.left)
            right = self._compile_source(node.right)

            def cross(ctx: Any) -> list:
                left_rows = left(ctx)
                right_rows = right(ctx)
                return [lrow + rrow for lrow in left_rows for rrow in right_rows]

            return cross
        if isinstance(node, HashJoin):
            return self._compile_hash_join(node)
        return self._compile_join(node)

    def _compile_derived(self, node: Derived) -> Source:
        """A view or derived table: its block, run on every read (a view
        noted in ``ctx`` first, and sees no outer row)."""
        view = node.view
        if node.block is None:
            block: Any = _TooDeep()
        else:
            outer = None if view is not None else self._outer
            block = PhysicalSelect(node.block, self._compiler.nested(), outer)
        mismatch = node.mismatch

        def derived(ctx: Any) -> list:
            if view is not None:
                ctx.note_view_use(view)
            rows = block.execute(ctx).rows
            if mismatch:
                raise CatalogError(f"view {view.name!r} column list does not match its query")
            return [list(row) for row in rows]

        return derived

    def _compile_join(self, node: Join) -> Source:
        """An explicit join: both sides built, then a nested loop whose
        ON condition sees only the two sides' columns (and the outer
        query's).  RIGHT runs as a LEFT join of the flipped sides."""
        left = self._compile_source(node.left)
        right = self._compile_source(node.right)
        kind = node.kind
        left_width, right_width = node.left_width, node.right_width
        split = node.offset + left_width
        left_bindings = self.plan.bindings[node.offset : split]
        right_bindings = self.plan.bindings[split : split + right_width]
        if kind == "RIGHT":
            left_bindings, right_bindings = right_bindings, left_bindings
        condition = None
        if node.condition is not None and kind != "CROSS":
            scope = Scope(
                left_bindings + right_bindings, outer=self._outer, queries=self._compiler
            )
            condition = compile_expression(node.condition, scope)

        def loop(outer_rows: list, inner_rows: list, ctx: Any, pad, matched_inner) -> list:
            rows = []
            for outer_row in outer_rows:
                matched = False
                for position, inner_row in enumerate(inner_rows):
                    combined = outer_row + inner_row
                    if condition is None or condition(combined, None, ctx) is True:
                        rows.append(combined)
                        matched = True
                        if matched_inner is not None:
                            matched_inner[position] = True
                if pad is not None and not matched:
                    rows.append(outer_row + pad)
            return rows

        def join(ctx: Any) -> list:
            left_rows = left(ctx)
            right_rows = right(ctx)
            if kind in ("CROSS", "INNER"):
                return loop(left_rows, right_rows, ctx, None, None)
            if kind == "LEFT":
                return loop(left_rows, right_rows, ctx, [None] * right_width, None)
            if kind == "RIGHT":
                flipped = loop(right_rows, left_rows, ctx, [None] * left_width, None)
                return [row[right_width:] + row[:right_width] for row in flipped]
            matched = [False] * len(right_rows)
            rows = loop(left_rows, right_rows, ctx, [None] * right_width, matched)
            pad = [None] * left_width
            rows.extend(pad + row for row, hit in zip(right_rows, matched) if not hit)
            return rows

        return join

    def _compile_lookup(self, node: IndexLookup) -> Source:
        table = node.scan.table
        probe_scope = self._scope()
        probe = compile_unique_probe(
            tuple(node.key_indices),
            tuple(node.key_kinds),
            [compile_expression(expr, probe_scope) for expr in node.key_exprs],
        )
        return lambda ctx: probe(ctx.engine.storage.get(table), ctx)

    def _compile_hash_join(self, node: HashJoin) -> Source:
        left = self._compile_source(node.left)
        right = self._compile_source(node.right)
        scope = self._scope()
        left_index = scope.resolve(node.left_key)
        right_index = scope.resolve(node.right_key) - _subtree_shift(node.right)
        expected = node.key_kind
        numeric = expected == "n"
        # Exact-semantics fallback for rows/batches whose key values the
        # hash cannot represent faithfully: evaluate the original
        # equality predicate over the cross product.
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
                if numeric and type(value) is int:
                    key = ("n", value)  # what _join_key returns, inline
                else:
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
                if numeric and type(value) is int:
                    key = ("n", value)
                else:
                    try:
                        key = _join_key(value, expected)
                    except TypeMismatch:
                        key = None
                if key is None:
                    # Odd probe value: nested-loop this row only, keeping
                    # the equality's per-comparison raise behaviour.
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
        if self._setop is not None:
            result = self._setop(ctx)
            names = result.columns
            out_rows = ctx_rows = result.rows
            ctx_aggs = None
        elif self._grouped:
            names, out_rows, ctx_rows, ctx_aggs = self._run_grouped(self._source(ctx), ctx)
        else:
            rows = self._source(ctx)
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

        # An output column cannot raise, so it is taken whole; ordinals
        # and expressions run row by row, item by item, so the first
        # error is the one the walker raises.
        keys: list[list] = []
        raising = []
        for kind, payload, _ in resolved:
            if kind == "output":
                keys.append(list(map(itemgetter(payload), out_rows)))
            else:
                keys.append([])
                raising.append((kind, payload, keys[-1].append))
        if raising:
            aggs_of = ctx_aggs if ctx_aggs is not None else [None] * len(out_rows)
            for row, ctx_row, aggs in zip(out_rows, ctx_rows, aggs_of):
                for kind, payload, append in raising:
                    if kind == "ordinal":
                        if not 1 <= payload <= len(row):
                            raise BindError(
                                f"ORDER BY position {payload} is out of range"
                            )
                        append(row[payload - 1])
                    else:
                        append(payload(ctx_row, aggs, ctx))
        return order_rows(keys, out_rows, [descending for _, _, descending in resolved])


def _raise(error: Exception) -> Any:
    raise error


def _subtree_shift(node: Any) -> int:
    """Row coordinates of a source subtree: leaf-local below joins
    (shift by the leaf's combined-row offset), combined above."""
    while isinstance(node, Filter):
        node = node.child
    if isinstance(node, (Scan, Derived)):
        return node.offset
    if isinstance(node, IndexLookup):
        return node.scan.offset
    return 0
