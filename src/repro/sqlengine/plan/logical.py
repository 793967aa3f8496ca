"""Logical plan nodes and AST lowering.

A logical plan is one *query block*: a small operator tree

    Limit(Sort(Distinct(Project|Aggregate(<FROM tree>))))

where the FROM tree is built from ``Scan`` / ``IndexLookup`` leaves
over base tables and ``Derived`` leaves (a view or a derived table: a
query block of its own, run again on every read), combined by
``CrossJoin`` (comma FROM items), ``Join`` (explicit ``CROSS`` /
``INNER`` / ``LEFT`` / ``RIGHT`` / ``FULL`` joins) and, after
rewriting, ``HashJoin``, with ``Filter`` nodes holding conjunct lists.
A set operation is a block whose root is a ``SetOp`` over two blocks.
Subqueries in expressions are not lowered here: the expression
compiler compiles each one as a block of its own.

Lowering takes every statement shape.  A relation missing from the
catalog lowers to an empty scan that raises when it is read, and marks
the plan ``incomplete`` for EXPLAIN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Any, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import UniqueKey, ViewDef
from repro.sqlengine.expressions import ColumnBinding, _resolution_map, collect_aggregates
from repro.sqlengine.plan.lattice import kind_of_type

#: Query blocks nested deeper than this (subqueries, views, derived
#: tables) raise ``subquery nesting too deep`` when they are run.
MAX_SUBQUERY_DEPTH = 32


# -- node types --------------------------------------------------------------


@dataclass(eq=False)
class Scan:
    """One base-table scan."""

    table: str          # name as written in the statement
    label: str          # binding name (alias or table name)
    width: int          # column count at plan time
    offset: int = 0     # column offset in the combined FROM row


@dataclass(eq=False)
class Derived:
    """A view or derived table: ``block`` run on every read (None when
    it is nested too deep to run)."""

    label: str
    width: int
    offset: int
    block: Optional["LogicalPlan"]
    view: Optional[ViewDef] = None
    #: The view's column list and its query's columns differ in number.
    mismatch: bool = False


@dataclass(eq=False)
class DualScan:
    """FROM-less SELECT: a single empty row."""


@dataclass(eq=False)
class IndexLookup:
    """Unique-key point lookup replacing a scan + equality filter."""

    scan: Scan
    index_name: str                 # 'PRIMARY KEY', 'UNIQUE', or index name
    key_columns: list[str]          # column names, schema order of the key
    key_indices: list[int]          # column positions within the table
    key_exprs: list[ast.Expression]  # row-independent probe expressions
    key_kinds: list[str]            # declared comparison kind per column


@dataclass(eq=False)
class Filter:
    """Keep rows for which every conjunct evaluates to SQL TRUE."""

    conjuncts: list[ast.Expression]
    child: Any
    pushed: bool = False  # produced by predicate pushdown


@dataclass(eq=False)
class CrossJoin:
    left: Any
    right: Any


@dataclass(eq=False)
class Join:
    """An explicit join: a nested loop over ``left`` and ``right`` rows
    keeping the pairs on which ``condition`` is TRUE, padding with NULLs
    for the outer kinds.  Its rows span ``left_width + right_width``
    columns of the combined FROM row from ``offset``."""

    kind: str  # 'CROSS' | 'INNER' | 'LEFT' | 'RIGHT' | 'FULL'
    left: Any
    right: Any
    condition: Optional[ast.Expression]
    offset: int
    left_width: int
    right_width: int


@dataclass(eq=False)
class HashJoin:
    """Equi-join: build a hash table on the right, probe with the left."""

    left: Any
    right: Any
    left_key: ast.ColumnRef
    right_key: ast.ColumnRef
    key_kind: str  # common declared comparison kind of both sides


@dataclass(eq=False)
class SetOp:
    """``UNION [ALL]`` / ``INTERSECT`` / ``EXCEPT`` of two blocks."""

    op: str
    all: bool
    left: "LogicalPlan"
    right: "LogicalPlan"


@dataclass(eq=False)
class Project:
    items: list[ast.SelectItem]
    child: Any


@dataclass(eq=False)
class Aggregate:
    items: list[ast.SelectItem]
    group_by: list[ast.Expression]
    having: Optional[ast.Expression]
    child: Any


@dataclass(eq=False)
class Distinct:
    child: Any


@dataclass(eq=False)
class Sort:
    order_by: list[ast.OrderItem]
    child: Any


@dataclass(eq=False)
class Limit:
    count: int
    child: Any


@dataclass(eq=False)
class LogicalPlan:
    """A lowered query block plus the bookkeeping rewrites need."""

    root: Any
    #: Comparison kind of each bound parameter's value (see
    #: :func:`.lattice.kind_of_class`): the plan is valid only for
    #: parameters of these kinds, and the engine caches one plan per
    #: kind tuple.
    #: ``None`` when no values are bound (EXPLAIN), where each ``?``
    #: takes the kind of the operand it is compared with.
    param_kinds: Optional[tuple[Optional[str], ...]] = ()
    #: FROM leaves (``Scan`` and ``Derived``), in FROM order.
    scans: list = field(default_factory=list)
    #: Combined FROM-row bindings, concatenated in scan order.
    bindings: list[ColumnBinding] = field(default_factory=list)
    #: Declared comparison kind per combined column ('n'/'s'/'d'/'b'),
    #: or None when unknown (a view's or derived table's column).
    kinds: list[Optional[str]] = field(default_factory=list)
    #: Uniqueness constraints per scan position (``Catalog.unique_sets``).
    unique_sets: list[list[UniqueKey]] = field(default_factory=list)
    #: Output-name recipe (see :func:`name_parts`).
    names: list[tuple[str, str]] = field(default_factory=list)
    applied_rules: list[str] = field(default_factory=list)
    #: True when a relation was missing from the catalog (EXPLAIN says
    #: so; the compiled scan raises when it is read).
    incomplete: bool = False
    _resolution: Optional[dict] = field(default=None, repr=False)

    def resolution(self) -> dict:
        """:func:`_resolution_map` of :attr:`bindings`, built once and
        shared by the block's analyses and scopes while it compiles."""
        if self._resolution is None:
            self._resolution = _resolution_map(self.bindings)
        return self._resolution

    def compiled(self) -> None:
        """Drop the compile-time map: a cached plan keeps its tree for
        EXPLAIN and the lint, not its lookups."""
        self._resolution = None

    def output_names(self) -> list[str]:
        """Column names of the block's result when it runs without
        error and without the ``empty_agg_field_names`` flag."""
        return [payload for kind, payload in self.names if kind != "error"]


# -- lowering ----------------------------------------------------------------


def name_parts(items: list[ast.SelectItem], bindings: list[ColumnBinding]) -> list[tuple]:
    """Output-name recipe of a select list: ``("name", text)``,
    ``("flag", AVG|SUM)`` for an unaliased AVG/SUM, named ``""`` while
    the ``empty_agg_field_names`` flag is set (Interbase 222476), and
    ``("error", message)`` for a qualified ``*`` that matches no table."""
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
                parts.append(("error", f"unknown table {expr.table!r} in select list"))
            continue
        if item.alias:
            parts.append(("name", item.alias))
        elif isinstance(expr, ast.ColumnRef):
            parts.append(("name", expr.name))
        elif isinstance(expr, ast.FunctionCall):
            kind = "flag" if expr.name in ("AVG", "SUM") else "name"
            parts.append((kind, expr.name))
        else:
            parts.append(("name", "EXPR"))
    return parts


def lower_select(
    stmt: ast.SelectStatement,
    catalog,
    param_kinds: Optional[tuple] = (),
    depth: int = 1,
) -> LogicalPlan:
    """Lower a SELECT statement, run at nesting ``depth`` (1 for a
    statement of its own), into a :class:`LogicalPlan` for parameters
    of ``param_kinds`` (see :attr:`LogicalPlan.param_kinds`)."""
    plan = _lower_body(stmt.body, catalog, param_kinds, depth)
    if stmt.order_by:
        plan.root = Sort(stmt.order_by, plan.root)
    if stmt.limit is not None:
        plan.root = Limit(stmt.limit, plan.root)
    return plan


def _lower_body(body, catalog, param_kinds, depth: int) -> LogicalPlan:
    if isinstance(body, ast.SetOperation):
        left = _lower_body(body.left, catalog, param_kinds, depth)
        right = _lower_body(body.right, catalog, param_kinds, depth)
        return LogicalPlan(
            root=SetOp(body.op, body.all, left, right),
            param_kinds=param_kinds,
            names=left.names,
            incomplete=left.incomplete or right.incomplete,
        )
    core = body
    plan = LogicalPlan(root=None, param_kinds=param_kinds)
    trees = [_lower_from_item(item, plan, catalog, depth) for item in core.from_items]
    root: Any = reduce(CrossJoin, trees) if trees else DualScan()
    if core.where is not None:
        root = Filter([core.where], root)

    has_aggregates = any(
        collect_aggregates(item.expression)
        for item in core.items
        if not isinstance(item.expression, ast.Star)
    ) or (core.having is not None and collect_aggregates(core.having))
    if core.group_by or has_aggregates:
        root = Aggregate(core.items, core.group_by, core.having, root)
    else:
        root = Project(core.items, root)
    if core.distinct:
        root = Distinct(root)
    plan.root = root
    plan.names = name_parts(core.items, plan.bindings)
    return plan


def _lower_from_item(item: ast.FromItem, plan: LogicalPlan, catalog, depth: int) -> Any:
    """Lower one FROM item, appending its leaves to ``plan``."""
    offset = len(plan.bindings)
    if isinstance(item, ast.Join):
        left = _lower_from_item(item.left, plan, catalog, depth)
        middle = len(plan.bindings)
        right = _lower_from_item(item.right, plan, catalog, depth)
        return Join(
            item.kind, left, right, item.condition,
            offset, middle - offset, len(plan.bindings) - middle,
        )
    kinds: list[Optional[str]] = []
    unique: list[UniqueKey] = []
    leaf: Any
    if isinstance(item, ast.SubqueryRef):
        block = _lower_nested(item.subquery, catalog, plan, depth)
        names = block.output_names() if block is not None else []
        leaf = Derived(item.alias, len(names), offset, block)
    elif catalog is not None and catalog.has_table(item.name):
        schema = catalog.table(item.name)
        names = [column.name for column in schema.columns]
        kinds = [kind_of_type(column.sql_type) for column in schema.columns]
        unique = catalog.unique_sets(schema)
        leaf = Scan(item.name, item.binding_name, len(names), offset)
    elif catalog is not None and catalog.has_view(item.name):
        view = catalog.view(item.name)
        block = _lower_nested(view.query, catalog, plan, depth)
        query_names = block.output_names() if block is not None else []
        names = view.column_names or query_names
        leaf = Derived(
            item.binding_name, len(names), offset, block, view,
            mismatch=len(names) != len(query_names),
        )
    else:
        names = []
        leaf = Scan(item.name, item.binding_name, 0, offset)
        plan.incomplete = True
    label = item.binding_name
    plan.scans.append(leaf)
    plan.bindings.extend(ColumnBinding(label, name) for name in names)
    plan.kinds.extend(kinds or [None] * len(names))
    plan.unique_sets.append(unique)
    return leaf


def _lower_nested(
    stmt: ast.SelectStatement, catalog, plan: LogicalPlan, depth: int
) -> Optional[LogicalPlan]:
    """A view's or derived table's block, or None when it is nested too
    deep to run."""
    if depth + 1 > MAX_SUBQUERY_DEPTH:
        return None
    block = lower_select(stmt, catalog, plan.param_kinds, depth + 1)
    plan.incomplete = plan.incomplete or block.incomplete
    return block


def blocks(plan: LogicalPlan):
    """Every select-list block of ``plan``: itself, or the operands of
    its set operation, then the blocks of the views and derived tables
    each reads."""
    node = plan.root
    while isinstance(node, (Limit, Sort)):
        node = node.child
    if isinstance(node, SetOp):
        yield from blocks(node.left)
        yield from blocks(node.right)
        return
    yield plan
    for leaf in plan.scans:
        if isinstance(leaf, Derived) and leaf.block is not None:
            yield from blocks(leaf.block)
