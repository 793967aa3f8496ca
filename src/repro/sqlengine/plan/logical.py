"""Logical plan nodes and AST lowering.

A logical plan is a small operator tree over base-table scans:

    Limit(Sort(Distinct(Project|Aggregate(<join tree>))))

where the join tree is built from ``Scan`` / ``IndexLookup`` leaves
combined by ``CrossJoin`` / ``HashJoin`` with ``Filter`` nodes holding
conjunct lists.  Lowering is deliberately narrow: anything the compiled
operators cannot reproduce *exactly* (set operations, views, derived
tables, explicit JOIN syntax, subqueries) raises
:class:`PlanUnsupported` and the caller keeps the tree-walker.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Any, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import UniqueKey
from repro.sqlengine.expressions import ColumnBinding, collect_aggregates
from repro.sqlengine.types import TypeFamily


class PlanUnsupported(Exception):
    """Statement shape the planner does not handle; use the walker."""


# -- node types --------------------------------------------------------------


@dataclass(eq=False)
class Scan:
    """One base-table scan."""

    table: str          # name as written in the statement
    label: str          # binding name (alias or table name)
    width: int          # column count at plan time
    offset: int = 0     # column offset in the combined FROM row


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
class HashJoin:
    """Equi-join: build a hash table on the right, probe with the left."""

    left: Any
    right: Any
    left_key: ast.ColumnRef
    right_key: ast.ColumnRef
    key_kind: str  # common declared comparison kind of both sides


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
    """A lowered SELECT plus the bookkeeping rewrites need."""

    statement: ast.SelectStatement
    core: ast.SelectCore
    root: Any
    scans: list[Scan]
    #: Combined FROM-row bindings, concatenated in scan order.
    bindings: list[ColumnBinding]
    #: Declared comparison kind per combined column ('n'/'s'/'d'/'b'),
    #: or None when unknown (lenient lowering of a missing table).
    kinds: list[Optional[str]]
    #: Uniqueness constraints per scan position (``Catalog.unique_sets``).
    unique_sets: list[list[UniqueKey]] = field(default_factory=list)
    #: Comparison kind of each bound parameter's value (see
    #: :func:`kind_of_class`): the plan is valid only for parameters of
    #: these kinds, and the engine caches one plan per kind tuple.
    #: ``None`` when no values are bound (EXPLAIN), where each ``?``
    #: takes the kind of the operand it is compared with.
    param_kinds: Optional[tuple[Optional[str], ...]] = ()
    applied_rules: list[str] = field(default_factory=list)
    #: True when a scan's table was missing from the catalog (lenient
    #: mode, for EXPLAIN only — such plans are not compilable).
    incomplete: bool = False


# -- kind classification -----------------------------------------------------

_FAMILY_KINDS = {
    TypeFamily.INTEGER: "n",
    TypeFamily.DECIMAL: "n",
    TypeFamily.FLOAT: "n",
    TypeFamily.CHARACTER: "s",
    TypeFamily.DATE: "d",
    TypeFamily.TIMESTAMP: "d",
    TypeFamily.BOOLEAN: "b",
}


def kind_of_type(sql_type) -> Optional[str]:
    """Comparison kind (:func:`repro.sqlengine.values._comparable` tag)
    of values stored in a column of the given declared type."""
    return _FAMILY_KINDS.get(sql_type.family)


def kind_of_class(cls: type) -> Optional[str]:
    """Comparison kind of every value of Python class ``cls``; SQL NULL
    (``NoneType``) is reported as ``"null"`` (comparisons with it never
    raise), and a class outside the SQL value domain as ``None``."""
    if cls is type(None):
        return "null"
    if issubclass(cls, bool):
        return "b"
    if issubclass(cls, (int, float, Decimal)):
        return "n"
    if issubclass(cls, str):
        return "s"
    if issubclass(cls, datetime.date):
        return "d"
    return None


def kinds_compatible(left: Optional[str], right: Optional[str]) -> bool:
    """True when comparing values of these kinds can never raise.

    Same-kind comparisons are total; ``{'n', 'b'}`` reconciles
    numerically without parsing.  Everything else (number/string,
    date/string...) can raise :class:`TypeMismatch` depending on the
    values, so rewrites must not change how often it is evaluated.
    """
    if left == "null" or right == "null":
        return True
    if left is None or right is None:
        return False
    if left == right:
        return True
    return {left, right} == {"n", "b"}


# -- lowering ----------------------------------------------------------------


def _reject_subqueries(expr: ast.Expression) -> None:
    for node in ast.walk_expressions(expr):
        if isinstance(node, (ast.ExistsPredicate, ast.ScalarSubquery)):
            raise PlanUnsupported("subquery expression")
        if isinstance(node, ast.InPredicate) and node.subquery is not None:
            raise PlanUnsupported("IN subquery")


def _core_expressions(core: ast.SelectCore, stmt: ast.SelectStatement):
    for item in core.items:
        if not isinstance(item.expression, ast.Star):
            yield item.expression
    if core.where is not None:
        yield core.where
    for expr in core.group_by:
        yield expr
    if core.having is not None:
        yield core.having
    for order in stmt.order_by:
        yield order.expression


def lower_select(
    stmt: ast.SelectStatement,
    catalog,
    param_kinds: Optional[tuple] = (),
    *,
    lenient: bool = False,
) -> LogicalPlan:
    """Lower a SELECT statement into a :class:`LogicalPlan` for
    parameters of ``param_kinds`` (see :attr:`LogicalPlan.param_kinds`).

    ``lenient`` keeps lowering alive when a referenced table is missing
    from the catalog (EXPLAIN against an empty schema); the resulting
    plan is marked ``incomplete`` and cannot be compiled.
    """
    if not isinstance(stmt.body, ast.SelectCore):
        raise PlanUnsupported("set operation")
    core = stmt.body

    for expr in _core_expressions(core, stmt):
        _reject_subqueries(expr)

    scans: list[Scan] = []
    bindings: list[ColumnBinding] = []
    kinds: list[Optional[str]] = []
    unique_sets: list[list[UniqueKey]] = []
    incomplete = False

    for item in core.from_items:
        if not isinstance(item, ast.TableRef):
            raise PlanUnsupported(f"FROM item {type(item).__name__}")
        if catalog is not None and catalog.has_table(item.name):
            schema = catalog.table(item.name)
            label = item.binding_name
            scan = Scan(
                table=item.name,
                label=label,
                width=len(schema.columns),
                offset=len(bindings),
            )
            for column in schema.columns:
                bindings.append(ColumnBinding(label, column.name))
                kinds.append(kind_of_type(column.sql_type))
            unique_sets.append(catalog.unique_sets(schema))
        elif catalog is not None and catalog.has_view(item.name):
            raise PlanUnsupported(f"view {item.name!r}")
        elif lenient:
            scan = Scan(item.name, item.binding_name, width=0, offset=len(bindings))
            unique_sets.append([])
            incomplete = True
        else:
            raise PlanUnsupported(f"unknown relation {item.name!r}")
        scans.append(scan)

    root: Any
    if not scans:
        root = DualScan()
    else:
        root = scans[0]
        for scan in scans[1:]:
            root = CrossJoin(root, scan)
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
    if stmt.order_by:
        root = Sort(stmt.order_by, root)
    if stmt.limit is not None:
        root = Limit(stmt.limit, root)

    return LogicalPlan(
        statement=stmt,
        core=core,
        root=root,
        scans=scans,
        bindings=bindings,
        kinds=kinds,
        unique_sets=unique_sets,
        param_kinds=param_kinds,
        incomplete=incomplete,
    )
