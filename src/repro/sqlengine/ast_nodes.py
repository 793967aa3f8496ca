"""Abstract syntax tree node definitions.

Dataclasses only — no behaviour beyond trivial helpers.  The parser
builds these; the binder/planner consumes them; the dialect feature
extractor walks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expression:
    """Marker base class for expression nodes."""

    def children(self) -> Sequence["Expression"]:
        """Child expressions, for generic tree walks."""
        return ()


@dataclass
class Literal(Expression):
    value: Any  # None, bool, int, Decimal, float, or str


@dataclass
class ColumnRef(Expression):
    name: str
    table: Optional[str] = None  # qualifier, if written as t.col
    #: Case-folded (name, qualifier) — the resolution-map key.  Derived
    #: once here so per-row lookups skip the str.lower() calls.
    key: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.key = (self.name.lower(), self.table.lower() if self.table else None)

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class Star(Expression):
    """``*`` or ``t.*`` in a select list or COUNT(*)."""

    table: Optional[str] = None


@dataclass
class Parameter(Expression):
    """A ``?`` placeholder, bound to a value at execute time.

    ``index`` is the zero-based ordinal of the placeholder in statement
    text order; prepared statements bind positionally.
    """

    index: int


@dataclass
class BinaryOp(Expression):
    op: str  # '+', '-', '*', '/', '=', '<>', '<', '<=', '>', '>=', 'AND', 'OR', '||'
    left: Expression
    right: Expression

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)


@dataclass
class UnaryOp(Expression):
    op: str  # 'NOT', '-', '+'
    operand: Expression

    def children(self) -> Sequence[Expression]:
        return (self.operand,)


@dataclass
class FunctionCall(Expression):
    name: str  # uppercased
    args: list[Expression]
    distinct: bool = False  # COUNT(DISTINCT x)
    star: bool = False      # COUNT(*)

    def children(self) -> Sequence[Expression]:
        return tuple(self.args)


@dataclass
class CastExpr(Expression):
    operand: Expression
    type_name: str
    type_args: tuple[Optional[int], Optional[int]] = (None, None)

    def children(self) -> Sequence[Expression]:
        return (self.operand,)


@dataclass
class CaseExpr(Expression):
    operand: Optional[Expression]  # CASE x WHEN ... vs searched CASE
    branches: list[tuple[Expression, Expression]]
    else_result: Optional[Expression]

    def children(self) -> Sequence[Expression]:
        kids: list[Expression] = []
        if self.operand is not None:
            kids.append(self.operand)
        for when, then in self.branches:
            kids.extend((when, then))
        if self.else_result is not None:
            kids.append(self.else_result)
        return tuple(kids)


@dataclass
class IsNullPredicate(Expression):
    operand: Expression
    negated: bool = False

    def children(self) -> Sequence[Expression]:
        return (self.operand,)


@dataclass
class BetweenPredicate(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> Sequence[Expression]:
        return (self.operand, self.low, self.high)


@dataclass
class LikePredicate(Expression):
    operand: Expression
    pattern: Expression
    escape: Optional[Expression] = None
    negated: bool = False

    def children(self) -> Sequence[Expression]:
        kids = [self.operand, self.pattern]
        if self.escape is not None:
            kids.append(self.escape)
        return tuple(kids)


@dataclass
class InPredicate(Expression):
    operand: Expression
    values: Optional[list[Expression]] = None      # IN (expr, ...)
    subquery: Optional["SelectStatement"] = None   # IN (SELECT ...)
    negated: bool = False

    def children(self) -> Sequence[Expression]:
        kids = [self.operand]
        if self.values:
            kids.extend(self.values)
        return tuple(kids)


@dataclass
class ExistsPredicate(Expression):
    subquery: "SelectStatement"
    negated: bool = False


@dataclass
class ScalarSubquery(Expression):
    subquery: "SelectStatement"


# --------------------------------------------------------------------------
# Table expressions
# --------------------------------------------------------------------------


@dataclass
class TableRef:
    """A named table or view in FROM, with optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass
class SubqueryRef:
    """A derived table: ``(SELECT ...) alias``."""

    subquery: "SelectStatement"
    alias: str

    @property
    def binding_name(self) -> str:
        return self.alias


@dataclass
class Join:
    """A join between two table expressions."""

    kind: str  # 'INNER', 'LEFT', 'RIGHT', 'FULL', 'CROSS'
    left: "FromItem"
    right: "FromItem"
    condition: Optional[Expression] = None

    @property
    def binding_name(self) -> str:  # pragma: no cover - joins are anonymous
        return ""


FromItem = Union[TableRef, SubqueryRef, Join]


# --------------------------------------------------------------------------
# SELECT
# --------------------------------------------------------------------------


@dataclass
class SelectItem:
    expression: Expression
    alias: Optional[str] = None


@dataclass
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass
class SelectCore:
    """One SELECT block (no set operators)."""

    items: list[SelectItem]
    from_items: list[FromItem] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: list[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    distinct: bool = False


@dataclass
class SetOperation:
    """UNION / UNION ALL / INTERSECT / EXCEPT between two select bodies."""

    op: str  # 'UNION', 'INTERSECT', 'EXCEPT'
    all: bool
    left: Union["SetOperation", SelectCore]
    right: Union["SetOperation", SelectCore]


@dataclass
class SelectStatement:
    """A full query: body plus optional ORDER BY / LIMIT."""

    body: Union[SelectCore, SetOperation]
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None

    def cores(self) -> list[SelectCore]:
        """All SelectCore blocks in the body, left to right."""
        result: list[SelectCore] = []

        def walk(node: Union[SelectCore, SetOperation]) -> None:
            if isinstance(node, SelectCore):
                result.append(node)
            else:
                walk(node.left)
                walk(node.right)

        walk(self.body)
        return result


# --------------------------------------------------------------------------
# DDL
# --------------------------------------------------------------------------


@dataclass
class ColumnSpec:
    name: str
    type_name: str
    type_args: tuple[Optional[int], Optional[int]] = (None, None)
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    default: Optional[Expression] = None
    check: Optional[Expression] = None
    references: Optional[tuple[str, Optional[str]]] = None  # (table, column)


@dataclass
class TableConstraint:
    kind: str  # 'PRIMARY KEY', 'UNIQUE', 'CHECK', 'FOREIGN KEY'
    columns: list[str] = field(default_factory=list)
    check: Optional[Expression] = None
    references: Optional[tuple[str, list[str]]] = None
    name: Optional[str] = None


@dataclass
class CreateTable:
    name: str
    columns: list[ColumnSpec]
    constraints: list[TableConstraint] = field(default_factory=list)


@dataclass
class CreateView:
    name: str
    query: SelectStatement
    column_names: Optional[list[str]] = None


@dataclass
class CreateIndex:
    name: str
    table: str
    columns: list[str]
    unique: bool = False
    clustered: bool = False


@dataclass
class DropTable:
    name: str


@dataclass
class DropView:
    name: str


@dataclass
class DropIndex:
    name: str


@dataclass
class AlterTableAddColumn:
    table: str
    column: ColumnSpec


# --------------------------------------------------------------------------
# DML
# --------------------------------------------------------------------------


@dataclass
class Insert:
    table: str
    columns: Optional[list[str]]
    rows: Optional[list[list[Expression]]] = None  # VALUES rows
    query: Optional[SelectStatement] = None        # INSERT ... SELECT


@dataclass
class Update:
    table: str
    assignments: list[tuple[str, Expression]]
    where: Optional[Expression] = None


@dataclass
class Delete:
    table: str
    where: Optional[Expression] = None


# --------------------------------------------------------------------------
# Transaction control
# --------------------------------------------------------------------------


@dataclass
class BeginTransaction:
    pass


@dataclass
class Commit:
    pass


@dataclass
class Rollback:
    savepoint: Optional[str] = None


@dataclass
class Savepoint:
    name: str


Statement = Union[
    SelectStatement,
    CreateTable,
    CreateView,
    CreateIndex,
    DropTable,
    DropView,
    DropIndex,
    AlterTableAddColumn,
    Insert,
    Update,
    Delete,
    BeginTransaction,
    Commit,
    Rollback,
    Savepoint,
]


def walk_expressions(root: Expression):
    """Depth-first iterator over an expression tree (including subquery
    boundaries are *not* crossed — subqueries are separate statements)."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())
