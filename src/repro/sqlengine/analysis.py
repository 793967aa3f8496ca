"""Statement trait extraction.

One tree walk produces the set of *feature tags* a statement uses.
Three consumers share it:

* the dialect gate (:mod:`repro.dialects`) — a server rejects a statement
  whose tags include a feature its dialect lacks;
* the dialect translator — tags tell it which rewrites to attempt;
* fault triggers (:mod:`repro.faults`) — a fault fires when the
  statement's tags match its trigger pattern.

Tag vocabulary (stable, part of the public API):

``stmt.<kind>``            statement kind (select/insert/create_table/...)
``join.<kind>``            inner/left/right/full/cross joins
``set.<op>``               union/intersect/except (+ ``set.union_all``)
``subquery.<where>``       in/exists/scalar/derived
``clause.<name>``          distinct/group_by/having/order_by/limit/case/cast/
                           like/between/default/check/primary_key/unique/
                           parameter (a ``?`` placeholder)
``fn.<NAME>``              scalar function calls
``agg.<NAME>``             aggregate calls
``op.<name>``              modulo (%), concat (||)
``type.<NAME>``            declared type spellings
``index.clustered`` etc.   index modifiers
``view.union`` / ``view.distinct``  CREATE VIEW body properties
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.functions import AGGREGATE_NAMES


@dataclass
class StatementTraits:
    """Feature tags plus referenced relation names for one statement."""

    kind: str
    tags: set[str] = field(default_factory=set)
    relations: set[str] = field(default_factory=set)

    def has_any(self, *tags: str) -> bool:
        return any(tag in self.tags for tag in tags)

    def literal(self) -> "StatementTraits":
        """These traits as the statement would have them with a literal
        in place of each ``?`` placeholder: without ``clause.parameter``
        (no other tag depends on what a value is spelled as)."""
        return StatementTraits(self.kind, self.tags - {"clause.parameter"}, self.relations)


def extract_traits(stmt: ast.Statement) -> StatementTraits:
    """Extract the trait set of one parsed statement."""
    kind = statement_kind(stmt)
    traits = StatementTraits(kind=kind, tags={f"stmt.{kind}"})
    _walk_statement(stmt, traits, top_level=True)
    return traits


def statement_kind(stmt: ast.Statement) -> str:
    """The canonical kind string for a statement node (public: the
    static analyzer keys verdict dispatch on it)."""
    mapping = {
        ast.SelectStatement: "select",
        ast.CreateTable: "create_table",
        ast.CreateView: "create_view",
        ast.CreateIndex: "create_index",
        ast.DropTable: "drop_table",
        ast.DropView: "drop_view",
        ast.DropIndex: "drop_index",
        ast.AlterTableAddColumn: "alter_table",
        ast.Insert: "insert",
        ast.Update: "update",
        ast.Delete: "delete",
        ast.BeginTransaction: "begin",
        ast.Commit: "commit",
        ast.Rollback: "rollback",
        ast.Savepoint: "savepoint",
    }
    return mapping[type(stmt)]


#: Backwards-compatible alias (pre-analysis-package name).
_statement_kind = statement_kind


def _walk_statement(stmt: ast.Statement, traits: StatementTraits, top_level: bool = False) -> None:
    if isinstance(stmt, ast.SelectStatement):
        _walk_select(stmt, traits, in_subquery=not top_level)
    elif isinstance(stmt, ast.CreateTable):
        for column in stmt.columns:
            traits.tags.add(f"type.{column.type_name}")
            if column.default is not None:
                traits.tags.add("clause.default")
                _walk_expression(column.default, traits)
            if column.check is not None:
                traits.tags.add("clause.check")
                _walk_expression(column.check, traits)
            if column.primary_key:
                traits.tags.add("clause.primary_key")
            if column.unique:
                traits.tags.add("clause.unique")
            if column.references:
                traits.tags.add("clause.references")
        for constraint in stmt.constraints:
            tag = constraint.kind.lower().replace(" ", "_")
            traits.tags.add(f"clause.{tag}")
            if constraint.check is not None:
                traits.tags.add("clause.check")
                _walk_expression(constraint.check, traits)
        traits.relations.add(stmt.name.lower())
    elif isinstance(stmt, ast.CreateView):
        traits.relations.add(stmt.name.lower())
        inner = StatementTraits(kind="select")
        _walk_select(stmt.query, inner, in_subquery=False)
        traits.tags |= inner.tags
        traits.relations |= inner.relations
        if inner.has_any("set.union", "set.union_all"):
            traits.tags.add("view.union")
        if "clause.distinct" in inner.tags:
            traits.tags.add("view.distinct")
    elif isinstance(stmt, ast.CreateIndex):
        traits.relations.add(stmt.table.lower())
        if stmt.unique:
            traits.tags.add("index.unique")
        if stmt.clustered:
            traits.tags.add("index.clustered")
    elif isinstance(stmt, (ast.DropTable, ast.DropView, ast.DropIndex)):
        traits.relations.add(stmt.name.lower())
    elif isinstance(stmt, ast.AlterTableAddColumn):
        traits.relations.add(stmt.table.lower())
        traits.tags.add(f"type.{stmt.column.type_name}")
        if stmt.column.default is not None:
            traits.tags.add("clause.default")
    elif isinstance(stmt, ast.Insert):
        traits.relations.add(stmt.table.lower())
        if stmt.rows:
            for row in stmt.rows:
                for expr in row:
                    _walk_expression(expr, traits)
        if stmt.query is not None:
            traits.tags.add("insert.select")
            _walk_select(stmt.query, traits, in_subquery=True)
    elif isinstance(stmt, ast.Update):
        traits.relations.add(stmt.table.lower())
        for _, expr in stmt.assignments:
            _walk_expression(expr, traits)
        if stmt.where is not None:
            _walk_expression(stmt.where, traits)
    elif isinstance(stmt, ast.Delete):
        traits.relations.add(stmt.table.lower())
        if stmt.where is not None:
            _walk_expression(stmt.where, traits)
    elif isinstance(stmt, ast.Savepoint):
        traits.tags.add("txn.savepoint")
    elif isinstance(stmt, ast.Rollback) and stmt.savepoint:
        traits.tags.add("txn.savepoint")


def _walk_select(
    stmt: ast.SelectStatement, traits: StatementTraits, *, in_subquery: bool
) -> None:
    _walk_body(stmt.body, traits, in_subquery=in_subquery)
    if stmt.order_by:
        traits.tags.add("clause.order_by")
        for item in stmt.order_by:
            _walk_expression(item.expression, traits)
    if stmt.limit is not None:
        traits.tags.add("clause.limit")


def _walk_body(
    body: Union[ast.SelectCore, ast.SetOperation],
    traits: StatementTraits,
    *,
    in_subquery: bool,
) -> None:
    if isinstance(body, ast.SetOperation):
        op_tag = f"set.{body.op.lower()}"
        traits.tags.add(op_tag)
        if body.op == "UNION" and body.all:
            traits.tags.add("set.union_all")
        if in_subquery and body.op == "UNION":
            traits.tags.add("set.union_in_subquery")
        _walk_body(body.left, traits, in_subquery=in_subquery)
        _walk_body(body.right, traits, in_subquery=in_subquery)
        return
    core: ast.SelectCore = body
    if core.distinct:
        traits.tags.add("clause.distinct")
    if core.group_by:
        traits.tags.add("clause.group_by")
        for expr in core.group_by:
            _walk_expression(expr, traits)
    if core.having is not None:
        traits.tags.add("clause.having")
        _walk_expression(core.having, traits)
    for item in core.items:
        if not isinstance(item.expression, ast.Star):
            _walk_expression(item.expression, traits)
    if core.where is not None:
        _walk_expression(core.where, traits)
    for item in core.from_items:
        _walk_from_item(item, traits)


def _walk_from_item(item: ast.FromItem, traits: StatementTraits) -> None:
    if isinstance(item, ast.TableRef):
        traits.relations.add(item.name.lower())
    elif isinstance(item, ast.SubqueryRef):
        traits.tags.add("subquery.derived")
        _walk_select(item.subquery, traits, in_subquery=True)
    elif isinstance(item, ast.Join):
        traits.tags.add(f"join.{item.kind.lower()}")
        _walk_from_item(item.left, traits)
        _walk_from_item(item.right, traits)
        if item.condition is not None:
            _walk_expression(item.condition, traits)


def _walk_expression(expr: ast.Expression, traits: StatementTraits) -> None:
    stack: list[ast.Expression] = [expr]
    while stack:
        node = stack.pop()
        stack.extend(node.children())
        if isinstance(node, ast.FunctionCall):
            if node.name in AGGREGATE_NAMES:
                traits.tags.add(f"agg.{node.name}")
                if node.distinct:
                    traits.tags.add("agg.distinct")
            else:
                traits.tags.add(f"fn.{node.name}")
        elif isinstance(node, ast.BinaryOp):
            if node.op == "%":
                traits.tags.add("op.modulo")
            elif node.op == "||":
                traits.tags.add("op.concat")
        elif isinstance(node, ast.Parameter):
            traits.tags.add("clause.parameter")
        elif isinstance(node, ast.CaseExpr):
            traits.tags.add("clause.case")
        elif isinstance(node, ast.CastExpr):
            traits.tags.add("clause.cast")
            traits.tags.add(f"type.{node.type_name}")
        elif isinstance(node, ast.LikePredicate):
            traits.tags.add("clause.like")
        elif isinstance(node, ast.BetweenPredicate):
            traits.tags.add("clause.between")
        elif isinstance(node, ast.InPredicate):
            if node.subquery is not None:
                traits.tags.add("subquery.in")
                _walk_select(node.subquery, traits, in_subquery=True)
                if node.negated:
                    traits.tags.add("subquery.not_in")
            else:
                traits.tags.add("clause.in_list")
        elif isinstance(node, ast.ExistsPredicate):
            traits.tags.add("subquery.exists")
            _walk_select(node.subquery, traits, in_subquery=True)
        elif isinstance(node, ast.ScalarSubquery):
            traits.tags.add("subquery.scalar")
            _walk_select(node.subquery, traits, in_subquery=True)


def script_traits(statements: list[ast.Statement]) -> StatementTraits:
    """Union of traits over a whole script (kind = 'script')."""
    return union_traits(extract_traits(stmt) for stmt in statements)


def union_traits(traits: Iterable[StatementTraits]) -> StatementTraits:
    """Union of the statements' traits (kind = 'script')."""
    combined = StatementTraits(kind="script")
    for each in traits:
        combined.tags |= each.tags
        combined.relations |= each.relations
    return combined
