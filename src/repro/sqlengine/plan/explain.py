"""EXPLAIN rendering for logical plans.

``explain_plan`` pretty-prints a lowered (and usually rewritten)
:class:`~repro.sqlengine.plan.logical.LogicalPlan`, the blocks of its
set operations, views and derived tables indented under them;
``explain_statement`` is the one-stop entry the servers and the CLI
use: parse, lower, rewrite, render.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ParseError
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.parser import parse_script
from repro.sqlengine.plan.logical import (
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
    Project,
    Scan,
    SetOp,
    Sort,
    blocks,
    lower_select,
)
from repro.sqlengine.plan.rewrites import apply_rewrites
from repro.sqlengine.sqlgen import render_expression


def explain_plan(plan: LogicalPlan) -> str:
    """Render a logical plan as an indented operator tree."""
    lines: list[str] = []
    _render_node(plan.root, lines, 0)
    rules = list(dict.fromkeys(rule for block in blocks(plan) for rule in block.applied_rules))
    if rules:
        lines.append(f"rewrites: {', '.join(rules)}")
    else:
        lines.append("rewrites: (none)")
    return "\n".join(lines)


def _render_node(node: Any, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    if isinstance(node, Limit):
        lines.append(f"{pad}Limit {node.count}")
        _render_node(node.child, lines, depth + 1)
    elif isinstance(node, Sort):
        keys = ", ".join(
            render_expression(item.expression) + (" DESC" if item.descending else "")
            for item in node.order_by
        )
        lines.append(f"{pad}Sort {keys}")
        _render_node(node.child, lines, depth + 1)
    elif isinstance(node, Distinct):
        lines.append(f"{pad}Distinct")
        _render_node(node.child, lines, depth + 1)
    elif isinstance(node, Project):
        lines.append(f"{pad}Project {_render_items(node.items)}")
        _render_node(node.child, lines, depth + 1)
    elif isinstance(node, Aggregate):
        text = f"{pad}Aggregate {_render_items(node.items)}"
        if node.group_by:
            text += " group by " + ", ".join(
                render_expression(expr) for expr in node.group_by
            )
        if node.having is not None:
            text += f" having {render_expression(node.having)}"
        lines.append(text)
        _render_node(node.child, lines, depth + 1)
    elif isinstance(node, Filter):
        conjuncts = " AND ".join(render_expression(c) for c in node.conjuncts)
        suffix = " [pushed]" if node.pushed else ""
        lines.append(f"{pad}Filter {conjuncts}{suffix}")
        _render_node(node.child, lines, depth + 1)
    elif isinstance(node, HashJoin):
        lines.append(
            f"{pad}HashJoin {render_expression(node.left_key)} = "
            f"{render_expression(node.right_key)}"
        )
        _render_node(node.left, lines, depth + 1)
        _render_node(node.right, lines, depth + 1)
    elif isinstance(node, CrossJoin):
        lines.append(f"{pad}CrossJoin")
        _render_node(node.left, lines, depth + 1)
        _render_node(node.right, lines, depth + 1)
    elif isinstance(node, Join):
        condition = (
            f" ON {render_expression(node.condition)}" if node.condition is not None else ""
        )
        lines.append(f"{pad}Join {node.kind}{condition}")
        _render_node(node.left, lines, depth + 1)
        _render_node(node.right, lines, depth + 1)
    elif isinstance(node, SetOp):
        lines.append(f"{pad}SetOp {node.op}{' ALL' if node.all else ''}")
        _render_node(node.left.root, lines, depth + 1)
        _render_node(node.right.root, lines, depth + 1)
    elif isinstance(node, Derived):
        source = f"View {node.view.name}" if node.view is not None else "Derived"
        label = f" as {node.label}" if node.view is None or node.label != node.view.name else ""
        lines.append(f"{pad}{source}{label}")
        if node.block is not None:
            _render_node(node.block.root, lines, depth + 1)
    elif isinstance(node, IndexLookup):
        keys = ", ".join(
            f"{column} = {render_expression(expr)}"
            for column, expr in zip(node.key_columns, node.key_exprs)
        )
        lines.append(
            f"{pad}IndexLookup {node.scan.table} via {node.index_name} ({keys})"
        )
    elif isinstance(node, Scan):
        label = f" as {node.label}" if node.label != node.table else ""
        lines.append(f"{pad}Scan {node.table}{label}")
    elif isinstance(node, DualScan):
        lines.append(f"{pad}DualScan")
    else:  # pragma: no cover - every logical node is handled above
        lines.append(f"{pad}{type(node).__name__}")


def _render_items(items: list[ast.SelectItem]) -> str:
    parts = []
    for item in items:
        if isinstance(item.expression, ast.Star):
            table = item.expression.table
            parts.append(f"{table}.*" if table else "*")
            continue
        text = render_expression(item.expression)
        if item.alias:
            text += f" AS {item.alias}"
        parts.append(text)
    return ", ".join(parts)


def explain_statement(sql: str, catalog=None) -> str:
    """Parse one SELECT and render its (rewritten) plan.

    Non-SELECT statements get a one-line note; tables missing from
    ``catalog`` mark the plan incomplete instead of failing.
    """
    statements = parse_script(sql)
    if len(statements) != 1:
        raise ParseError(f"explain takes exactly one statement, got {len(statements)}")
    stmt = statements[0]
    if not isinstance(stmt, ast.SelectStatement):
        return f"{type(stmt).__name__}: executed directly by the engine (no plan)"
    # No values are bound: each `?` is planned as the kind of the
    # operand it is compared with, the plan every well-typed call gets.
    plan = apply_rewrites(lower_select(stmt, catalog, None))
    header = "plan (incomplete: missing tables)" if plan.incomplete else "plan"
    return f"{header}:\n{explain_plan(plan)}"
