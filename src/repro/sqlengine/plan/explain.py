"""EXPLAIN rendering for logical plans.

``explain_plan`` pretty-prints a lowered (and usually rewritten)
:class:`~repro.sqlengine.plan.logical.LogicalPlan`; ``explain_statement``
is the one-stop entry the servers and the CLI use: parse, lower, rewrite,
render — falling back to a short "unplanned" note for statement shapes
the planner leaves to the tree-walker.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ParseError
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.parser import parse_script
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
    Project,
    Scan,
    Sort,
    lower_select,
)
from repro.sqlengine.plan.rewrites import apply_rewrites
from repro.sqlengine.sqlgen import render_expression


def explain_plan(plan: LogicalPlan) -> str:
    """Render a logical plan as an indented operator tree."""
    lines: list[str] = []
    _render_node(plan.root, lines, 0)
    if plan.applied_rules:
        lines.append(f"rewrites: {', '.join(plan.applied_rules)}")
    else:
        lines.append("rewrites: (none)")
    if plan.param_checks:
        checks = ", ".join(f"?{index + 1}:{kind}" for index, kind in plan.param_checks)
        lines.append(f"runtime checks: {checks}")
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
        if node.needed is not None:
            columns = f" [{', '.join(node.needed)}]"
        else:
            columns = ""
        lines.append(f"{pad}Scan {node.table}{label}{columns}")
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

    Non-SELECT statements and shapes outside the planner's subset get a
    one-line note naming the executor that will run them instead; tables
    missing from ``catalog`` mark the plan incomplete instead of failing.
    """
    statements = parse_script(sql)
    if len(statements) != 1:
        raise ParseError(f"explain takes exactly one statement, got {len(statements)}")
    stmt = statements[0]
    if not isinstance(stmt, ast.SelectStatement):
        return f"{type(stmt).__name__}: executed directly by the engine (no plan)"
    try:
        plan = lower_select(stmt, catalog, lenient=True)
    except PlanUnsupported as exc:
        return f"unplanned ({exc}): executed by the tree-walker"
    apply_rewrites(plan)
    header = "plan (incomplete: missing tables)" if plan.incomplete else "plan"
    return f"{header}:\n{explain_plan(plan)}"
