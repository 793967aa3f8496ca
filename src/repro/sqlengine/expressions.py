"""Column bindings and aggregate discovery, shared by the planner.

A :class:`ColumnBinding` names one addressable column of a relation;
:func:`_resolution_map` resolves column references against a list of
them once per compile.  :func:`collect_aggregates` finds the aggregate
calls of one query block (subqueries are separate blocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.functions import AGGREGATE_NAMES


@dataclass(frozen=True)
class ColumnBinding:
    """One addressable column of a relation: ``label.name``."""

    label: str  # table alias / table name / derived-table alias ('' if none)
    name: str


#: Sentinel stored in a resolution map for references matching more than
#: one column (looking them up is an error, not a miss).
_AMBIGUOUS = -1


def _resolution_map(columns: Sequence[ColumnBinding]) -> dict:
    """``(name, qualifier or None) -> column index`` (or
    :data:`_AMBIGUOUS`), case-folded like :attr:`ast.ColumnRef.key`."""
    resolution: dict = {}
    for index, column in enumerate(columns):
        for key in (
            (column.name.lower(), None),
            (column.name.lower(), column.label.lower()),
        ):
            if key in resolution and resolution[key] != index:
                resolution[key] = _AMBIGUOUS
            else:
                resolution[key] = index
    return resolution


def collect_aggregates(expr: ast.Expression) -> list[ast.FunctionCall]:
    """All aggregate FunctionCall nodes in ``expr`` (subqueries excluded)."""
    return [
        node
        for node in ast.walk_expressions(expr)
        if isinstance(node, ast.FunctionCall) and node.name in AGGREGATE_NAMES
    ]


def contains_aggregate(expr: ast.Expression) -> bool:
    return bool(collect_aggregates(expr))
