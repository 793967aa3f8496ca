"""Expression evaluation over row environments.

The evaluator is shared by WHERE/HAVING filters, select-list projection,
GROUP BY keys, CHECK constraints, and DEFAULT expressions.  Correlated
subqueries work through an :class:`Environment` chain; the executor
injects a ``subquery_runner`` callback so this module stays free of a
circular import on the executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.errors import BindError, TypeMismatch
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.functions import AGGREGATE_NAMES, fn_mod, lookup_scalar
from repro.sqlengine.typenames import resolve_type
from repro.sqlengine.types import cast_value
from repro.sqlengine.values import (
    distinct_key,
    like_match,
    sql_add,
    sql_compare,
    sql_concat,
    sql_div,
    sql_mul,
    sql_neg,
    sql_sub,
    tri_and,
    tri_not,
    tri_or,
)


@dataclass(frozen=True)
class ColumnBinding:
    """One addressable column of a relation: ``label.name``."""

    label: str  # table alias / table name / derived-table alias ('' if none)
    name: str

    def matches(self, name: str, table: Optional[str]) -> bool:
        if self.name.lower() != name.lower():
            return False
        if table is None:
            return True
        return self.label.lower() == table.lower()


#: Sentinel stored in a resolution map for references matching more than
#: one column (looking them up is an error, not a miss).
_AMBIGUOUS = -1

#: Resolution maps keyed on the identity of a column-binding list.  The
#: executor builds one binding list per scanned relation and then one
#: Environment per row, so resolving each (name, table) reference against
#: the bindings once per relation — instead of once per row per reference
#: — takes the scan's predicate evaluation from O(rows x width) lookups
#: to O(rows).  Entries hold a strong reference to the binding list so
#: the id key cannot be reused while the entry is alive; the cache is
#: bounded by eviction in insertion order.
_RESOLUTIONS: dict[int, tuple[Sequence["ColumnBinding"], dict]] = {}
_RESOLUTION_CACHE_SIZE = 256


def _resolution_map(columns: Sequence["ColumnBinding"]) -> dict:
    cached = _RESOLUTIONS.get(id(columns))
    if cached is not None and cached[0] is columns:
        return cached[1]
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
    if len(_RESOLUTIONS) >= _RESOLUTION_CACHE_SIZE:
        _RESOLUTIONS.pop(next(iter(_RESOLUTIONS)))
    _RESOLUTIONS[id(columns)] = (columns, resolution)
    return resolution


class Environment:
    """Column values visible while evaluating one row.

    ``aggregates`` maps ``id(FunctionCall node) -> value`` for aggregate
    calls pre-computed by the executor for the current group.
    """

    def __init__(
        self,
        columns: Sequence[ColumnBinding],
        row: Sequence[Any],
        outer: Optional["Environment"] = None,
        aggregates: Optional[dict[int, Any]] = None,
    ) -> None:
        self.columns = columns
        self.row = row
        self.outer = outer
        self.aggregates = aggregates or {}
        self._resolution: Optional[dict] = None

    def lookup(self, name: str, table: Optional[str]) -> Any:
        resolution = self._resolution
        if resolution is None:
            resolution = self._resolution = _resolution_map(self.columns)
        index = resolution.get((name.lower(), table.lower() if table else None))
        if index is not None:
            if index == _AMBIGUOUS:
                raise BindError(f"ambiguous column reference {name!r}")
            return self.row[index]
        if self.outer is not None:
            return self.outer.lookup(name, table)
        qualified = f"{table}.{name}" if table else name
        raise BindError(f"unknown column {qualified!r}")

    def lookup_ref(self, ref: ast.ColumnRef) -> Any:
        """:meth:`lookup` against a ColumnRef's pre-folded key."""
        resolution = self._resolution
        if resolution is None:
            resolution = self._resolution = _resolution_map(self.columns)
        index = resolution.get(ref.key)
        if index is not None:
            if index == _AMBIGUOUS:
                raise BindError(f"ambiguous column reference {ref.name!r}")
            return self.row[index]
        if self.outer is not None:
            return self.outer.lookup_ref(ref)
        raise BindError(f"unknown column {ref.qualified!r}")

    def aggregate_value(self, node: ast.FunctionCall) -> Any:
        try:
            return self.aggregates[id(node)]
        except KeyError:
            if self.outer is not None:
                return self.outer.aggregate_value(node)
            raise BindError(
                f"aggregate {node.name} used outside an aggregating query"
            ) from None


#: Runs a (possibly correlated) subquery, returning (column names, rows).
SubqueryRunner = Callable[[ast.SelectStatement, Optional[Environment]], "SubqueryResult"]


@dataclass
class SubqueryResult:
    columns: list[str]
    rows: list[tuple]


class Evaluator:
    """Evaluates expressions; stateless apart from its context handles."""

    def __init__(self, ctx, subquery_runner: Optional[SubqueryRunner] = None) -> None:
        self._ctx = ctx
        self._run_subquery = subquery_runner
        self._dispatch: dict[type, Any] = {}

    # -- public ------------------------------------------------------------

    def evaluate(self, expr: ast.Expression, env: Optional[Environment]) -> Any:
        node_type = type(expr)
        # Leaf fast paths: column references and literals are the vast
        # majority of nodes, and every predicate touches them once per
        # row — skip the dispatch indirection for them.
        if node_type is ast.ColumnRef:
            if env is None:
                raise BindError(
                    f"column {expr.qualified!r} used where no row is available"
                )
            return env.lookup_ref(expr)
        if node_type is ast.Literal:
            return expr.value
        method = self._dispatch.get(node_type)
        if method is None:
            method = getattr(self, f"_eval_{node_type.__name__.lower()}", None)
            if method is None:
                raise BindError(f"cannot evaluate {node_type.__name__}")
            self._dispatch[node_type] = method
        return method(expr, env)

    def truthy(self, expr: ast.Expression, env: Optional[Environment]) -> bool:
        """Evaluate a predicate; UNKNOWN filters the row out (SQL WHERE)."""
        return self.evaluate(expr, env) is True

    # -- node handlers -------------------------------------------------------

    def _eval_literal(self, expr: ast.Literal, env) -> Any:
        return expr.value

    def _eval_parameter(self, expr: ast.Parameter, env) -> Any:
        params = getattr(self._ctx, "params", ())
        if expr.index >= len(params):
            raise BindError(
                f"statement parameter {expr.index + 1} is not bound "
                f"({len(params)} value(s) supplied)"
            )
        return params[expr.index]

    def _eval_columnref(self, expr: ast.ColumnRef, env: Optional[Environment]) -> Any:
        if env is None:
            raise BindError(f"column {expr.qualified!r} used where no row is available")
        return env.lookup(expr.name, expr.table)

    def _eval_star(self, expr: ast.Star, env) -> Any:
        raise BindError("'*' is not a value expression here")

    def _eval_binaryop(self, expr: ast.BinaryOp, env) -> Any:
        op = expr.op
        if op == "AND":
            return tri_and(
                self._as_tribool(expr.left, env), self._as_tribool(expr.right, env)
            )
        if op == "OR":
            return tri_or(
                self._as_tribool(expr.left, env), self._as_tribool(expr.right, env)
            )
        # Operands are almost always column references or literals;
        # fetch those directly instead of recursing through evaluate().
        node = expr.left
        node_type = type(node)
        if node_type is ast.ColumnRef and env is not None:
            left = env.lookup_ref(node)
        elif node_type is ast.Literal:
            left = node.value
        else:
            left = self.evaluate(node, env)
        node = expr.right
        node_type = type(node)
        if node_type is ast.ColumnRef and env is not None:
            right = env.lookup_ref(node)
        elif node_type is ast.Literal:
            right = node.value
        else:
            right = self.evaluate(node, env)
        if op == "+":
            return sql_add(left, right)
        if op == "-":
            return sql_sub(left, right)
        if op == "*":
            return sql_mul(left, right)
        if op == "/":
            return sql_div(left, right)
        if op == "%":
            return fn_mod(self._ctx, left, right)
        if op == "||":
            return sql_concat(left, right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            cmp = sql_compare(left, right)
            if cmp is None:
                return None
            if op == "=":
                return cmp == 0
            if op == "<>":
                return cmp != 0
            if op == "<":
                return cmp < 0
            if op == "<=":
                return cmp <= 0
            if op == ">":
                return cmp > 0
            return cmp >= 0
        raise BindError(f"unknown operator {op!r}")  # pragma: no cover

    def _as_tribool(self, expr: ast.Expression, env) -> Optional[bool]:
        value = self.evaluate(expr, env)
        if value is None or isinstance(value, bool):
            return value
        raise TypeMismatch(f"expected a boolean condition, got {value!r}")

    def _flag(self, name: str) -> bool:
        """Behaviour flag from the owning engine's fault injector (False
        when evaluating outside an execution context)."""
        flag = getattr(self._ctx, "flag", None)
        return bool(flag is not None and flag(name))

    def _eval_unaryop(self, expr: ast.UnaryOp, env) -> Any:
        if expr.op == "NOT":
            value = self._as_tribool(expr.operand, env)
            if value is None and self._flag("fold_not_unknown_true"):
                return True
            return tri_not(value)
        if expr.op == "-":
            return sql_neg(self.evaluate(expr.operand, env))
        return self.evaluate(expr.operand, env)

    def _eval_functioncall(self, expr: ast.FunctionCall, env: Optional[Environment]) -> Any:
        if expr.name in AGGREGATE_NAMES:
            if env is None:
                raise BindError(f"aggregate {expr.name} needs a query context")
            return env.aggregate_value(expr)
        function = lookup_scalar(expr.name)
        args = [self.evaluate(arg, env) for arg in expr.args]
        return function(self._ctx, *args)

    def _eval_castexpr(self, expr: ast.CastExpr, env) -> Any:
        value = self.evaluate(expr.operand, env)
        target = resolve_type(expr.type_name, expr.type_args)
        return cast_value(value, target)

    def _eval_caseexpr(self, expr: ast.CaseExpr, env) -> Any:
        if expr.operand is not None:
            subject = self.evaluate(expr.operand, env)
            for when, then in expr.branches:
                candidate = self.evaluate(when, env)
                if (
                    subject is not None
                    and candidate is not None
                    and sql_compare(subject, candidate) == 0
                ):
                    return self.evaluate(then, env)
        else:
            for when, then in expr.branches:
                if self._as_tribool(when, env) is True:
                    return self.evaluate(then, env)
        if expr.else_result is not None:
            return self.evaluate(expr.else_result, env)
        return None

    def _eval_isnullpredicate(self, expr: ast.IsNullPredicate, env) -> bool:
        value = self.evaluate(expr.operand, env)
        result = value is None
        if (
            result
            and not isinstance(
                expr.operand, (ast.ColumnRef, ast.Literal, ast.Parameter)
            )
            and self._flag("isnull_composite_false")
        ):
            result = False
        return not result if expr.negated else result

    def _eval_betweenpredicate(self, expr: ast.BetweenPredicate, env) -> Optional[bool]:
        value = self.evaluate(expr.operand, env)
        low = self.evaluate(expr.low, env)
        high = self.evaluate(expr.high, env)
        low_cmp = sql_compare(value, low) if (value is not None and low is not None) else None
        high_cmp = sql_compare(value, high) if (value is not None and high is not None) else None
        ge_low = None if low_cmp is None else low_cmp >= 0
        le_high = None if high_cmp is None else high_cmp <= 0
        result = tri_and(ge_low, le_high)
        return tri_not(result) if expr.negated else result

    def _eval_likepredicate(self, expr: ast.LikePredicate, env) -> Optional[bool]:
        value = self.evaluate(expr.operand, env)
        pattern = self.evaluate(expr.pattern, env)
        escape = self.evaluate(expr.escape, env) if expr.escape is not None else None
        result = like_match(value, pattern, escape)
        return tri_not(result) if expr.negated else result

    def _eval_inpredicate(self, expr: ast.InPredicate, env) -> Optional[bool]:
        value = self.evaluate(expr.operand, env)
        if expr.values is not None:
            candidates = [self.evaluate(item, env) for item in expr.values]
        else:
            result = self._subquery(expr.subquery, env)
            if result.rows and len(result.rows[0]) != 1:
                raise TypeMismatch("IN subquery must return exactly one column")
            candidates = [row[0] for row in result.rows]
        return self._in_semantics(value, candidates, expr.negated)

    @staticmethod
    def _in_semantics(value: Any, candidates: list[Any], negated: bool) -> Optional[bool]:
        if value is None:
            return None
        saw_null = False
        for candidate in candidates:
            if candidate is None:
                saw_null = True
                continue
            if distinct_key(candidate) == distinct_key(value) or sql_compare(value, candidate) == 0:
                return False if negated else True
        if saw_null:
            return None
        return True if negated else False

    def _eval_existspredicate(self, expr: ast.ExistsPredicate, env) -> bool:
        result = self._subquery(expr.subquery, env)
        found = bool(result.rows)
        return not found if expr.negated else found

    def _eval_scalarsubquery(self, expr: ast.ScalarSubquery, env) -> Any:
        result = self._subquery(expr.subquery, env)
        if not result.rows:
            return None
        if len(result.rows) > 1:
            raise TypeMismatch("scalar subquery returned more than one row")
        if len(result.rows[0]) != 1:
            raise TypeMismatch("scalar subquery must return exactly one column")
        return result.rows[0][0]

    def _subquery(self, stmt: ast.SelectStatement, env: Optional[Environment]) -> SubqueryResult:
        if self._run_subquery is None:
            raise BindError("subqueries are not available in this context")
        return self._run_subquery(stmt, env)


def collect_aggregates(expr: ast.Expression) -> list[ast.FunctionCall]:
    """All aggregate FunctionCall nodes in ``expr`` (subqueries excluded)."""
    return [
        node
        for node in ast.walk_expressions(expr)
        if isinstance(node, ast.FunctionCall) and node.name in AGGREGATE_NAMES
    ]


def contains_aggregate(expr: ast.Expression) -> bool:
    return bool(collect_aggregates(expr))
