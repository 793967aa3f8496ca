"""Expression-to-closure compilation.

Compiles AST expressions into Python closures ``f(row, aggs, ctx)``:
the one evaluator of SQL expressions, for statement plans, CHECK
constraints and DEFAULTs alike.  Name-resolution failures compile into
closures that *raise when called*, so a query over zero rows stays
silent.

A subquery compiles into a plan of its own (through
:attr:`Scope.queries`), run each time the expression is evaluated.  A
correlated reference resolves through the chain of enclosing scopes at
compile time and reads the enclosing row from that scope's ``frame``,
which the subquery closure fills just before it runs the subquery.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Optional, Sequence

from repro.errors import BindError, TypeMismatch
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.expressions import _AMBIGUOUS, ColumnBinding, _resolution_map
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

Closure = Callable[[Any, Any, Any], Any]


class Scope:
    """Compile-time resolution context.

    ``bindings`` are the visible columns (``resolution`` their
    precomputed :func:`_resolution_map`, when the caller shares one);
    ``shift`` translates binding indices into the local row coordinates
    of the operator the closure will run in (per-scan filters see
    table-local rows).  ``agg_slots`` maps ``id(FunctionCall)`` to a
    position in the per-group aggregate value tuple; ``None`` means a
    non-aggregating row context (aggregate references raise).
    ``no_row`` marks a context with no row at all (a DEFAULT, INSERT
    VALUES).  ``outer`` is the scope a subquery is evaluated in, which
    its unresolved column references fall back to; ``queries`` compiles
    subqueries (``None``: subqueries are not available here).
    """

    def __init__(
        self,
        bindings: Sequence[ColumnBinding],
        *,
        shift: int = 0,
        agg_slots: Optional[dict[int, int]] = None,
        no_row: bool = False,
        outer: Optional["Scope"] = None,
        queries: Any = None,
        resolution: Optional[dict] = None,
    ) -> None:
        self.shift = shift
        self.agg_slots = agg_slots
        self.no_row = no_row
        self.outer = outer
        self.queries = queries
        if resolution is None:
            resolution = _resolution_map(bindings)
        self._resolution = resolution
        #: The row this scope's closures are evaluating, set by each
        #: subquery closure compiled here before it runs its plan.
        self.frame: list = [None]

    def resolve(self, ref: ast.ColumnRef):
        """Local row index, ``_AMBIGUOUS``, or None for unknown."""
        index = self._resolution.get(ref.key)
        if index is None or index == _AMBIGUOUS:
            return index
        return index - self.shift


def _raiser(make_error: Callable[[], Exception]) -> Closure:
    def raise_it(row: Any, aggs: Any, ctx: Any) -> Any:
        raise make_error()

    return raise_it


def _tribool(value: Any) -> Optional[bool]:
    if value is None or isinstance(value, bool):
        return value
    raise TypeMismatch(f"expected a boolean condition, got {value!r}")


#: The six comparison operators: the one table constant folding, the
#: compiled comparisons and the filter kernel read.  ``test(cmp, 0)``
#: turns a ``sql_compare`` result into the comparison's truth; on two
#: exact ``int`` operands, ``test(left, right)`` is the comparison itself.
CMP_OPERATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITH_FNS = {"+": sql_add, "-": sql_sub, "*": sql_mul, "/": sql_div, "||": sql_concat}


def compile_expression(expr: ast.Expression, scope: Scope) -> Closure:
    node_type = type(expr)

    if node_type is ast.Literal:
        value = expr.value
        return lambda row, aggs, ctx: value

    if node_type is ast.ColumnRef:
        return _compile_column(expr, scope)

    if node_type is ast.Parameter:
        return _compile_parameter(expr.index)

    if node_type is ast.BinaryOp:
        return _compile_binary(expr, scope)

    if node_type is ast.UnaryOp:
        operand = compile_expression(expr.operand, scope)
        if expr.op == "NOT":

            def _not(row, aggs, ctx):
                value = _tribool(operand(row, aggs, ctx))
                if value is None and ctx is not None and ctx.flag(
                    "fold_not_unknown_true"
                ):
                    return True
                return tri_not(value)

            return _not
        if expr.op == "-":
            return lambda row, aggs, ctx: sql_neg(operand(row, aggs, ctx))
        return operand

    if node_type is ast.FunctionCall:
        return _compile_function(expr, scope)

    if node_type is ast.CastExpr:
        return _compile_cast(expr, scope)

    if node_type is ast.CaseExpr:
        return _compile_case(expr, scope)

    if node_type is ast.IsNullPredicate:
        operand = compile_expression(expr.operand, scope)
        composite = not isinstance(
            expr.operand, (ast.ColumnRef, ast.Literal, ast.Parameter)
        )
        negated = expr.negated

        def _is_null(row, aggs, ctx):
            result = operand(row, aggs, ctx) is None
            if result and composite and ctx is not None and ctx.flag(
                "isnull_composite_false"
            ):
                result = False
            return not result if negated else result

        return _is_null

    if node_type is ast.BetweenPredicate:
        return _compile_between(expr, scope)

    if node_type is ast.LikePredicate:
        return _compile_like(expr, scope)

    if node_type is ast.InPredicate:
        return _compile_in(expr, scope)

    if node_type is ast.ExistsPredicate:
        run = _compile_subquery(expr.subquery, scope)
        negated = expr.negated

        def exists(row: Any, aggs: Any, ctx: Any) -> bool:
            found = bool(run(row, ctx).rows)
            return not found if negated else found

        return exists

    if node_type is ast.ScalarSubquery:
        run = _compile_subquery(expr.subquery, scope)

        def scalar(row: Any, aggs: Any, ctx: Any) -> Any:
            rows = run(row, ctx).rows
            if not rows:
                return None
            if len(rows) > 1:
                raise TypeMismatch("scalar subquery returned more than one row")
            if len(rows[0]) != 1:
                raise TypeMismatch("scalar subquery must return exactly one column")
            return rows[0][0]

        return scalar

    if node_type is ast.Star:
        return _raiser(lambda: BindError("'*' is not a value expression here"))

    name = node_type.__name__
    return _raiser(lambda: BindError(f"cannot evaluate {name}"))


def _compile_subquery(stmt: ast.SelectStatement, scope: Scope):
    """``(row, ctx) -> QueryResult``: ``stmt``'s plan, run with ``row``
    as the current row of ``scope``."""
    queries = scope.queries
    if queries is None:

        def unavailable(row: Any, ctx: Any) -> Any:
            raise BindError("subqueries are not available in this context")

        return unavailable
    plan = queries.subquery(stmt, None if scope.no_row else scope)
    frame = scope.frame

    def run(row: Any, ctx: Any) -> Any:
        frame[0] = row
        return plan.execute(ctx)

    return run


# -- leaves ------------------------------------------------------------------


def _compile_column(expr: ast.ColumnRef, scope: Scope) -> Closure:
    if scope.no_row:
        qualified = expr.qualified
        return _raiser(
            lambda: BindError(f"column {qualified!r} used where no row is available")
        )
    index = scope.resolve(expr)
    owner = scope
    while index is None and owner.outer is not None:
        owner = owner.outer
        index = owner.resolve(expr)
    if index == _AMBIGUOUS:
        name = expr.name
        return _raiser(lambda: BindError(f"ambiguous column reference {name!r}"))
    if index is None:
        qualified = expr.qualified
        return _raiser(lambda: BindError(f"unknown column {qualified!r}"))
    if owner is scope:
        return lambda row, aggs, ctx: row[index]
    frame = owner.frame
    return lambda row, aggs, ctx: frame[0][index]


def _compile_parameter(index: int) -> Closure:
    def fetch(row: Any, aggs: Any, ctx: Any) -> Any:
        params = ctx.params
        if index >= len(params):
            raise BindError(
                f"statement parameter {index + 1} is not bound "
                f"({len(params)} value(s) supplied)"
            )
        return params[index]

    return fetch


# -- operators ---------------------------------------------------------------


def _compile_binary(expr: ast.BinaryOp, scope: Scope) -> Closure:
    op = expr.op
    if op == "AND":
        left = compile_expression(expr.left, scope)
        right = compile_expression(expr.right, scope)
        return lambda row, aggs, ctx: tri_and(
            _tribool(left(row, aggs, ctx)), _tribool(right(row, aggs, ctx))
        )
    if op == "OR":
        left = compile_expression(expr.left, scope)
        right = compile_expression(expr.right, scope)
        return lambda row, aggs, ctx: tri_or(
            _tribool(left(row, aggs, ctx)), _tribool(right(row, aggs, ctx))
        )

    test = CMP_OPERATORS.get(op)
    if test is not None:
        fused = _fuse_comparison(expr, test, scope)
        if fused is not None:
            return fused
        left = compile_expression(expr.left, scope)
        right = compile_expression(expr.right, scope)

        def compare(row: Any, aggs: Any, ctx: Any) -> Optional[bool]:
            cmp = sql_compare(left(row, aggs, ctx), right(row, aggs, ctx))
            if cmp is None:
                return None
            return test(cmp, 0)

        return compare

    if op == "%":
        left = compile_expression(expr.left, scope)
        right = compile_expression(expr.right, scope)
        return lambda row, aggs, ctx: fn_mod(
            ctx, left(row, aggs, ctx), right(row, aggs, ctx)
        )

    arith = _ARITH_FNS.get(op)
    if arith is not None:
        left = compile_expression(expr.left, scope)
        right = compile_expression(expr.right, scope)
        return lambda row, aggs, ctx: arith(left(row, aggs, ctx), right(row, aggs, ctx))

    return _raiser(lambda: BindError(f"unknown operator {op!r}"))


def _fuse_comparison(expr: ast.BinaryOp, test, scope: Scope) -> Optional[Closure]:
    """Single-closure fast paths for the dominant predicate shapes:
    ``col <op> param``, ``col <op> literal``, and ``col <op> col``."""
    left, right = expr.left, expr.right
    if scope.no_row or type(left) is not ast.ColumnRef:
        return None
    lindex = scope.resolve(left)
    if lindex is None or lindex == _AMBIGUOUS:
        return None
    if type(right) is ast.Parameter:
        pindex = right.index

        def col_param(row: Any, aggs: Any, ctx: Any) -> Optional[bool]:
            params = ctx.params
            if pindex >= len(params):
                raise BindError(
                    f"statement parameter {pindex + 1} is not bound "
                    f"({len(params)} value(s) supplied)"
                )
            cmp = sql_compare(row[lindex], params[pindex])
            if cmp is None:
                return None
            return test(cmp, 0)

        return col_param
    if type(right) is ast.Literal:
        value = right.value

        def col_literal(row: Any, aggs: Any, ctx: Any) -> Optional[bool]:
            cmp = sql_compare(row[lindex], value)
            if cmp is None:
                return None
            return test(cmp, 0)

        return col_literal
    if type(right) is ast.ColumnRef:
        rindex = scope.resolve(right)
        if rindex is None or rindex == _AMBIGUOUS:
            return None

        def col_col(row: Any, aggs: Any, ctx: Any) -> Optional[bool]:
            cmp = sql_compare(row[lindex], row[rindex])
            if cmp is None:
                return None
            return test(cmp, 0)

        return col_col
    return None


def _compile_function(expr: ast.FunctionCall, scope: Scope) -> Closure:
    if expr.name in AGGREGATE_NAMES:
        name = expr.name
        if scope.no_row:
            return _raiser(lambda: BindError(f"aggregate {name} needs a query context"))
        slots = scope.agg_slots
        slot = slots.get(id(expr)) if slots is not None else None
        if slot is None:
            return _raiser(
                lambda: BindError(
                    f"aggregate {name} used outside an aggregating query"
                )
            )
        return lambda row, aggs, ctx: aggs[slot]
    try:
        function = lookup_scalar(expr.name)
    except BindError:
        name = expr.name
        return _raiser(lambda: BindError(f"unknown function {name!r}"))
    args = [compile_expression(arg, scope) for arg in expr.args]
    if len(args) == 1:
        arg0 = args[0]
        return lambda row, aggs, ctx: function(ctx, arg0(row, aggs, ctx))
    if len(args) == 2:
        arg0, arg1 = args
        return lambda row, aggs, ctx: function(
            ctx, arg0(row, aggs, ctx), arg1(row, aggs, ctx)
        )
    return lambda row, aggs, ctx: function(
        ctx, *[arg(row, aggs, ctx) for arg in args]
    )


def _compile_cast(expr: ast.CastExpr, scope: Scope) -> Closure:
    operand = compile_expression(expr.operand, scope)
    type_name, type_args = expr.type_name, expr.type_args
    try:
        target = resolve_type(type_name, type_args)
    except Exception:
        # Unresolvable type: evaluate the operand first, then raise the
        # resolver's error.
        def cast_deferred(row: Any, aggs: Any, ctx: Any) -> Any:
            value = operand(row, aggs, ctx)
            return cast_value(value, resolve_type(type_name, type_args))

        return cast_deferred
    return lambda row, aggs, ctx: cast_value(operand(row, aggs, ctx), target)


def _compile_case(expr: ast.CaseExpr, scope: Scope) -> Closure:
    branches = [
        (compile_expression(when, scope), compile_expression(then, scope))
        for when, then in expr.branches
    ]
    otherwise = (
        compile_expression(expr.else_result, scope)
        if expr.else_result is not None
        else None
    )
    if expr.operand is not None:
        operand = compile_expression(expr.operand, scope)

        def case_operand(row: Any, aggs: Any, ctx: Any) -> Any:
            subject = operand(row, aggs, ctx)
            for when, then in branches:
                candidate = when(row, aggs, ctx)
                if (
                    subject is not None
                    and candidate is not None
                    and sql_compare(subject, candidate) == 0
                ):
                    return then(row, aggs, ctx)
            if otherwise is not None:
                return otherwise(row, aggs, ctx)
            return None

        return case_operand

    def case_searched(row: Any, aggs: Any, ctx: Any) -> Any:
        for when, then in branches:
            if _tribool(when(row, aggs, ctx)) is True:
                return then(row, aggs, ctx)
        if otherwise is not None:
            return otherwise(row, aggs, ctx)
        return None

    return case_searched


def _compile_between(expr: ast.BetweenPredicate, scope: Scope) -> Closure:
    operand = compile_expression(expr.operand, scope)
    low = compile_expression(expr.low, scope)
    high = compile_expression(expr.high, scope)
    negated = expr.negated

    def between(row: Any, aggs: Any, ctx: Any) -> Optional[bool]:
        value = operand(row, aggs, ctx)
        low_value = low(row, aggs, ctx)
        high_value = high(row, aggs, ctx)
        low_cmp = (
            sql_compare(value, low_value)
            if (value is not None and low_value is not None)
            else None
        )
        high_cmp = (
            sql_compare(value, high_value)
            if (value is not None and high_value is not None)
            else None
        )
        ge_low = None if low_cmp is None else low_cmp >= 0
        le_high = None if high_cmp is None else high_cmp <= 0
        result = tri_and(ge_low, le_high)
        return tri_not(result) if negated else result

    return between


def _compile_like(expr: ast.LikePredicate, scope: Scope) -> Closure:
    operand = compile_expression(expr.operand, scope)
    pattern = compile_expression(expr.pattern, scope)
    escape = (
        compile_expression(expr.escape, scope) if expr.escape is not None else None
    )
    negated = expr.negated

    def like(row: Any, aggs: Any, ctx: Any) -> Optional[bool]:
        value = operand(row, aggs, ctx)
        pattern_value = pattern(row, aggs, ctx)
        escape_value = escape(row, aggs, ctx) if escape is not None else None
        result = like_match(value, pattern_value, escape_value)
        return tri_not(result) if negated else result

    return like


def _compile_in(expr: ast.InPredicate, scope: Scope) -> Closure:
    operand = compile_expression(expr.operand, scope)
    negated = expr.negated
    if expr.values is None:
        run = _compile_subquery(expr.subquery, scope)

        def in_subquery(row: Any, aggs: Any, ctx: Any) -> Optional[bool]:
            value = operand(row, aggs, ctx)
            rows = run(row, ctx).rows
            if rows and len(rows[0]) != 1:
                raise TypeMismatch("IN subquery must return exactly one column")
            return _in_semantics(value, [found[0] for found in rows], negated)

        return in_subquery
    items = [compile_expression(item, scope) for item in expr.values]

    def contains(row: Any, aggs: Any, ctx: Any) -> Optional[bool]:
        value = operand(row, aggs, ctx)
        return _in_semantics(value, [item(row, aggs, ctx) for item in items], negated)

    return contains


def _in_semantics(value: Any, candidates: list, negated: bool) -> Optional[bool]:
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
