"""Reference semantics: the tree-walking SQL executor.

The engine runs every statement on a compiled plan
(:mod:`repro.sqlengine.plan`).  This module keeps the tuple-at-a-time
interpreter those plans were built to reproduce — the walker
(:class:`SelectExecutor`, :class:`Environment`, :class:`Evaluator`) —
as the tests' reference: :class:`ReferenceEngine` is an
:class:`~repro.sqlengine.engine.Engine` that sends SELECT, INSERT,
UPDATE and DELETE, CHECK and DEFAULT evaluation and CREATE VIEW's
validating run to it, so a test can compare the compiled engine with
it statement by statement.  Nothing under ``src/`` imports this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import BindError, CatalogError, ConstraintViolation, SqlError, TypeMismatch
from repro.faults.spec import FaultSpec
from repro.servers import make_server
from repro.servers.product import ServerProduct
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import ViewDef
from repro.sqlengine.engine import Engine, ExecutionContext, Result
from repro.sqlengine.expressions import (
    _AMBIGUOUS,
    ColumnBinding,
    _resolution_map,
    collect_aggregates,
)
from repro.sqlengine.functions import AGGREGATE_NAMES, Accumulator, fn_mod, lookup_scalar
from repro.sqlengine.plan.physical import QueryResult
from repro.sqlengine.typenames import resolve_type
from repro.sqlengine.types import cast_value
from repro.sqlengine.values import (
    distinct_key,
    like_match,
    row_key,
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

#: Resolution maps keyed on the identity of a column-binding list: the
#: walker builds one binding list per relation and one Environment per
#: row, so each list is resolved once, not once per row.  Entries hold
#: the list itself, so an id cannot be reused while its entry lives.
_RESOLUTIONS: dict[int, tuple[Sequence[ColumnBinding], dict]] = {}


def _cached_resolution(columns: Sequence[ColumnBinding]) -> dict:
    cached = _RESOLUTIONS.get(id(columns))
    if cached is not None and cached[0] is columns:
        return cached[1]
    if len(_RESOLUTIONS) >= 256:
        _RESOLUTIONS.pop(next(iter(_RESOLUTIONS)))
    resolution = _resolution_map(columns)
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
            resolution = self._resolution = _cached_resolution(self.columns)
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
            resolution = self._resolution = _cached_resolution(self.columns)
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


@dataclass
class Relation:
    """An intermediate result: bound columns plus materialised rows."""

    columns: list[ColumnBinding]
    rows: list[tuple]


_MAX_SUBQUERY_DEPTH = 32


class SelectExecutor:
    """Executes SELECT statements against an engine's catalog/storage."""

    def __init__(self, engine, ctx) -> None:
        self._engine = engine
        self._ctx = ctx
        self._depth = 0
        self.evaluator = Evaluator(ctx, subquery_runner=self._run_subquery)

    # -- entry point ---------------------------------------------------------

    def execute_select(
        self, stmt: ast.SelectStatement, outer_env: Optional[Environment] = None
    ) -> QueryResult:
        self._depth += 1
        if self._depth > _MAX_SUBQUERY_DEPTH:
            raise BindError("subquery nesting too deep")
        try:
            if isinstance(stmt.body, ast.SelectCore):
                result, envs = self._execute_core(stmt.body, outer_env)
            else:
                result = self._execute_setop(stmt.body, outer_env)
                envs = None
            if stmt.order_by:
                result = self._order(result, envs, stmt.order_by, outer_env)
            if stmt.limit is not None:
                result = QueryResult(result.columns, result.rows[: stmt.limit])
            return result
        finally:
            self._depth -= 1

    def _run_subquery(
        self, stmt: ast.SelectStatement, env: Optional[Environment]
    ) -> SubqueryResult:
        result = self.execute_select(stmt, outer_env=env)
        return SubqueryResult(result.columns, result.rows)

    # -- set operations --------------------------------------------------------

    def _execute_setop(
        self, node: ast.SetOperation, outer_env: Optional[Environment]
    ) -> QueryResult:
        left = self._execute_body(node.left, outer_env)
        right = self._execute_body(node.right, outer_env)
        if len(left.columns) != len(right.columns):
            raise TypeMismatch(
                f"{node.op} operands have different column counts "
                f"({len(left.columns)} vs {len(right.columns)})"
            )
        if node.op == "UNION":
            rows = left.rows + right.rows
            if not node.all:
                rows = _distinct_rows(rows)
            return QueryResult(left.columns, rows)
        if node.op == "INTERSECT":
            right_keys = {row_key(row) for row in right.rows}
            rows = _distinct_rows([row for row in left.rows if row_key(row) in right_keys])
            return QueryResult(left.columns, rows)
        if node.op == "EXCEPT":
            right_keys = {row_key(row) for row in right.rows}
            rows = _distinct_rows(
                [row for row in left.rows if row_key(row) not in right_keys]
            )
            return QueryResult(left.columns, rows)
        raise BindError(f"unknown set operation {node.op!r}")  # pragma: no cover

    def _execute_body(self, body, outer_env: Optional[Environment]) -> QueryResult:
        if isinstance(body, ast.SelectCore):
            result, _ = self._execute_core(body, outer_env)
            return result
        return self._execute_setop(body, outer_env)

    # -- core SELECT -------------------------------------------------------------

    def _execute_core(
        self, core: ast.SelectCore, outer_env: Optional[Environment]
    ) -> tuple[QueryResult, Optional[list[Environment]]]:
        relation = self._build_from(core.from_items, outer_env)

        if core.where is not None:
            kept = []
            # One environment reused across the scan (only its row slot
            # changes); nothing retains it past each predicate call.
            env = Environment(relation.columns, (), outer=outer_env)
            for row in relation.rows:
                env.row = row
                if self.evaluator.truthy(core.where, env):
                    kept.append(row)
            relation = Relation(relation.columns, kept)

        aggregates = self._collect_core_aggregates(core)
        if core.group_by or aggregates:
            result, envs = self._execute_grouped(core, relation, outer_env, aggregates)
        else:
            result, envs = self._project(core, relation, outer_env)

        if core.distinct:
            result, envs = self._apply_distinct(result, envs)
        return result, envs

    @staticmethod
    def _collect_core_aggregates(core: ast.SelectCore) -> list[ast.FunctionCall]:
        nodes: list[ast.FunctionCall] = []
        for item in core.items:
            if not isinstance(item.expression, ast.Star):
                nodes.extend(collect_aggregates(item.expression))
        if core.having is not None:
            nodes.extend(collect_aggregates(core.having))
        return nodes

    # -- FROM / joins --------------------------------------------------------------

    def _build_from(
        self, from_items: list[ast.FromItem], outer_env: Optional[Environment]
    ) -> Relation:
        if not from_items:
            return Relation(columns=[], rows=[()])
        relation = self._build_from_item(from_items[0], outer_env)
        for item in from_items[1:]:
            right = self._build_from_item(item, outer_env)
            relation = _cross_join(relation, right)
        return relation

    def _build_from_item(
        self, item: ast.FromItem, outer_env: Optional[Environment]
    ) -> Relation:
        if isinstance(item, ast.TableRef):
            return self._scan(item)
        if isinstance(item, ast.SubqueryRef):
            sub = self.execute_select(item.subquery, outer_env=outer_env)
            columns = [ColumnBinding(item.alias, name) for name in sub.columns]
            return Relation(columns, sub.rows)
        if isinstance(item, ast.Join):
            return self._join(item, outer_env)
        raise BindError(f"unsupported FROM item {item!r}")  # pragma: no cover

    def _scan(self, ref: ast.TableRef) -> Relation:
        catalog = self._engine.catalog
        label = ref.binding_name
        if catalog.has_table(ref.name):
            schema = catalog.table(ref.name)
            data = self._engine.storage.get(ref.name)
            columns = [ColumnBinding(label, column.name) for column in schema.columns]
            return Relation(columns, [tuple(row) for row in data.rows()])
        if catalog.has_view(ref.name):
            view = catalog.view(ref.name)
            self._ctx.note_view_use(view)
            sub = self.execute_select(view.query, outer_env=None)
            names = view.column_names or sub.columns
            if len(names) != len(sub.columns):
                raise CatalogError(
                    f"view {view.name!r} column list does not match its query"
                )
            columns = [ColumnBinding(label, name) for name in names]
            return Relation(columns, sub.rows)
        raise CatalogError(f"relation {ref.name!r} does not exist")

    def _join(self, join: ast.Join, outer_env: Optional[Environment]) -> Relation:
        left = self._build_from_item(join.left, outer_env)
        right = self._build_from_item(join.right, outer_env)
        if join.kind == "CROSS":
            return _cross_join(left, right)
        if join.kind == "INNER":
            return self._loop_join(left, right, join.condition, outer_env, outer=False)
        if join.kind == "LEFT":
            return self._loop_join(left, right, join.condition, outer_env, outer=True)
        if join.kind == "RIGHT":
            flipped = self._loop_join(right, left, join.condition, outer_env, outer=True)
            return _reorder(flipped, len(right.columns), len(left.columns))
        if join.kind == "FULL":
            return self._full_join(left, right, join.condition, outer_env)
        raise BindError(f"unknown join kind {join.kind!r}")  # pragma: no cover

    def _loop_join(
        self,
        left: Relation,
        right: Relation,
        condition: Optional[ast.Expression],
        outer_env: Optional[Environment],
        *,
        outer: bool,
        matched_right: Optional[list[bool]] = None,
    ) -> Relation:
        columns = left.columns + right.columns
        rows: list[tuple] = []
        null_pad = (None,) * len(right.columns)
        for left_row in left.rows:
            matched = False
            for right_index, right_row in enumerate(right.rows):
                combined = left_row + right_row
                env = Environment(columns, combined, outer=outer_env)
                if condition is None or self.evaluator.truthy(condition, env):
                    rows.append(combined)
                    matched = True
                    if matched_right is not None:
                        matched_right[right_index] = True
            if outer and not matched:
                rows.append(left_row + null_pad)
        return Relation(columns, rows)

    def _full_join(
        self,
        left: Relation,
        right: Relation,
        condition: Optional[ast.Expression],
        outer_env: Optional[Environment],
    ) -> Relation:
        matched_right = [False] * len(right.rows)
        relation = self._loop_join(
            left, right, condition, outer_env, outer=True, matched_right=matched_right
        )
        null_pad = (None,) * len(left.columns)
        for index, right_row in enumerate(right.rows):
            if not matched_right[index]:
                relation.rows.append(null_pad + right_row)
        return relation

    # -- grouping ---------------------------------------------------------------------

    def _execute_grouped(
        self,
        core: ast.SelectCore,
        relation: Relation,
        outer_env: Optional[Environment],
        aggregates: list[ast.FunctionCall],
    ) -> tuple[QueryResult, list[Environment]]:
        groups: dict[tuple, list[tuple]] = {}
        if core.group_by:
            order: list[tuple] = []
            for row in relation.rows:
                env = Environment(relation.columns, row, outer=outer_env)
                key = tuple(
                    distinct_key(self.evaluator.evaluate(expr, env)) for expr in core.group_by
                )
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(row)
            group_items = [(key, groups[key]) for key in order]
        else:
            group_items = [((), relation.rows)]

        columns = relation.columns
        out_rows: list[tuple] = []
        out_envs: list[Environment] = []
        names = self._output_names(core, relation)

        for _, rows in group_items:
            agg_values: dict[int, Any] = {}
            accumulators = [
                (node, Accumulator(node.name, node.distinct, node.star)) for node in aggregates
            ]
            for row in rows:
                env = Environment(columns, row, outer=outer_env)
                for node, acc in accumulators:
                    if acc.star:
                        acc.add(None)
                    else:
                        if len(node.args) != 1:
                            raise TypeMismatch(
                                f"aggregate {node.name} takes exactly one argument"
                            )
                        acc.add(self.evaluator.evaluate(node.args[0], env))
            for node, acc in accumulators:
                agg_values[id(node)] = acc.result()
            representative = rows[0] if rows else (None,) * len(columns)
            env = Environment(columns, representative, outer=outer_env, aggregates=agg_values)
            if core.having is not None and not self.evaluator.truthy(core.having, env):
                continue
            out_rows.append(self._project_row(core, relation, env))
            out_envs.append(env)
        return QueryResult(names, out_rows), out_envs

    # -- projection --------------------------------------------------------------------

    def _project(
        self, core: ast.SelectCore, relation: Relation, outer_env: Optional[Environment]
    ) -> tuple[QueryResult, list[Environment]]:
        names = self._output_names(core, relation)
        rows: list[tuple] = []
        envs: list[Environment] = []
        for row in relation.rows:
            env = Environment(relation.columns, row, outer=outer_env)
            rows.append(self._project_row(core, relation, env))
            envs.append(env)
        return QueryResult(names, rows), envs

    def _project_row(
        self, core: ast.SelectCore, relation: Relation, env: Environment
    ) -> tuple:
        values: list[Any] = []
        for item in core.items:
            expr = item.expression
            if isinstance(expr, ast.Star):
                for index, column in enumerate(relation.columns):
                    if expr.table is None or column.label.lower() == expr.table.lower():
                        values.append(env.row[index])
                continue
            values.append(self.evaluator.evaluate(expr, env))
        return tuple(values)

    def _output_names(self, core: ast.SelectCore, relation: Relation) -> list[str]:
        names: list[str] = []
        for item in core.items:
            expr = item.expression
            if isinstance(expr, ast.Star):
                matched = False
                for column in relation.columns:
                    if expr.table is None or column.label.lower() == expr.table.lower():
                        names.append(column.name)
                        matched = True
                if expr.table is not None and not matched:
                    raise BindError(f"unknown table {expr.table!r} in select list")
                continue
            names.append(self._output_name(item))
        return names

    def _output_name(self, item: ast.SelectItem) -> str:
        if item.alias:
            return item.alias
        expr = item.expression
        if isinstance(expr, ast.ColumnRef):
            return expr.name
        if isinstance(expr, ast.FunctionCall):
            # Interbase report 222476: AVG/SUM columns come back with an
            # empty field name in two of the products.
            if expr.name in ("AVG", "SUM") and self._ctx.flag("empty_agg_field_names"):
                return ""
            return expr.name
        return "EXPR"

    # -- distinct / ordering -----------------------------------------------------------------

    @staticmethod
    def _apply_distinct(
        result: QueryResult, envs: Optional[list[Environment]]
    ) -> tuple[QueryResult, Optional[list[Environment]]]:
        seen: set = set()
        rows: list[tuple] = []
        kept_envs: list[Environment] = []
        for index, row in enumerate(result.rows):
            key = row_key(row)
            if key in seen:
                continue
            seen.add(key)
            rows.append(row)
            if envs is not None:
                kept_envs.append(envs[index])
        return QueryResult(result.columns, rows), (kept_envs if envs is not None else None)

    def _order(
        self,
        result: QueryResult,
        envs: Optional[list[Environment]],
        order_by: list[ast.OrderItem],
        outer_env: Optional[Environment],
    ) -> QueryResult:
        def key_for(index: int, row: tuple, item: ast.OrderItem) -> Any:
            expr = item.expression
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                ordinal = expr.value
                if not 1 <= ordinal <= len(row):
                    raise BindError(f"ORDER BY position {ordinal} is out of range")
                return row[ordinal - 1]
            if isinstance(expr, ast.ColumnRef) and expr.table is None:
                for column_index, name in enumerate(result.columns):
                    if name.lower() == expr.name.lower():
                        return row[column_index]
            if envs is not None:
                return self.evaluator.evaluate(expr, envs[index])
            raise BindError(
                "ORDER BY expression must name an output column of a set operation"
            )

        decorated = [
            (tuple(key_for(index, row, item) for item in order_by), row)
            for index, row in enumerate(result.rows)
        ]
        directions = [item.descending for item in order_by]
        return QueryResult(result.columns, _composite_order(decorated, directions))


class _Desc:
    """Inverts the comparisons of a DESC key in the reference sort."""

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return other.key == self.key


def _composite_order(decorated, directions):
    """Reference ORDER BY: one sort on a composite key per row — a
    (rank, key) part per ORDER BY item, then the input position."""

    def key(entry):
        index, (values, _) = entry
        parts = []
        for value, descending in zip(values, directions):
            if value is None:
                parts.append((0, 0) if descending else (1, 0))
            elif descending:
                parts.append((1, _Desc(distinct_key(value))))
            else:
                parts.append((0, distinct_key(value)))
        return tuple(parts), index

    return [row for _, (_, row) in sorted(enumerate(decorated), key=key)]


def _distinct_rows(rows: list[tuple]) -> list[tuple]:
    seen: set = set()
    result: list[tuple] = []
    for row in rows:
        key = row_key(row)
        if key not in seen:
            seen.add(key)
            result.append(row)
    return result


def _cross_join(left: Relation, right: Relation) -> Relation:
    columns = left.columns + right.columns
    rows = [lrow + rrow for lrow in left.rows for rrow in right.rows]
    return Relation(columns, rows)


def _reorder(relation: Relation, left_width: int, right_width: int) -> Relation:
    """Swap the column blocks of a flipped RIGHT JOIN result back."""
    columns = relation.columns[left_width:] + relation.columns[:left_width]
    rows = [row[left_width:] + row[:left_width] for row in relation.rows]
    return Relation(columns, rows)


class ReferenceEngine(Engine):
    """An engine whose SELECT, INSERT, UPDATE, DELETE, CHECK and DEFAULT
    evaluation and CREATE VIEW validation run on the walker."""

    def _execute_select(self, stmt: ast.SelectStatement, ctx: ExecutionContext) -> Result:
        output = SelectExecutor(self, ctx).execute_select(stmt)
        return Result(
            kind="select", columns=output.columns, rows=output.rows, rowcount=len(output.rows)
        )

    def _execute_insert(self, stmt: ast.Insert, ctx: ExecutionContext) -> Result:
        schema = self.catalog.table(stmt.table)
        data = self.storage.get(stmt.table)
        executor = SelectExecutor(self, ctx)
        if stmt.columns is not None:
            target_indices = [schema.column_index(name) for name in stmt.columns]
            if len(set(target_indices)) != len(target_indices):
                raise SqlError(f"duplicate column in INSERT into {stmt.table!r}")
        else:
            target_indices = list(range(len(schema.columns)))
        if stmt.rows is not None:
            source_rows = [
                tuple(executor.evaluator.evaluate(expr, None) for expr in row)
                for row in stmt.rows
            ]
        else:
            source_rows = executor.execute_select(stmt.query).rows
        return self._insert_rows(schema, data, target_indices, source_rows, ctx)

    def _execute_update(self, stmt: ast.Update, ctx: ExecutionContext) -> Result:
        schema = self.catalog.table(stmt.table)
        data = self.storage.get(stmt.table)
        executor = SelectExecutor(self, ctx)
        columns = [ColumnBinding(schema.name, column.name) for column in schema.columns]
        assignment_indices = [
            (schema.column_index(name), expr) for name, expr in stmt.assignments
        ]
        updated = 0
        env = Environment(columns, ())
        for row in data.rows():
            env.row = row
            if stmt.where is not None and not executor.evaluator.truthy(stmt.where, env):
                continue
            new_values: dict[int, Any] = {}
            for index, expr in assignment_indices:
                column = schema.columns[index]
                value = executor.evaluator.evaluate(expr, env)
                new_values[index] = cast_value(value, column.sql_type, implicit=True)
            self.apply_row_update(schema, data, row, new_values, ctx)
            updated += 1
        return Result(kind="dml", rowcount=updated)

    def _execute_delete(self, stmt: ast.Delete, ctx: ExecutionContext) -> Result:
        schema = self.catalog.table(stmt.table)
        data = self.storage.get(stmt.table)
        executor = SelectExecutor(self, ctx)
        columns = [ColumnBinding(schema.name, column.name) for column in schema.columns]
        env = Environment(columns, ())

        def matches(row: list[Any]) -> bool:
            if stmt.where is None:
                return True
            env.row = row
            return executor.evaluator.truthy(stmt.where, env)

        removed = data.delete_rows(matches)
        self.transactions.record(lambda r=removed, d=data: d.restore_rows(r))
        return Result(kind="dml", rowcount=len(removed))

    def _complete_row(self, schema, target_indices, source, ctx) -> list[Any]:
        missing = object()
        row: list[Any] = [missing] * len(schema.columns)
        for index, value in zip(target_indices, source):
            row[index] = cast_value(value, schema.columns[index].sql_type, implicit=True)
        for index, column in enumerate(schema.columns):
            if row[index] is missing:
                row[index] = (
                    None
                    if column.default is None
                    else self._cast_default(self._no_row_value(column.default, ctx), column)
                )
        return row

    def _check_row_constraints(self, schema, row: list[Any], ctx: ExecutionContext) -> None:
        for index, column in enumerate(schema.columns):
            if column.not_null and row[index] is None:
                raise ConstraintViolation(
                    f"column {column.name!r} of {schema.name!r} may not be NULL"
                )
        columns = [ColumnBinding(schema.name, column.name) for column in schema.columns]
        env = Environment(columns, tuple(row))
        evaluator = SelectExecutor(self, ctx).evaluator
        for column in schema.columns:
            if column.check is not None and evaluator.evaluate(column.check, env) is False:
                raise ConstraintViolation(
                    f"CHECK constraint on column {column.name!r} violated"
                )
        for check in schema.checks:
            if evaluator.evaluate(check, env) is False:
                raise ConstraintViolation(
                    f"CHECK constraint on table {schema.name!r} violated"
                )

    def _no_row_value(self, expr: ast.Expression, ctx: ExecutionContext) -> Any:
        return SelectExecutor(self, ctx).evaluator.evaluate(expr, None)

    def _execute_create_view(self, stmt: ast.CreateView, ctx: ExecutionContext) -> Result:
        view = ViewDef(name=stmt.name, query=stmt.query, column_names=stmt.column_names)
        output = SelectExecutor(self, ctx).execute_select(stmt.query)
        if stmt.column_names is not None and len(stmt.column_names) != len(output.columns):
            raise CatalogError(f"view {stmt.name!r} column list does not match its query")
        self.catalog.add_view(view)
        self.transactions.record(lambda: self.catalog.drop_view(stmt.name))
        return Result(kind="ddl")


def reference_server(key: str, faults: Iterable[FaultSpec] = ()) -> ServerProduct:
    """``make_server(key, faults)`` with a :class:`ReferenceEngine`."""
    server = make_server(key, faults)
    engine = server.engine
    server.engine = ReferenceEngine(
        engine.name, injector=engine.injector, statement_validator=engine.statement_validator
    )
    return server
