"""Query execution: FROM construction, joins, filtering, grouping,
projection, set operations, ordering.

The executor is deliberately a straightforward tuple-at-a-time
interpreter — the study needs *faithful SQL semantics* far more than it
needs speed, and faithful semantics are what the injected faults distort
in controlled ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Optional

from repro.errors import BindError, CatalogError, TypeMismatch
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.expressions import (
    ColumnBinding,
    Environment,
    Evaluator,
    SubqueryResult,
    collect_aggregates,
)
from repro.sqlengine.functions import Accumulator
from repro.sqlengine.values import distinct_key, row_key


@dataclass
class Relation:
    """An intermediate result: bound columns plus materialised rows."""

    columns: list[ColumnBinding]
    rows: list[tuple]


@dataclass
class QueryResult:
    """Final output of a SELECT: plain column names plus rows."""

    columns: list[str]
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
        return QueryResult(result.columns, order_rows(decorated, directions))


def _sort_key(value: Any) -> tuple:
    # The rank keeps NULL from ever being compared with a value.
    return (1,) if value is None else (0, distinct_key(value))


def order_rows(decorated: list[tuple[tuple, tuple]], directions: list[bool]) -> list[tuple]:
    """The rows of ``decorated`` — ``(ORDER BY values, row)`` pairs in
    input order — sorted by those values, ``directions[i]`` true for
    DESC.  NULLs sort last ascending and first descending; ties keep
    input order.  One stable sort per key, the least significant first
    (``reverse=`` keeps ties in order), so no key is wrapped to invert
    its comparisons."""
    entries = [(*map(_sort_key, values), row) for values, row in decorated]
    for position in reversed(range(len(directions))):
        entries.sort(key=itemgetter(position), reverse=directions[position])
    return [entry[-1] for entry in entries]


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
