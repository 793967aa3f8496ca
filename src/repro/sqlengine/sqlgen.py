"""AST -> SQL rendering and NULL-rich predicate generation.

Turns statement/expression trees back into executable SQL text.  Used
by the query-rephrasing wrapper (which transforms ASTs and needs to run
the result) and by tests that check transform round-trips.

The generation half (:class:`PredicateGenerator`) produces the hunt
campaign's workload: a fixed two-table schema whose rows are seeded
with a high NULL rate, plus deterministic random WHERE/CASE predicates
biased towards three-valued-logic traps (NULL-able comparisons, IN
lists containing NULL, composite NULL tests, CASE arms falling through
to NULL).  Everything is built as an AST and rendered through the
functions above, so generated text always reparses.
"""

from __future__ import annotations

import random
from decimal import Decimal
from typing import Any, Union

from repro.errors import ReproError
from repro.sqlengine import ast_nodes as ast


def render_statement(stmt: ast.Statement) -> str:
    """Render any supported statement back to SQL."""
    if isinstance(stmt, ast.SelectStatement):
        return render_select(stmt)
    if isinstance(stmt, ast.Insert):
        return _render_insert(stmt)
    if isinstance(stmt, ast.Update):
        return _render_update(stmt)
    if isinstance(stmt, ast.Delete):
        where = f" WHERE {render_expression(stmt.where)}" if stmt.where else ""
        return f"DELETE FROM {stmt.table}{where}"
    if isinstance(stmt, ast.CreateView):
        columns = f" ({', '.join(stmt.column_names)})" if stmt.column_names else ""
        return f"CREATE VIEW {stmt.name}{columns} AS {render_select(stmt.query)}"
    if isinstance(stmt, ast.DropTable):
        return f"DROP TABLE {stmt.name}"
    if isinstance(stmt, ast.DropView):
        return f"DROP VIEW {stmt.name}"
    if isinstance(stmt, ast.DropIndex):
        return f"DROP INDEX {stmt.name}"
    if isinstance(stmt, ast.BeginTransaction):
        return "BEGIN"
    if isinstance(stmt, ast.Commit):
        return "COMMIT"
    if isinstance(stmt, ast.Rollback):
        return f"ROLLBACK TO SAVEPOINT {stmt.savepoint}" if stmt.savepoint else "ROLLBACK"
    if isinstance(stmt, ast.Savepoint):
        return f"SAVEPOINT {stmt.name}"
    if isinstance(stmt, ast.CreateIndex):
        unique = "UNIQUE " if stmt.unique else ""
        clustered = "CLUSTERED " if stmt.clustered else ""
        return (
            f"CREATE {unique}{clustered}INDEX {stmt.name} ON {stmt.table} "
            f"({', '.join(stmt.columns)})"
        )
    if isinstance(stmt, ast.CreateTable):
        items = [_render_column_spec(column) for column in stmt.columns]
        items.extend(_render_table_constraint(c) for c in stmt.constraints)
        return f"CREATE TABLE {stmt.name} ({', '.join(items)})"
    if isinstance(stmt, ast.AlterTableAddColumn):
        return (
            f"ALTER TABLE {stmt.table} ADD COLUMN "
            f"{_render_column_spec(stmt.column)}"
        )
    raise ReproError(f"cannot render {type(stmt).__name__}")


def _render_type(type_name: str, type_args: tuple) -> str:
    first, second = type_args
    if first is not None and second is not None:
        return f"{type_name}({first},{second})"
    if first is not None:
        return f"{type_name}({first})"
    return type_name


def _render_column_spec(column: ast.ColumnSpec) -> str:
    parts = [column.name, _render_type(column.type_name, column.type_args)]
    if column.not_null:
        parts.append("NOT NULL")
    if column.primary_key:
        parts.append("PRIMARY KEY")
    if column.unique:
        parts.append("UNIQUE")
    if column.default is not None:
        parts.append(f"DEFAULT {render_expression(column.default)}")
    if column.check is not None:
        parts.append(f"CHECK ({render_expression(column.check)})")
    if column.references is not None:
        table, ref_column = column.references
        target = f"{table} ({ref_column})" if ref_column else table
        parts.append(f"REFERENCES {target}")
    return " ".join(parts)


def _render_table_constraint(constraint: ast.TableConstraint) -> str:
    prefix = f"CONSTRAINT {constraint.name} " if constraint.name else ""
    if constraint.kind == "CHECK":
        return f"{prefix}CHECK ({render_expression(constraint.check)})"
    text = f"{prefix}{constraint.kind} ({', '.join(constraint.columns)})"
    if constraint.kind == "FOREIGN KEY" and constraint.references is not None:
        table, columns = constraint.references
        target = f"{table} ({', '.join(columns)})" if columns else table
        text += f" REFERENCES {target}"
    return text


def _render_insert(stmt: ast.Insert) -> str:
    columns = f" ({', '.join(stmt.columns)})" if stmt.columns else ""
    if stmt.rows is not None:
        rows = ", ".join(
            "(" + ", ".join(render_expression(value) for value in row) + ")"
            for row in stmt.rows
        )
        return f"INSERT INTO {stmt.table}{columns} VALUES {rows}"
    return f"INSERT INTO {stmt.table}{columns} {render_select(stmt.query)}"


def _render_update(stmt: ast.Update) -> str:
    assignments = ", ".join(
        f"{column} = {render_expression(value)}" for column, value in stmt.assignments
    )
    where = f" WHERE {render_expression(stmt.where)}" if stmt.where else ""
    return f"UPDATE {stmt.table} SET {assignments}{where}"


def render_select(stmt: ast.SelectStatement) -> str:
    text = _render_body(stmt.body)
    if stmt.order_by:
        items = ", ".join(
            render_expression(item.expression) + (" DESC" if item.descending else "")
            for item in stmt.order_by
        )
        text += f" ORDER BY {items}"
    if stmt.limit is not None:
        text += f" LIMIT {stmt.limit}"
    return text


def _render_body(body: Union[ast.SelectCore, ast.SetOperation]) -> str:
    if isinstance(body, ast.SetOperation):
        op = body.op + (" ALL" if body.all else "")
        return f"({_render_body(body.left)}) {op} ({_render_body(body.right)})"
    return _render_core(body)


def _render_core(core: ast.SelectCore) -> str:
    parts = ["SELECT"]
    if core.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_render_select_item(item) for item in core.items))
    if core.from_items:
        parts.append("FROM " + ", ".join(_render_from_item(item) for item in core.from_items))
    if core.where is not None:
        parts.append("WHERE " + render_expression(core.where))
    if core.group_by:
        parts.append("GROUP BY " + ", ".join(render_expression(e) for e in core.group_by))
    if core.having is not None:
        parts.append("HAVING " + render_expression(core.having))
    return " ".join(parts)


def _render_select_item(item: ast.SelectItem) -> str:
    if isinstance(item.expression, ast.Star):
        return f"{item.expression.table}.*" if item.expression.table else "*"
    text = render_expression(item.expression)
    return f"{text} AS {item.alias}" if item.alias else text


def _render_from_item(item: ast.FromItem) -> str:
    if isinstance(item, ast.TableRef):
        return f"{item.name} {item.alias}" if item.alias else item.name
    if isinstance(item, ast.SubqueryRef):
        return f"({render_select(item.subquery)}) {item.alias}"
    if isinstance(item, ast.Join):
        left = _render_from_item(item.left)
        right = _render_from_item(item.right)
        if item.kind == "CROSS":
            return f"{left} CROSS JOIN {right}"
        keyword = {"INNER": "JOIN", "LEFT": "LEFT OUTER JOIN",
                   "RIGHT": "RIGHT OUTER JOIN", "FULL": "FULL OUTER JOIN"}[item.kind]
        return f"{left} {keyword} {right} ON {render_expression(item.condition)}"
    raise ReproError(f"cannot render from-item {type(item).__name__}")


def render_expression(expr: ast.Expression) -> str:
    if isinstance(expr, ast.Literal):
        return _render_literal(expr.value)
    if isinstance(expr, ast.ColumnRef):
        return expr.qualified
    if isinstance(expr, ast.Star):
        return "*"
    if isinstance(expr, ast.Parameter):
        return "?"
    if isinstance(expr, ast.BinaryOp):
        return (
            f"({render_expression(expr.left)} {expr.op} "
            f"{render_expression(expr.right)})"
        )
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return f"(NOT {render_expression(expr.operand)})"
        return f"({expr.op}{render_expression(expr.operand)})"
    if isinstance(expr, ast.FunctionCall):
        if expr.star:
            return f"{expr.name}(*)"
        distinct = "DISTINCT " if expr.distinct else ""
        args = ", ".join(render_expression(arg) for arg in expr.args)
        return f"{expr.name}({distinct}{args})"
    if isinstance(expr, ast.CastExpr):
        first, second = expr.type_args
        if first is not None and second is not None:
            type_text = f"{expr.type_name}({first},{second})"
        elif first is not None:
            type_text = f"{expr.type_name}({first})"
        else:
            type_text = expr.type_name
        return f"CAST({render_expression(expr.operand)} AS {type_text})"
    if isinstance(expr, ast.CaseExpr):
        parts = ["CASE"]
        if expr.operand is not None:
            parts.append(render_expression(expr.operand))
        for when, then in expr.branches:
            parts.append(f"WHEN {render_expression(when)} THEN {render_expression(then)}")
        if expr.else_result is not None:
            parts.append(f"ELSE {render_expression(expr.else_result)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(expr, ast.IsNullPredicate):
        negation = " NOT" if expr.negated else ""
        return f"({render_expression(expr.operand)} IS{negation} NULL)"
    if isinstance(expr, ast.BetweenPredicate):
        negation = "NOT " if expr.negated else ""
        return (
            f"({render_expression(expr.operand)} {negation}BETWEEN "
            f"{render_expression(expr.low)} AND {render_expression(expr.high)})"
        )
    if isinstance(expr, ast.LikePredicate):
        negation = "NOT " if expr.negated else ""
        escape = f" ESCAPE {render_expression(expr.escape)}" if expr.escape else ""
        return (
            f"({render_expression(expr.operand)} {negation}LIKE "
            f"{render_expression(expr.pattern)}{escape})"
        )
    if isinstance(expr, ast.InPredicate):
        negation = "NOT " if expr.negated else ""
        if expr.subquery is not None:
            inner = render_select(expr.subquery)
        else:
            inner = ", ".join(render_expression(value) for value in expr.values)
        return f"({render_expression(expr.operand)} {negation}IN ({inner}))"
    if isinstance(expr, ast.ExistsPredicate):
        negation = "NOT " if expr.negated else ""
        return f"({negation}EXISTS ({render_select(expr.subquery)}))"
    if isinstance(expr, ast.ScalarSubquery):
        return f"({render_select(expr.subquery)})"
    raise ReproError(f"cannot render expression {type(expr).__name__}")


def _render_literal(value) -> str:
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, (int, Decimal)):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    raise ReproError(f"cannot render literal {value!r}")

# -- NULL-rich predicate generation ------------------------------------------

#: The hunt schema: ``hunt`` is the table predicates range over (three
#: nullable columns, one NOT NULL); ``decoy`` exists so static
#: minimization has something to drop from repro scripts.
HUNT_TABLE = (
    "CREATE TABLE hunt (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, "
    "c VARCHAR(8), d INTEGER NOT NULL)"
)
DECOY_TABLE = "CREATE TABLE decoy (k INTEGER PRIMARY KEY, note VARCHAR(8))"

_NUMERIC_COLUMNS = ("a", "b", "d")
_STRING_VALUES = ("a", "b", "ab", "abc", "x", "")
_LIKE_PATTERNS = ("a%", "%b", "%a%", "ab", "_b%")

#: Probability that a generated nullable column value is NULL.
NULL_RATE = 0.3


class PredicateGenerator:
    """Deterministic NULL-rich query generation for the hunt campaign.

    One instance owns a private :class:`random.Random` stream, the
    generated row set (for PQS-style pivot picking), and the schema
    script.  Generated predicates stay inside the universally-portable
    SQL subset except for CASE (gated off Interbase) — callers filter
    per product with the static portability verdict.
    """

    def __init__(self, *, seed: int = 0, rows: int = 24) -> None:
        self._rng = random.Random(seed)
        self.rows: list[dict[str, Any]] = []
        for index in range(1, rows + 1):
            self.rows.append(
                {
                    "id": index,
                    "a": self._maybe_null(self._small_int),
                    "b": self._maybe_null(self._small_int),
                    "c": self._maybe_null(
                        lambda: self._rng.choice(_STRING_VALUES)
                    ),
                    "d": self._rng.randint(0, 9),
                }
            )

    def _maybe_null(self, make):
        return None if self._rng.random() < NULL_RATE else make()

    def _small_int(self) -> int:
        return self._rng.randint(-5, 9)

    # -- schema ------------------------------------------------------------

    def schema_statements(self) -> list[str]:
        """DDL plus NULL-rich INSERTs (and decoy traffic) for the hunt."""
        statements = [HUNT_TABLE, DECOY_TABLE]
        for row in self.rows:
            values = ", ".join(
                _render_literal(row[column]) for column in ("id", "a", "b", "c", "d")
            )
            statements.append(
                f"INSERT INTO hunt (id, a, b, c, d) VALUES ({values})"
            )
        for index in range(1, 5):
            statements.append(
                f"INSERT INTO decoy (k, note) VALUES ({index}, 'n{index}')"
            )
        return statements

    # -- predicate grammar -------------------------------------------------

    def _numeric_term(self, depth: int) -> ast.Expression:
        roll = self._rng.random()
        if depth <= 0 or roll < 0.45:
            return ast.ColumnRef(self._rng.choice(_NUMERIC_COLUMNS))
        if roll < 0.7:
            return ast.Literal(self._small_int())
        if roll < 0.8:
            return ast.Literal(None)
        op = self._rng.choice(("+", "-", "*"))
        return ast.BinaryOp(
            op, self._numeric_term(depth - 1), self._numeric_term(depth - 1)
        )

    def _comparison(self, depth: int) -> ast.Expression:
        op = self._rng.choice(("=", "<>", "<", "<=", ">", ">="))
        if self._rng.random() < 0.2:
            left: ast.Expression = ast.ColumnRef("c")
            right: ast.Expression = ast.Literal(
                None
                if self._rng.random() < 0.2
                else self._rng.choice(_STRING_VALUES)
            )
        else:
            left = self._numeric_term(depth)
            right = self._numeric_term(depth)
        return ast.BinaryOp(op, left, right)

    def _leaf(self, depth: int, *, allow_case: bool) -> ast.Expression:
        roll = self._rng.random()
        if roll < 0.45:
            return self._comparison(depth)
        if roll < 0.6:
            operand: ast.Expression = (
                self._numeric_term(depth)
                if self._rng.random() < 0.6
                else ast.ColumnRef(self._rng.choice(("a", "b", "c")))
            )
            return ast.IsNullPredicate(operand, negated=self._rng.random() < 0.3)
        if roll < 0.72:
            return ast.BetweenPredicate(
                self._numeric_term(depth),
                ast.Literal(self._small_int()),
                ast.Literal(self._small_int()),
                negated=self._rng.random() < 0.3,
            )
        if roll < 0.86:
            values: list[ast.Expression] = [
                ast.Literal(self._small_int())
                for _ in range(self._rng.randint(1, 3))
            ]
            if self._rng.random() < 0.5:
                values.append(ast.Literal(None))
            return ast.InPredicate(
                ast.ColumnRef(self._rng.choice(_NUMERIC_COLUMNS)),
                values=values,
                negated=self._rng.random() < 0.4,
            )
        if roll < 0.94 or not allow_case:
            return ast.LikePredicate(
                ast.ColumnRef("c"),
                ast.Literal(self._rng.choice(_LIKE_PATTERNS)),
                negated=self._rng.random() < 0.3,
            )
        # Searched CASE used as a predicate, arms falling through to
        # NULL or answering UNKNOWN outright.
        branches = [
            (self._comparison(depth), ast.Literal(True)),
            (
                ast.IsNullPredicate(
                    ast.ColumnRef(self._rng.choice(("a", "b", "c")))
                ),
                ast.Literal(self._rng.choice((None, False))),
            ),
        ]
        else_result = self._rng.choice(
            (ast.Literal(False), ast.Literal(None), None)
        )
        return ast.CaseExpr(None, branches, else_result)

    def predicate(self, depth: int = 2, *, allow_case: bool = True) -> ast.Expression:
        """One random NULL-rich boolean expression."""
        if depth <= 0:
            return self._leaf(0, allow_case=allow_case)
        roll = self._rng.random()
        if roll < 0.35:
            return ast.BinaryOp(
                self._rng.choice(("AND", "OR")),
                self.predicate(depth - 1, allow_case=allow_case),
                self.predicate(depth - 1, allow_case=allow_case),
            )
        if roll < 0.5:
            return ast.UnaryOp(
                "NOT", self.predicate(depth - 1, allow_case=allow_case)
            )
        return self._leaf(depth, allow_case=allow_case)

    # -- statement generation ------------------------------------------------

    def select_statement(self, *, allow_case: bool = True) -> str:
        """A hunt SELECT with a fresh random WHERE predicate."""
        where = self.predicate(2, allow_case=allow_case)
        stmt = ast.SelectStatement(
            body=ast.SelectCore(
                items=[
                    ast.SelectItem(ast.ColumnRef(name))
                    for name in ("id", "a", "b", "c", "d")
                ],
                from_items=[ast.TableRef("hunt")],
                where=where,
            )
        )
        return render_statement(stmt)

    def pivot_case(self) -> tuple[str, int]:
        """A PQS-style pivot query: ``(sql, pivot id)``.

        The predicate is constructed to be TRUE on the chosen pivot row
        (per-column equality, with ``IS NULL`` standing in for NULL
        cells), so the pivot row must appear in the result on every
        correct product.
        """
        pivot = self._rng.choice(self.rows)
        columns = list(self._rng.sample(("a", "b", "c", "d"), self._rng.randint(2, 3)))
        conjuncts: list[ast.Expression] = []
        for column in columns:
            value = pivot[column]
            if value is None:
                conjuncts.append(ast.IsNullPredicate(ast.ColumnRef(column)))
            else:
                conjuncts.append(
                    ast.BinaryOp("=", ast.ColumnRef(column), ast.Literal(value))
                )
        where: ast.Expression = conjuncts[0]
        for conjunct in conjuncts[1:]:
            where = ast.BinaryOp("AND", where, conjunct)
        if self._rng.random() < 0.3:
            # OR-ing noise keeps the pivot row selected.
            where = ast.BinaryOp(
                "OR", where, self.predicate(1, allow_case=False)
            )
        stmt = ast.SelectStatement(
            body=ast.SelectCore(
                items=[ast.SelectItem(ast.ColumnRef("id"))],
                from_items=[ast.TableRef("hunt")],
                where=where,
            )
        )
        return render_statement(stmt), pivot["id"]
