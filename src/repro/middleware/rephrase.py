"""Query rephrasing: fault tolerance *without* diversity.

Section 7 of the paper lists, as an alternative to diverse servers,
"wrappers rephrasing queries into alternative, logically equivalent
sets of statements to be sent to replicated, even non-diverse servers".
The idea: a bug's failure region is usually syntax-shaped, so running a
*different spelling* of the same query may dodge the bug; disagreement
between the original and the rephrased answers detects the failure on a
single (or non-diverse) deployment.

:class:`QueryRephraser` applies semantics-preserving rewrites:

* ``x [NOT] IN ((A) UNION (B))``  →  ``x [NOT] IN (A) OR/AND x [NOT] IN (B)``
* ``x BETWEEN a AND b``           →  ``x >= a AND x <= b`` (NOT likewise)
* ``x <> y``                      →  ``NOT (x = y)``
* ``a AND b`` / ``a OR b``        →  operand commutation
* ``x IN (v1, v2, ...)``          →  ``x = v1 OR x = v2 OR ...``

All rewrites are exact under SQL three-valued logic (``NOT IN`` over a
UNION distributes to a conjunction of ``NOT IN``; UNKNOWN propagates
identically).

:class:`RephrasingWrapper` wraps one server: SELECTs run in both
spellings and the normalised answers are compared; everything else
passes through.  The corpus shows both its power (it detects the
PG-43 family, whose failure region is the *nesting shape*) and its
limits (bugs triggered by the data touched, not the spelling, produce
the same wrong answer twice — which diversity would catch).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

from repro.errors import AdjudicationFailure, SqlError
from repro.middleware.normalizer import normalize_result
from repro.servers.product import ServerProduct
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.engine import Result
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.sqlgen import render_statement


class QueryRephraser:
    """Applies semantics-preserving rewrites to SELECT statements."""

    def rephrase(self, stmt: ast.SelectStatement) -> ast.SelectStatement:
        """An equivalent statement with a different syntactic shape.

        The input is not modified; the result may equal the input
        textually when no rewrite applies.
        """
        clone = copy.deepcopy(stmt)
        self._rewrite_select(clone)
        return clone

    def rephrase_sql(self, sql: str) -> str:
        stmt = parse_statement(sql)
        if not isinstance(stmt, ast.SelectStatement):
            raise SqlError("only SELECT statements can be rephrased")
        return render_statement(self.rephrase(stmt))

    # -- tree rewriting ------------------------------------------------------

    def _rewrite_select(self, stmt: ast.SelectStatement) -> None:
        self._rewrite_body(stmt.body)

    def _rewrite_body(self, body) -> None:
        if isinstance(body, ast.SetOperation):
            self._rewrite_body(body.left)
            self._rewrite_body(body.right)
            return
        core: ast.SelectCore = body
        if core.where is not None:
            core.where = self._rewrite_expression(core.where)
        if core.having is not None:
            core.having = self._rewrite_expression(core.having)
        for item in core.from_items:
            self._rewrite_from_item(item)

    def _rewrite_from_item(self, item: ast.FromItem) -> None:
        if isinstance(item, ast.SubqueryRef):
            self._rewrite_select(item.subquery)
        elif isinstance(item, ast.Join):
            self._rewrite_from_item(item.left)
            self._rewrite_from_item(item.right)
            if item.condition is not None:
                item.condition = self._rewrite_expression(item.condition)

    def _rewrite_expression(self, expr: ast.Expression) -> ast.Expression:
        if isinstance(expr, ast.BinaryOp):
            expr.left = self._rewrite_expression(expr.left)
            expr.right = self._rewrite_expression(expr.right)
            if expr.op in ("AND", "OR"):
                # Commute: different parse shape, same 3VL semantics.
                expr.left, expr.right = expr.right, expr.left
                return expr
            if expr.op == "<>":
                return ast.UnaryOp(
                    op="NOT", operand=ast.BinaryOp(op="=", left=expr.left, right=expr.right)
                )
            return expr
        if isinstance(expr, ast.UnaryOp):
            expr.operand = self._rewrite_expression(expr.operand)
            return expr
        if isinstance(expr, ast.BetweenPredicate):
            operand = self._rewrite_expression(expr.operand)
            low = self._rewrite_expression(expr.low)
            high = self._rewrite_expression(expr.high)
            spread = ast.BinaryOp(
                op="AND",
                left=ast.BinaryOp(op=">=", left=operand, right=low),
                right=ast.BinaryOp(op="<=", left=copy.deepcopy(operand), right=high),
            )
            if expr.negated:
                return ast.UnaryOp(op="NOT", operand=spread)
            return spread
        if isinstance(expr, ast.InPredicate):
            return self._rewrite_in(expr)
        if isinstance(expr, ast.ExistsPredicate):
            self._rewrite_select(expr.subquery)
            return expr
        if isinstance(expr, ast.ScalarSubquery):
            self._rewrite_select(expr.subquery)
            return expr
        if isinstance(expr, ast.LikePredicate):
            expr.operand = self._rewrite_expression(expr.operand)
            return expr
        return expr

    def _rewrite_in(self, expr: ast.InPredicate) -> ast.Expression:
        expr.operand = self._rewrite_expression(expr.operand)
        if expr.values is not None:
            # IN-list -> chain of equalities (UNKNOWN semantics match:
            # x IN (a, b) == (x = a) OR (x = b) in SQL 3VL).
            chain: Optional[ast.Expression] = None
            for value in expr.values:
                equal = ast.BinaryOp(op="=", left=copy.deepcopy(expr.operand), right=value)
                chain = equal if chain is None else ast.BinaryOp(op="OR", left=chain, right=equal)
            if chain is None:  # pragma: no cover - grammar forbids empty lists
                return expr
            if expr.negated:
                return ast.UnaryOp(op="NOT", operand=chain)
            return chain
        # Subquery form: distribute over a top-level UNION.
        self._rewrite_select(expr.subquery)
        body = expr.subquery.body
        if isinstance(body, ast.SetOperation) and body.op == "UNION" and not body.all:
            left_stmt = ast.SelectStatement(body=body.left)
            right_stmt = ast.SelectStatement(body=body.right)
            left_in = ast.InPredicate(
                operand=expr.operand, subquery=left_stmt, negated=expr.negated
            )
            right_in = ast.InPredicate(
                operand=copy.deepcopy(expr.operand), subquery=right_stmt,
                negated=expr.negated,
            )
            # x IN (A UNION B) == x IN A OR x IN B;
            # x NOT IN (A UNION B) == x NOT IN A AND x NOT IN B.
            op = "AND" if expr.negated else "OR"
            return ast.BinaryOp(op=op, left=left_in, right=right_in)
        return expr


@dataclass
class RephraserStats:
    disagreements: int = 0
    masked_errors: int = 0


class RephrasingWrapper:
    """Single-server fault tolerance by redundant spellings.

    Each SELECT runs twice — original and rephrased — on the *same*
    server.  Normalised disagreement raises
    :class:`~repro.errors.AdjudicationFailure` (detection); a spurious
    error on one spelling with the other succeeding is *masked* by
    returning the succeeding answer (the recovery mode reference [9]
    envisages).  Non-SELECT statements pass through unchanged.
    """

    def __init__(self, server: ServerProduct) -> None:
        self.server = server
        self.rephraser = QueryRephraser()
        self.stats = RephraserStats()

    def execute(self, sql: str) -> Result:
        stmt = parse_statement(sql)
        if not isinstance(stmt, ast.SelectStatement):
            return self.server.execute(sql)
        alternative_sql = render_statement(self.rephraser.rephrase(stmt))

        original_error: Optional[SqlError] = None
        original: Optional[Result] = None
        try:
            original = self.server.execute(sql)
        except SqlError as error:
            original_error = error
        try:
            alternative: Optional[Result] = self.server.execute(alternative_sql)
        except SqlError:
            alternative = None

        if original is not None and alternative is not None:
            if normalize_result(original.columns, original.rows) != normalize_result(
                alternative.columns, alternative.rows
            ):
                self.stats.disagreements += 1
                raise AdjudicationFailure(
                    "original and rephrased queries disagree on the same server"
                )
            return original
        if original is not None:  # rephrased spelling errored
            self.stats.disagreements += 1
            raise AdjudicationFailure(
                "rephrased query failed where the original succeeded"
            )
        if alternative is not None:  # original errored; rephrasing dodged the bug
            self.stats.masked_errors += 1
            return alternative
        raise original_error  # both spellings error: genuine client error
