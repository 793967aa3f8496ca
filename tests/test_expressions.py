"""Expression evaluation unit tests (below the plans).

Every case runs twice: on the closure :mod:`repro.sqlengine.plan.compiler`
builds, which is what the engine runs, and on the reference walker's
:class:`~tests.reference.Evaluator`; the two must agree on the value
(type included) or on the error (class and message).
"""

from decimal import Decimal

import pytest

from repro.errors import BindError, SqlError, TypeMismatch
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.expressions import (
    ColumnBinding,
    collect_aggregates,
    contains_aggregate,
)
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.plan.compiler import Scope, compile_expression
from tests.reference import Environment, Evaluator

#: The row scope the lookups run in, and the scope enclosing it.
COLUMNS = [ColumnBinding("t", "a"), ColumnBinding("u", "a"), ColumnBinding("t", "b")]
OUTER = [ColumnBinding("o", "x")]


def expr_of(sql_fragment):
    stmt = parse_statement(f"SELECT {sql_fragment}")
    return stmt.body.items[0].expression


def _outcome(run):
    try:
        value = run()
    except SqlError as error:
        return ("error", type(error), str(error)), error
    return ("value", type(value), value), None


def both(expr, row=None, outer_row=None):
    """``expr`` on the compiled closure and on the reference evaluator:
    over :data:`COLUMNS` bound to ``row`` (no row at all when None),
    enclosed by :data:`OUTER` bound to ``outer_row`` when given.  The
    two must agree; returns the value or raises the error."""
    outer_scope = outer_env = None
    if outer_row is not None:
        outer_scope = Scope(OUTER)
        outer_scope.frame[0] = outer_row
        outer_env = Environment(OUTER, outer_row)
    if row is None:
        scope, env = Scope((), no_row=True), None
    else:
        scope = Scope(COLUMNS, outer=outer_scope)
        env = Environment(COLUMNS, row, outer=outer_env)
    compiled, error = _outcome(lambda: compile_expression(expr, scope)(row, None, None))
    reference, _ = _outcome(lambda: Evaluator(ctx=None).evaluate(expr, env))
    assert compiled == reference
    if error is not None:
        raise error
    return compiled[2]


def evaluate(sql_fragment):
    return both(expr_of(sql_fragment))


def lookup(name, table, outer_row=None):
    return both(ast.ColumnRef(name, table), row=(1, 2, 3), outer_row=outer_row)


class TestLiteralEvaluation:
    def test_scalars(self):
        assert evaluate("42") == 42
        assert evaluate("1.5") == Decimal("1.5")
        assert evaluate("'text'") == "text"
        assert evaluate("NULL") is None
        assert evaluate("TRUE") is True

    def test_arithmetic_tree(self):
        assert evaluate("2 + 3 * 4") == 14
        assert evaluate("(2 + 3) * 4") == 20
        assert evaluate("-(2 + 3)") == -5

    def test_comparison_chain_via_logic(self):
        assert evaluate("1 < 2 AND 2 < 3") is True
        assert evaluate("1 < 2 AND NULL IS NULL") is True
        assert evaluate("1 > 2 OR 3 > 2") is True

    def test_unknown_propagation(self):
        assert evaluate("NULL + 1") is None
        assert evaluate("NULL = NULL") is None
        assert evaluate("NOT (NULL = 1)") is None
        assert evaluate("NULL IS NULL") is True

    def test_boolean_condition_type_checked(self):
        with pytest.raises(TypeMismatch):
            evaluate("1 AND 2")


class TestEnvironmentLookup:
    def test_qualified_lookup(self):
        assert lookup("a", "t") == 1
        assert lookup("a", "u") == 2

    def test_unqualified_ambiguity(self):
        with pytest.raises(BindError, match="ambiguous"):
            lookup("a", None)

    def test_unqualified_unique(self):
        assert lookup("b", None) == 3

    def test_case_insensitive(self):
        assert lookup("B", "T") == 3

    def test_outer_chain(self):
        assert lookup("x", None, outer_row=(9,)) == 9
        assert lookup("x", "o", outer_row=(9,)) == 9

    def test_missing_column(self):
        with pytest.raises(BindError, match="unknown column"):
            lookup("zzz", None)

    def test_column_without_env(self):
        with pytest.raises(BindError):
            evaluate("some_col")


class TestCaseEvaluation:
    def test_searched_first_match_wins(self):
        assert evaluate("CASE WHEN 1 = 1 THEN 'a' WHEN 2 = 2 THEN 'b' END") == "a"

    def test_searched_else(self):
        assert evaluate("CASE WHEN 1 = 2 THEN 'a' ELSE 'z' END") == "z"

    def test_searched_no_match_no_else_is_null(self):
        assert evaluate("CASE WHEN 1 = 2 THEN 'a' END") is None

    def test_simple_form(self):
        assert evaluate("CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END") == "two"

    def test_simple_form_null_subject_never_matches(self):
        assert evaluate("CASE NULL WHEN NULL THEN 'x' ELSE 'y' END") == "y"

    def test_unknown_condition_skipped(self):
        assert evaluate("CASE WHEN NULL = 1 THEN 'a' ELSE 'b' END") == "b"


class TestPredicateEvaluation:
    def test_in_list_semantics(self):
        assert evaluate("2 IN (1, 2, 3)") is True
        assert evaluate("9 IN (1, 2, 3)") is False
        assert evaluate("9 IN (1, NULL)") is None
        assert evaluate("1 IN (1, NULL)") is True
        assert evaluate("NULL IN (1, 2)") is None

    def test_not_in_semantics(self):
        assert evaluate("9 NOT IN (1, 2)") is True
        assert evaluate("1 NOT IN (1, NULL)") is False
        assert evaluate("9 NOT IN (1, NULL)") is None

    def test_between(self):
        assert evaluate("2 BETWEEN 1 AND 3") is True
        assert evaluate("0 NOT BETWEEN 1 AND 3") is True
        assert evaluate("NULL BETWEEN 1 AND 3") is None
        assert evaluate("2 BETWEEN NULL AND 3") is None
        assert evaluate("0 BETWEEN NULL AND -1") is False  # FALSE dominates

    def test_like(self):
        assert evaluate("'hello' LIKE 'h%'") is True
        assert evaluate("'hello' NOT LIKE 'z%'") is True

    def test_is_null(self):
        assert evaluate("NULL IS NULL") is True
        assert evaluate("1 IS NOT NULL") is True

    def test_concat_and_cast(self):
        assert evaluate("'v' || 1") == "v1"
        assert evaluate("CAST('10' AS INTEGER) + 1") == 11
        assert evaluate("CAST(1.239 AS NUMERIC(5,2))") == Decimal("1.24")


class TestSubqueryGuards:
    def test_subquery_without_runner_rejected(self):
        with pytest.raises(BindError, match="subqueries"):
            evaluate("(SELECT 1)")

    def test_aggregate_outside_query_rejected(self):
        with pytest.raises(BindError, match="outside an aggregating query"):
            both(expr_of("SUM(a)"), row=(1, 2, 3))


class TestAggregateDetection:
    def test_collect_aggregates(self):
        expr = expr_of("SUM(a) + COUNT(*) * 2")
        found = collect_aggregates(expr)
        assert sorted(node.name for node in found) == ["COUNT", "SUM"]

    def test_subquery_boundary_not_crossed(self):
        expr = expr_of("1 + (SELECT SUM(a) FROM t)")
        assert not contains_aggregate(expr)

    def test_nested_function_arguments(self):
        assert contains_aggregate(expr_of("ABS(MIN(a))"))


class TestUpdateWithSubquery:
    def test_correlated_update_assignment(self, seeded_engine):
        seeded_engine.execute(
            "UPDATE product SET qty = (SELECT MAX(qty) FROM product) WHERE id = 1"
        )
        assert seeded_engine.execute(
            "SELECT qty FROM product WHERE id = 1"
        ).rows[0][0] == 100

    def test_update_where_subquery(self, seeded_engine):
        seeded_engine.execute(
            "UPDATE product SET price = 0 WHERE qty = (SELECT MIN(qty) FROM product)"
        )
        assert seeded_engine.execute(
            "SELECT price FROM product WHERE id = 2"
        ).rows[0][0] == Decimal("0.00")
