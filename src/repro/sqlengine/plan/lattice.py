"""The one value lattice: everything the static analyses know an
expression can be.

An :class:`AbstractValue` is a sound over-approximation of the values
one expression evaluates to under the compiled evaluator
(:mod:`repro.sqlengine.plan.compiler`):

* a **category** — int, decimal, float, char, varchar, date, timestamp,
  bool, null or unknown — from which the comparison **kind** that
  ``values.sql_compare`` reconciles on follows through one table,
  :data:`CATEGORY_KIND`;
* **nullability** — whether it can (or must) evaluate to NULL;
* an **interval** of numeric bounds, seeded from literals and refined
  through ``+``/``-``/``*`` and unary minus (declared integer/decimal
  types do *not* bound intervals: the engine casts without range
  enforcement, so a SMALLINT column can hold any integer);
* **may-raise** — whether evaluating it can raise an engine error.

An :class:`AbstractTruth` is the set of SQL three-valued outcomes a
boolean position can take (``None`` = UNKNOWN), plus may-raise.

The soundness contract: for any expression analyzed under an
environment whose facts hold for a concrete row, either the concrete
evaluation raises and ``may_raise`` is set, or the result is a member of
the truth set (boolean positions) and satisfies the value facts.  The
facts are product-independent — one conservative answer covers all four
profiles: ``||`` over a definitely-NULL operand is *nullable* but never
*definitely NULL*, because Oracle's profile yields a non-NULL string
where the others propagate NULL.  Categories are the declared-type view
the dialect-divergence triage reads; where the products differ they
take the widest reading (an integer division is a decimal, since Oracle
divides exactly).  Only arithmetic over exact categories (int, decimal,
bool) is free of overflow: float arithmetic refuses an infinite result.

:class:`Interpreter` computes both lattices over an environment that
answers for column references and ``?`` parameters
(``repro.analysis.predicates.PredicateEnv``).  The planner's own
totality gate (``rewrites.is_total``) is syntactic but reads the same
kind and comparison tables, so it never calls total what the
interpreter cannot prove total.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from decimal import Decimal
from typing import Any, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.functions import AGGREGATE_NAMES
from repro.sqlengine.plan.compiler import CMP_OPERATORS
from repro.sqlengine.typenames import ALL_TYPE_NAMES, resolve_type
from repro.sqlengine.types import TypeFamily
from repro.sqlengine.values import tri_and, tri_not, tri_or

# --------------------------------------------------------------------------
# Categories and kinds
# --------------------------------------------------------------------------

#: Comparison kind of each category: the tag ``values.sql_compare``
#: reconciles values on ('n'/'s'/'d'/'b'); SQL NULL compares with
#: anything without raising, and an unknown category has no kind.
CATEGORY_KIND: dict[str, Optional[str]] = {
    "int": "n",
    "decimal": "n",
    "float": "n",
    "char": "s",
    "varchar": "s",
    "date": "d",
    "timestamp": "d",
    "bool": "b",
    "null": "null",
    "unknown": None,
}

#: Arithmetic that cannot overflow: float arithmetic refuses infinity.
_EXACT = frozenset({"int", "decimal", "bool"})

_FAMILY_CATEGORY = {
    TypeFamily.INTEGER: "int",
    TypeFamily.DECIMAL: "decimal",
    TypeFamily.FLOAT: "float",
    TypeFamily.CHARACTER: "varchar",
    TypeFamily.DATE: "date",
    TypeFamily.TIMESTAMP: "timestamp",
    TypeFamily.BOOLEAN: "bool",
}

#: Category of the values of each Python class in the SQL value domain
#: (subclasses before their bases).
CLASS_CATEGORY: dict[type, str] = {
    type(None): "null",
    bool: "bool",
    int: "int",
    float: "float",
    Decimal: "decimal",
    str: "varchar",
    datetime.datetime: "timestamp",
    datetime.date: "date",
}


def _category_of_type(sql_type) -> str:
    """Category of the values stored in a column of a declared type."""
    if sql_type.pad_char:
        return "char"
    return _FAMILY_CATEGORY.get(sql_type.family, "unknown")


#: Category of every type spelling the engine resolves; any other
#: spelling is one the engine rejects, so its category is unknown.
_TYPE_NAME_CATEGORY = {name: _category_of_type(resolve_type(name)) for name in ALL_TYPE_NAMES}
#: Comparison kind of each type family (CHAR and VARCHAR alike).
_FAMILY_KIND = {family: CATEGORY_KIND[category] for family, category in _FAMILY_CATEGORY.items()}


def category_of_type_name(name: str) -> str:
    """Category of a declared type spelling."""
    return _TYPE_NAME_CATEGORY.get(name.upper(), "unknown")


def category_of_class(cls: type) -> str:
    """Category of every value of Python class ``cls``; "unknown" for a
    class outside the SQL value domain."""
    category = CLASS_CATEGORY.get(cls)
    if category is None:
        category = next(
            (found for base, found in CLASS_CATEGORY.items() if issubclass(cls, base)),
            "unknown",
        )
    return category


def kind_of_type(sql_type) -> Optional[str]:
    """Comparison kind of the values stored in a column of a declared
    type."""
    return _FAMILY_KIND.get(sql_type.family)


def kind_of_class(cls: type) -> Optional[str]:
    """Comparison kind of every value of Python class ``cls``: SQL NULL
    (``NoneType``) is ``"null"``, a class outside the SQL value domain
    None."""
    return CATEGORY_KIND[category_of_class(cls)]


#: How ``sql_compare`` reconciles two kinds: ``"total"`` never raises,
#: ``"partial"`` parses a string and raises when it does not parse; a
#: pair missing from the table always raises.
COMPARE: dict[tuple, str] = {}
for _left, _right, _how in (
    ("n", "n", "total"),
    ("s", "s", "total"),
    ("d", "d", "total"),
    ("b", "b", "total"),
    ("n", "b", "total"),
    ("n", "s", "partial"),
    ("d", "s", "partial"),
):
    COMPARE[_left, _right] = COMPARE[_right, _left] = _how
for _kind in ("n", "s", "d", "b", "null"):
    COMPARE[_kind, "null"] = COMPARE["null", _kind] = "total"


#: Numeric categories, widest first.
_NUMERIC = ("float", "decimal", "int")


def _widest(categories) -> str:
    """The widest numeric category among ``categories``; unknown when
    none is numeric."""
    return next((category for category in _NUMERIC if category in categories), "unknown")


_CATEGORIES = tuple(CATEGORY_KIND)
#: Category of ``left op right`` for ``+``, ``-``, ``*`` and ``%``: the
#: widest numeric operand, unknown when neither operand is numeric.
_ARITHMETIC_CATEGORY = {
    (left, right): _widest((left, right)) for left in _CATEGORIES for right in _CATEGORIES
}


def _join_categories(categories) -> str:
    """One category covering values of all ``categories``: the shared
    one, the widest when all are numeric, "null" when there are only
    NULLs, else unknown."""
    found = {category for category in categories if category != "null"}
    if len(found) <= 1:
        return found.pop() if found else "null"
    return _widest(found) if found <= set(_NUMERIC) else "unknown"


# --------------------------------------------------------------------------
# Intervals
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Closed numeric interval; a ``None`` bound is unbounded."""

    low: Optional[Any] = None
    high: Optional[Any] = None

    @classmethod
    def point(cls, value: Any) -> "Interval":
        return cls(value, value)

    def contains(self, value: Any) -> bool:
        if isinstance(value, bool):
            value = int(value)
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    def join(self, other: "Interval") -> "Interval":
        low = None
        if self.low is not None and other.low is not None:
            low = min(self.low, other.low)
        high = None
        if self.high is not None and other.high is not None:
            high = max(self.high, other.high)
        return Interval(low, high)


TOP_INTERVAL = Interval()
#: Booleans coerce to 0/1 in numeric positions.
BOOL_INTERVAL = Interval(0, 1)


def _iv_neg(a: Interval) -> Interval:
    return Interval(
        -a.high if a.high is not None else None,
        -a.low if a.low is not None else None,
    )


def _iv_add(a: Interval, b: Interval) -> Interval:
    low = a.low + b.low if a.low is not None and b.low is not None else None
    high = a.high + b.high if a.high is not None and b.high is not None else None
    return Interval(low, high)


def _iv_sub(a: Interval, b: Interval) -> Interval:
    low = a.low - b.high if a.low is not None and b.high is not None else None
    high = a.high - b.low if a.high is not None and b.low is not None else None
    return Interval(low, high)


def _iv_mul(a: Interval, b: Interval) -> Interval:
    bounds = (a.low, a.high, b.low, b.high)
    if any(bound is None for bound in bounds):
        return TOP_INTERVAL
    products = [a.low * b.low, a.low * b.high, a.high * b.low, a.high * b.high]
    return Interval(min(products), max(products))


_INTERVAL_OPS = {"+": _iv_add, "-": _iv_sub, "*": _iv_mul}


def possible_signs(a: Interval, b: Interval) -> frozenset:
    """Possible outcomes of ``sql_compare`` (-1/0/1) between a value in
    ``a`` and a value in ``b``."""
    signs = set()
    if a.low is None or b.high is None or a.low < b.high:
        signs.add(-1)
    overlap_low = a.low is None or b.high is None or a.low <= b.high
    overlap_high = b.low is None or a.high is None or b.low <= a.high
    if overlap_low and overlap_high:
        signs.add(0)
    if a.high is None or b.low is None or a.high > b.low:
        signs.add(1)
    return frozenset(signs)


# --------------------------------------------------------------------------
# Abstract values and truths
# --------------------------------------------------------------------------

Truth = Optional[bool]
TruthSet = frozenset

#: The three-valued truth lattice's named elements.
ALWAYS_TRUE: TruthSet = frozenset({True})
ALWAYS_UNKNOWN: TruthSet = frozenset({None})
BOOL_TRUTH: TruthSet = frozenset({True, False})
TOP_TRUTH: TruthSet = frozenset({True, False, None})


@dataclass(frozen=True)
class AbstractValue:
    """Lattice facts about one value expression; its comparison kind is
    ``CATEGORY_KIND[category]``."""

    category: str = "unknown"
    nullable: bool = True           # may evaluate to NULL
    definitely_null: bool = False   # evaluates to NULL whenever it evaluates
    interval: Interval = TOP_INTERVAL
    may_raise: bool = False         # evaluation may raise an engine error


#: Unknown everything: the value-lattice top.
TOP_VALUE = AbstractValue(may_raise=True)
#: The NULL literal.
NULL_VALUE = AbstractValue("null", definitely_null=True)


@dataclass(frozen=True)
class AbstractTruth:
    """Lattice facts about one boolean position: the set of three-valued
    outcomes it can produce, plus whether it can raise instead."""

    truth: TruthSet
    may_raise: bool = False

    @property
    def always_true(self) -> bool:
        return self.truth == ALWAYS_TRUE and not self.may_raise

    @property
    def never_true(self) -> bool:
        return True not in self.truth and bool(self.truth) and not self.may_raise

    @property
    def total(self) -> bool:
        """Proven to evaluate without raising on every row."""
        return not self.may_raise

    def describe(self) -> str:
        names = {True: "TRUE", False: "FALSE", None: "UNKNOWN"}
        members = "{" + ", ".join(
            names[item] for item in (True, False, None) if item in self.truth
        ) + "}"
        return members + (" (may raise)" if self.may_raise else "")


TOP_ABSTRACT_TRUTH = AbstractTruth(TOP_TRUTH, may_raise=True)
_ALL_SIGNS = frozenset({-1, 0, 1})


def _truth_of_value(value: AbstractValue) -> AbstractTruth:
    """Boolean coercion of an abstract value, mirroring the compiled
    ``_tribool`` (NULL passes through, non-bool raises)."""
    possible = set()
    may_raise = value.may_raise
    if value.nullable:
        possible.add(None)
    if not value.definitely_null:
        kind = CATEGORY_KIND[value.category]
        if kind == "b":
            possible.update((True, False))
        elif kind is None:
            possible.update((True, False))
            may_raise = True
        else:
            may_raise = True  # a non-NULL non-boolean always raises
    return AbstractTruth(frozenset(possible), may_raise)


def _value_of_truth(truth: AbstractTruth) -> AbstractValue:
    """A boolean predicate used as a value."""
    return AbstractValue(
        "bool",
        nullable=None in truth.truth,
        definitely_null=bool(truth.truth) and truth.truth <= ALWAYS_UNKNOWN,
        interval=BOOL_INTERVAL,
        may_raise=truth.may_raise,
    )


def _join_values(values: list, *, extra_raise: bool = False) -> AbstractValue:
    """Least upper bound of possible results (CASE branch join)."""
    if not values:
        # No branch can produce a value: evaluation cannot complete.
        return AbstractValue(nullable=False, may_raise=True)
    category = _join_categories(value.category for value in values)
    interval = values[0].interval
    for value in values[1:]:
        interval = interval.join(value.interval)
    return AbstractValue(
        category,
        nullable=any(value.nullable for value in values),
        definitely_null=all(value.definitely_null for value in values),
        interval=interval if CATEGORY_KIND[category] == "n" else TOP_INTERVAL,
        may_raise=extra_raise or any(value.may_raise for value in values),
    )


# --------------------------------------------------------------------------
# The interpreter
# --------------------------------------------------------------------------

#: Scalar functions whose result category is fixed (None: the first
#: argument's); each returns NULL exactly when an argument is NULL.
_SCALAR_CATEGORY: dict[str, Optional[str]] = {
    "UPPER": "varchar",
    "LOWER": "varchar",
    "TRIM": "varchar",
    "SUBSTR": "varchar",
    "SUBSTRING": "varchar",
    "MOD": "int",
    "LENGTH": "int",
    "CHAR_LENGTH": "int",
    "ABS": None,
    "ROUND": None,
}


class Interpreter:
    """One environment's abstract-interpretation pass.

    ``env`` answers ``lookup(column_ref)`` and ``parameter(index)`` with
    an :class:`AbstractValue` (:data:`TOP_VALUE` when it cannot tell).
    """

    def __init__(self, env) -> None:
        self.env = env

    # -- truth lattice -----------------------------------------------------

    def truth(self, expr: ast.Expression) -> AbstractTruth:
        if isinstance(expr, ast.Literal):
            value = expr.value
            if value is None:
                return AbstractTruth(ALWAYS_UNKNOWN)
            if isinstance(value, bool):
                return AbstractTruth(frozenset({value}))
            return AbstractTruth(frozenset(), may_raise=True)
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            inner = self.truth(expr.operand)
            return AbstractTruth(
                frozenset(tri_not(item) for item in inner.truth), inner.may_raise
            )
        if isinstance(expr, ast.BinaryOp):
            if expr.op in ("AND", "OR"):
                connect = tri_and if expr.op == "AND" else tri_or
                left = self.truth(expr.left)
                right = self.truth(expr.right)
                # Both operands are always evaluated (no short-circuit in
                # the compiled AND/OR), so raise possibilities join.
                return AbstractTruth(
                    frozenset(
                        connect(a, b) for a in left.truth for b in right.truth
                    ),
                    left.may_raise or right.may_raise,
                )
            if expr.op in CMP_OPERATORS:
                return self.compare(
                    self.value(expr.left), self.value(expr.right), expr.op
                )
        if isinstance(expr, ast.IsNullPredicate):
            operand = self.value(expr.operand)
            if operand.definitely_null:
                truths: set[Truth] = {True}
            elif not operand.nullable:
                truths = {False}
            else:
                truths = {True, False}
            if expr.negated:
                truths = {not item for item in truths}
            return AbstractTruth(frozenset(truths), operand.may_raise)
        if isinstance(expr, ast.BetweenPredicate):
            return self._between(expr)
        if isinstance(expr, ast.InPredicate):
            return self._in_list(expr)
        if isinstance(expr, ast.LikePredicate):
            return self._like(expr)
        if isinstance(expr, ast.CaseExpr):
            return self._case(expr, "truth")
        if isinstance(expr, ast.ExistsPredicate):
            return AbstractTruth(BOOL_TRUTH, may_raise=True)
        if isinstance(expr, ast.Star):
            return AbstractTruth(frozenset(), may_raise=True)
        return _truth_of_value(self.value(expr))

    def compare(
        self, left: AbstractValue, right: AbstractValue, op: str
    ) -> AbstractTruth:
        """Abstract ``sql_compare`` plus the operator's sign test."""
        may_raise = left.may_raise or right.may_raise
        possible: set[Truth] = set()
        if left.nullable or right.nullable:
            possible.add(None)
        if left.definitely_null or right.definitely_null:
            return AbstractTruth(frozenset(possible), may_raise)
        left_kind = CATEGORY_KIND[left.category]
        right_kind = CATEGORY_KIND[right.category]
        how = COMPARE.get((left_kind, right_kind))
        signs = _ALL_SIGNS
        if left_kind is None or right_kind is None or how == "partial":
            may_raise = True
        elif how is None:
            # _reconcile raises for every other kind pair.
            return AbstractTruth(frozenset(possible), True)
        elif "n" in (left_kind, right_kind) and "null" not in (left_kind, right_kind):
            # Numbers, booleans bridged onto 0/1.
            left_iv = BOOL_INTERVAL if left_kind == "b" else left.interval
            right_iv = BOOL_INTERVAL if right_kind == "b" else right.interval
            signs = possible_signs(left_iv, right_iv)
        test = CMP_OPERATORS[op]
        for sign in signs:
            possible.add(test(sign, 0))
        return AbstractTruth(frozenset(possible), may_raise)

    def _between(self, expr: ast.BetweenPredicate) -> AbstractTruth:
        value = self.value(expr.operand)
        low = self.value(expr.low)
        high = self.value(expr.high)
        ge_low = self.compare(value, low, ">=")
        le_high = self.compare(value, high, "<=")
        truths = frozenset(
            tri_and(a, b) for a in ge_low.truth for b in le_high.truth
        )
        if expr.negated:
            truths = frozenset(tri_not(item) for item in truths)
        return AbstractTruth(truths, ge_low.may_raise or le_high.may_raise)

    def _in_list(self, expr: ast.InPredicate) -> AbstractTruth:
        if expr.values is None:
            return TOP_ABSTRACT_TRUTH  # IN (SELECT ...): beyond this layer
        value = self.value(expr.operand)
        equalities = [
            self.compare(value, self.value(item), "=") for item in expr.values
        ]
        may_raise = value.may_raise or any(eq.may_raise for eq in equalities)
        possible: set[Truth] = set()
        if value.nullable:
            possible.add(None)
        if not value.definitely_null:
            if not equalities:
                possible.add(False)
            else:
                if any(True in eq.truth for eq in equalities):
                    possible.add(True)
                # A no-match pass ends UNKNOWN if some candidate was
                # NULL, FALSE otherwise; both need every candidate to
                # offer a non-TRUE outcome.
                if all(eq.truth - ALWAYS_TRUE for eq in equalities):
                    if any(None in eq.truth for eq in equalities):
                        possible.add(None)
                    if all(False in eq.truth for eq in equalities):
                        possible.add(False)
        if expr.negated:
            possible = {tri_not(item) for item in possible}
        return AbstractTruth(frozenset(possible), may_raise)

    def _like(self, expr: ast.LikePredicate) -> AbstractTruth:
        value = self.value(expr.operand)
        pattern = self.value(expr.pattern)
        may_raise = value.may_raise or pattern.may_raise
        if expr.escape is not None:
            escape = self.value(expr.escape)
            may_raise = may_raise or escape.may_raise or not escape.definitely_null
        possible: set[Truth] = set()
        if value.nullable or pattern.nullable:
            possible.add(None)
        if not value.definitely_null and not pattern.definitely_null:
            value_kind = CATEGORY_KIND[value.category]
            pattern_kind = CATEGORY_KIND[pattern.category]
            if value_kind in (None, "s") and pattern_kind in (None, "s"):
                possible.update((True, False))
                if value_kind is None or pattern_kind is None:
                    may_raise = True
            else:
                may_raise = True  # non-string operands raise TypeMismatch
        if expr.negated:
            possible = {tri_not(item) for item in possible}
        return AbstractTruth(frozenset(possible), may_raise)

    def branch_condition(
        self, expr: ast.CaseExpr, when: ast.Expression
    ) -> AbstractTruth:
        """Truth of 'this CASE branch is taken' (taken iff TRUE)."""
        if expr.operand is None:
            return self.truth(when)
        # Simple CASE: taken iff subject = candidate is TRUE (both
        # non-NULL and comparing equal).
        return self.compare(self.value(expr.operand), self.value(when), "=")

    def _case(self, expr: ast.CaseExpr, mode: str):
        """Join of reachable branch results; ``mode`` is ``'truth'`` or
        ``'value'`` (selecting the lattice the branches are joined in)."""
        analyze = self.truth if mode == "truth" else self.value
        results = []
        may_raise = False
        reachable = True
        for when, then in expr.branches:
            condition = self.branch_condition(expr, when)
            may_raise = may_raise or condition.may_raise
            if reachable and True in condition.truth:
                results.append(analyze(then))
            if reachable and condition.always_true:
                reachable = False
        if reachable:
            if expr.else_result is not None:
                results.append(analyze(expr.else_result))
            else:
                results.append(
                    AbstractTruth(ALWAYS_UNKNOWN)
                    if mode == "truth"
                    else NULL_VALUE
                )
        if mode == "truth":
            truths = frozenset().union(*(result.truth for result in results))
            return AbstractTruth(
                truths, may_raise or any(result.may_raise for result in results)
            )
        return _join_values(results, extra_raise=may_raise)

    # -- value lattice -----------------------------------------------------

    def value(self, expr: ast.Expression) -> AbstractValue:
        if isinstance(expr, ast.Literal):
            return self._literal(expr.value)
        if isinstance(expr, ast.ColumnRef):
            return self.env.lookup(expr)
        if isinstance(expr, ast.Parameter):
            return self.env.parameter(expr.index)
        if isinstance(expr, ast.UnaryOp):
            return self._unary(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr)
        if isinstance(expr, ast.CastExpr):
            return self._cast(expr)
        if isinstance(expr, ast.CaseExpr):
            return self._case(expr, "value")
        if isinstance(
            expr,
            (
                ast.IsNullPredicate,
                ast.BetweenPredicate,
                ast.LikePredicate,
                ast.InPredicate,
            ),
        ):
            return _value_of_truth(self.truth(expr))
        if isinstance(expr, ast.ExistsPredicate):
            return AbstractValue(
                "bool", nullable=False, interval=BOOL_INTERVAL, may_raise=True
            )
        if isinstance(expr, ast.FunctionCall):
            return self._function(expr)
        return TOP_VALUE  # ScalarSubquery, Star, anything new

    def _literal(self, value: Any) -> AbstractValue:
        if value is None:
            return NULL_VALUE
        if isinstance(value, bool):
            return AbstractValue(
                "bool", nullable=False, interval=Interval.point(int(value))
            )
        if isinstance(value, (int, float, Decimal)):
            return AbstractValue(
                CLASS_CATEGORY[type(value)], nullable=False, interval=Interval.point(value)
            )
        if isinstance(value, str):
            return AbstractValue("varchar", nullable=False)
        return TOP_VALUE

    def _unary(self, expr: ast.UnaryOp) -> AbstractValue:
        if expr.op == "NOT":
            return _value_of_truth(self.truth(expr))
        operand = self.value(expr.operand)
        if expr.op == "+":
            return operand  # unary plus passes the operand through as-is
        # Unary minus: numeric coercion (strings parse, may raise).
        category = operand.category
        kind = CATEGORY_KIND[category]
        if kind == "n":
            interval = _iv_neg(operand.interval)
            may_raise = operand.may_raise
        elif kind == "b":
            category = "int"
            interval = _iv_neg(BOOL_INTERVAL)
            may_raise = operand.may_raise
        else:
            if kind == "s":
                category = "decimal"
            elif kind != "null":
                category = "unknown"
            interval = TOP_INTERVAL
            may_raise = True
        return AbstractValue(
            category,
            nullable=operand.nullable,
            definitely_null=operand.definitely_null,
            interval=interval,
            may_raise=may_raise,
        )

    def _binary(self, expr: ast.BinaryOp) -> AbstractValue:
        op = expr.op
        if op in ("AND", "OR") or op in CMP_OPERATORS:
            return _value_of_truth(self.truth(expr))
        left = self.value(expr.left)
        right = self.value(expr.right)
        may_raise = left.may_raise or right.may_raise
        nullable = left.nullable or right.nullable
        definitely_null = left.definitely_null or right.definitely_null
        if op == "||":
            # Product profiles split on NULL || x (propagate vs empty):
            # nullable when either side is, never definitely NULL.
            return AbstractValue(
                "varchar",
                nullable=nullable,
                definitely_null=False,
                may_raise=may_raise,
            )
        categories = (left.category, right.category)
        category = _ARITHMETIC_CATEGORY[categories]
        if op == "%":
            return AbstractValue(category, nullable=True, may_raise=True)
        # '+', '-', '*', '/': numeric coercion of both operands; only
        # exact operands are free of parse errors and float overflow.
        if left.category not in _EXACT or right.category not in _EXACT:
            may_raise = True
        left_kind = CATEGORY_KIND[left.category]
        right_kind = CATEGORY_KIND[right.category]
        if left_kind in ("n", "b") and right_kind in ("n", "b"):
            left_iv = BOOL_INTERVAL if left_kind == "b" else left.interval
            right_iv = BOOL_INTERVAL if right_kind == "b" else right.interval
        else:
            left_iv = right_iv = TOP_INTERVAL
        if op == "/":
            if categories == ("int", "int"):
                category = "decimal"  # Oracle divides exactly
            interval = TOP_INTERVAL
            if not right.definitely_null and right_iv.contains(0):
                may_raise = True  # DivisionByZero possible
        else:
            try:
                interval = _INTERVAL_OPS[op](left_iv, right_iv)
            except (TypeError, ArithmeticError):
                # A float bound meets a Decimal one (the engine widens
                # both to float) or an integer beyond the float range.
                interval = TOP_INTERVAL
        return AbstractValue(
            category,
            nullable=nullable,
            definitely_null=definitely_null,
            interval=interval,
            may_raise=may_raise,
        )

    def _cast(self, expr: ast.CastExpr) -> AbstractValue:
        operand = self.value(expr.operand)
        category = category_of_type_name(expr.type_name)
        # CAST(NULL AS t) is NULL without raising; any other operand can
        # fail conversion.
        may_raise = (
            operand.may_raise or category == "unknown" or not operand.definitely_null
        )
        return AbstractValue(
            category,
            nullable=operand.nullable,
            definitely_null=operand.definitely_null,
            may_raise=may_raise,
        )

    def _function(self, expr: ast.FunctionCall) -> AbstractValue:
        name = expr.name.upper()
        if name == "COUNT":
            return AbstractValue(
                "int",
                nullable=False,
                interval=Interval(0, None),
                may_raise=True,  # argument evaluation can still raise
            )
        if name in AGGREGATE_NAMES:  # NULL over an empty input
            if name == "AVG":
                return AbstractValue("decimal", may_raise=True)
            args = [self.value(arg) for arg in expr.args[:1]]
            return AbstractValue(
                args[0].category if args else "unknown", may_raise=True
            )
        if name in _SCALAR_CATEGORY:
            args = [self.value(arg) for arg in expr.args]
            category = _SCALAR_CATEGORY[name]
            if category is None:
                category = args[0].category if args else "int"
            nullable = any(arg.nullable for arg in args) if args else True
            return AbstractValue(category, nullable=nullable, may_raise=True)
        if name == "COALESCE":
            args = [self.value(arg) for arg in expr.args]
            category = _join_categories(arg.category for arg in args) if args else "unknown"
            nullable = all(arg.nullable for arg in args) if args else True
            return AbstractValue(category, nullable=nullable, may_raise=True)
        if name == "NULLIF":
            args = [self.value(arg) for arg in expr.args[:1]]
            return AbstractValue(
                args[0].category if args else "unknown", may_raise=True
            )
        return TOP_VALUE
