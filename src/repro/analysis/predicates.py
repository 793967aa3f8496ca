"""Ternary-logic predicate abstraction over ``sqlengine`` expressions.

Three cooperating lattices, each a sound over-approximation of the
concrete evaluator in :mod:`repro.sqlengine.expressions`:

* **Truth** — the set of SQL three-valued outcomes (``True``/``False``/
  ``None`` = UNKNOWN) a boolean expression can take.  The full set
  ``{T, F, U}`` is the lattice top.
* **Nullability** — whether a value expression can (or must) evaluate
  to NULL, seeded from ``ScriptSchema`` NOT NULL / PRIMARY KEY facts.
* **Intervals** — numeric bounds for kind-``n`` expressions, seeded
  from literals and refined through ``+``/``-``/``*`` and unary minus.
  Declared integer/decimal types do *not* bound intervals: the engine
  casts without range enforcement (see ``types._cast_to_integer``), so
  a SMALLINT column can legitimately hold any integer.

The soundness contract, relied on by the property tests and the TLP
certificates: for any expression ``e`` analyzed under an environment
built from the schema facts, and any concrete row consistent with those
facts, either the concrete evaluation raises and ``may_raise`` is True,
or the concrete result is a member of the abstract truth set (for
boolean positions) / satisfies the abstract value facts (kind,
nullability, interval).  The abstraction is product-independent — one
conservative answer covers all four profiles (IB/PG/OR/MS): e.g. ``||``
over a definitely-NULL operand is *nullable* but never
*definitely NULL*, because Oracle's ``null_concat='empty'`` profile
yields a non-NULL string where the others propagate NULL.

On top of the interpreter:

* :func:`tlp_partition` — the ternary-logic partitioning oracle
  (Rigger & Su): any analyzable SELECT with predicate ``p`` splits into
  ``p`` / ``NOT p`` / ``(p) IS NULL`` whose multiset union must equal
  the unpartitioned result, with a static certificate.
* :func:`certify_rewrites` — symbolic soundness certificates for every
  entry in :data:`repro.sqlengine.plan.REWRITE_RULES`; a rule with no
  certifier, or whose laws fail, is an error-severity lint finding.
* :func:`summarize_statement` — per-statement abstraction (WHERE truth,
  dead predicates, unreachable CASE arms, TLP triple) memoised by the
  middleware pipeline keyed on (text, generation).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Any, Iterable, Optional

from repro.analysis.schema import ScriptSchema
from repro.analysis.verdicts import VOLATILE_FUNCTIONS
from repro.errors import TypeMismatch
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.engine import Engine
from repro.sqlengine.expressions import contains_aggregate
from repro.sqlengine.functions import AGGREGATE_NAMES
from repro.sqlengine.plan import REWRITE_RULES, PhysicalSelect
from repro.sqlengine.plan.compiler import Scope, compile_expression
from repro.sqlengine.plan.logical import Filter, IndexLookup, kind_of_type
from repro.sqlengine.plan.physical import _join_key
from repro.sqlengine.plan.rewrites import _NO_FOLD, _fold_binary, _fold_unary
from repro.sqlengine.sqlgen import render_statement
from repro.sqlengine.typenames import resolve_type
from repro.sqlengine.values import sql_compare, sql_equal, tri_and, tri_not, tri_or

Truth = Optional[bool]
TruthSet = frozenset

#: The three-valued truth lattice's named elements.
ALWAYS_TRUE: TruthSet = frozenset({True})
ALWAYS_FALSE: TruthSet = frozenset({False})
ALWAYS_UNKNOWN: TruthSet = frozenset({None})
BOOL_TRUTH: TruthSet = frozenset({True, False})
TOP_TRUTH: TruthSet = frozenset({True, False, None})


def kind_of_type_name(name: str) -> Optional[str]:
    """Comparison kind ('n'/'s'/'d'/'b') of a declared type spelling."""
    try:
        return kind_of_type(resolve_type(name))
    except TypeMismatch:
        return None


def kind_of_literal(value: Any) -> Optional[str]:
    """Comparison kind of a parsed literal value (None for SQL NULL)."""
    if value is None:
        return None
    if isinstance(value, bool):
        return "b"
    if isinstance(value, (int, float, Decimal)):
        return "n"
    if isinstance(value, str):
        return "s"
    return None


# --------------------------------------------------------------------------
# Interval lattice
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


@dataclass(frozen=True)
class AbstractValue:
    """Lattice facts about one value expression."""

    kind: Optional[str] = None      # 'n'/'s'/'d'/'b'; None = unknown
    nullable: bool = True           # may evaluate to NULL
    definitely_null: bool = False   # evaluates to NULL whenever it evaluates
    interval: Interval = TOP_INTERVAL
    may_raise: bool = False         # evaluation may raise an engine error


#: Unknown everything: the value-lattice top.
TOP_VALUE = AbstractValue(kind=None, nullable=True, may_raise=True)
#: The NULL literal.
NULL_VALUE = AbstractValue(kind=None, nullable=True, definitely_null=True)


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


def _truth_of_value(value: AbstractValue) -> AbstractTruth:
    """Boolean coercion of an abstract value, mirroring the compiled
    ``_tribool`` (NULL passes through, non-bool raises)."""
    possible = set()
    may_raise = value.may_raise
    if value.nullable:
        possible.add(None)
    if not value.definitely_null:
        if value.kind == "b":
            possible.update((True, False))
        elif value.kind is None:
            possible.update((True, False))
            may_raise = True
        else:
            may_raise = True  # a non-NULL non-boolean always raises
    return AbstractTruth(frozenset(possible), may_raise)


def _value_of_truth(truth: AbstractTruth) -> AbstractValue:
    """A boolean predicate used as a value."""
    return AbstractValue(
        kind="b",
        nullable=None in truth.truth,
        definitely_null=bool(truth.truth) and truth.truth <= ALWAYS_UNKNOWN,
        interval=BOOL_INTERVAL,
        may_raise=truth.may_raise,
    )


# --------------------------------------------------------------------------
# Abstract row environments
# --------------------------------------------------------------------------

_AMBIGUOUS = object()


class PredicateEnv:
    """Abstract row environment: per-column lattice facts for the
    relations in scope, built from :class:`ScriptSchema`.

    Unresolvable references (unknown table, derived table, ambiguous
    unqualified name) widen to :data:`TOP_VALUE` — sound because TOP
    includes every outcome and ``may_raise``.
    """

    def __init__(self) -> None:
        self._facts: dict[tuple[Optional[str], str], Any] = {}
        self._opaque: set[Optional[str]] = set()

    # -- construction ------------------------------------------------------

    @classmethod
    def for_select(
        cls, core: ast.SelectCore, schema: Optional[ScriptSchema]
    ) -> "PredicateEnv":
        env = cls()
        schema = schema or ScriptSchema()
        outer_join = any(
            isinstance(item, ast.Join) and item.kind in ("LEFT", "RIGHT", "FULL")
            for item in core.from_items
        )
        for item in _flatten_from(core.from_items):
            if isinstance(item, ast.TableRef):
                env.add_table(
                    item.binding_name, item.name, schema, force_nullable=outer_join
                )
            else:  # SubqueryRef: columns unknown to this layer
                env._opaque.add(item.binding_name.lower())
                env._opaque.add(None)
        return env

    @classmethod
    def for_table(
        cls, table: str, schema: Optional[ScriptSchema]
    ) -> "PredicateEnv":
        env = cls()
        env.add_table(table, table, schema or ScriptSchema())
        return env

    def add_table(
        self,
        label: str,
        table_name: str,
        schema: ScriptSchema,
        *,
        force_nullable: bool = False,
    ) -> None:
        info = schema.table(table_name)
        if info is None:
            # A view or unknown relation: every lookup through it (and
            # every unqualified lookup that might land on it) widens.
            self._opaque.add(label.lower())
            self._opaque.add(None)
            return
        for column in info.columns:
            fact = schema.column_fact(table_name, column)
            type_name, nullable = fact if fact is not None else (None, True)
            value = AbstractValue(
                kind=kind_of_type_name(type_name) if type_name else None,
                nullable=nullable or force_nullable,
            )
            self._set((label.lower(), column), value)
            self._set((None, column), value)

    def _set(self, key: tuple[Optional[str], str], value: AbstractValue) -> None:
        if key in self._facts and self._facts[key] != value:
            self._facts[key] = _AMBIGUOUS
        else:
            self._facts[key] = value

    # -- lookup ------------------------------------------------------------

    def lookup(self, ref: ast.ColumnRef) -> AbstractValue:
        key = (ref.table.lower() if ref.table else None, ref.name.lower())
        if key[0] in self._opaque or (key[0] is None and None in self._opaque):
            return TOP_VALUE
        fact = self._facts.get(key)
        if fact is None or fact is _AMBIGUOUS:
            # Unknown column (BindError at runtime) or ambiguous
            # reference: widen rather than claim a definite error —
            # an enclosing query may still bind it.
            return TOP_VALUE
        return fact


def _flatten_from(items: Iterable[ast.FromItem]):
    for item in items:
        if isinstance(item, ast.Join):
            yield from _flatten_from((item.left, item.right))
        else:
            yield item


EMPTY_ENV = PredicateEnv()


# --------------------------------------------------------------------------
# The abstract interpreter
# --------------------------------------------------------------------------

_COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")

_SIGN_RESULT = {
    "=": lambda s: s == 0,
    "<>": lambda s: s != 0,
    "<": lambda s: s < 0,
    "<=": lambda s: s <= 0,
    ">": lambda s: s > 0,
    ">=": lambda s: s >= 0,
}

#: Kind pairs ``sql_compare`` reconciles without ever raising.
_TOTAL_COMPARE_KINDS = frozenset(
    {
        frozenset({"n"}),
        frozenset({"s"}),
        frozenset({"d"}),
        frozenset({"b"}),
        frozenset({"n", "b"}),
    }
)
#: Kind pairs that reconcile but can raise on unparseable values.
_PARTIAL_COMPARE_KINDS = frozenset(
    {frozenset({"n", "s"}), frozenset({"d", "s"})}
)


class _Interpreter:
    """One environment's abstract-interpretation pass."""

    def __init__(self, env: PredicateEnv) -> None:
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
            if expr.op in _COMPARISON_OPS:
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
        if left.kind is None or right.kind is None:
            may_raise = True
            signs: frozenset = frozenset({-1, 0, 1})
        else:
            kinds = frozenset({left.kind, right.kind})
            if kinds in _TOTAL_COMPARE_KINDS:
                if kinds == frozenset({"n"}):
                    signs = possible_signs(left.interval, right.interval)
                elif kinds == frozenset({"n", "b"}):
                    left_iv = left.interval if left.kind == "n" else BOOL_INTERVAL
                    right_iv = right.interval if right.kind == "n" else BOOL_INTERVAL
                    signs = possible_signs(left_iv, right_iv)
                else:
                    signs = frozenset({-1, 0, 1})
            elif kinds in _PARTIAL_COMPARE_KINDS:
                may_raise = True
                signs = frozenset({-1, 0, 1})
            else:
                # _reconcile raises for every other kind pair.
                return AbstractTruth(frozenset(possible), True)
        test = _SIGN_RESULT[op]
        for sign in signs:
            possible.add(test(sign))
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
            if value.kind in (None, "s") and pattern.kind in (None, "s"):
                possible.update((True, False))
                if value.kind is None or pattern.kind is None:
                    may_raise = True
            else:
                may_raise = True  # non-string operands raise TypeMismatch
        if expr.negated:
            possible = {tri_not(item) for item in possible}
        return AbstractTruth(frozenset(possible), may_raise)

    def _branch_condition(
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
            condition = self._branch_condition(expr, when)
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
            return TOP_VALUE
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
                kind="b", nullable=False, interval=BOOL_INTERVAL, may_raise=True
            )
        if isinstance(expr, ast.FunctionCall):
            return self._function(expr)
        return TOP_VALUE  # ScalarSubquery, Star, anything new

    def _literal(self, value: Any) -> AbstractValue:
        if value is None:
            return NULL_VALUE
        if isinstance(value, bool):
            return AbstractValue(
                kind="b", nullable=False, interval=Interval.point(int(value))
            )
        if isinstance(value, (int, float, Decimal)):
            return AbstractValue(
                kind="n", nullable=False, interval=Interval.point(value)
            )
        if isinstance(value, str):
            return AbstractValue(kind="s", nullable=False)
        return TOP_VALUE

    def _unary(self, expr: ast.UnaryOp) -> AbstractValue:
        if expr.op == "NOT":
            return _value_of_truth(self.truth(expr))
        operand = self.value(expr.operand)
        if expr.op == "+":
            return operand  # unary plus passes the operand through as-is
        # Unary minus: numeric coercion (strings parse, may raise).
        if operand.kind == "n":
            interval = _iv_neg(operand.interval)
            may_raise = operand.may_raise
        elif operand.kind == "b":
            interval = _iv_neg(BOOL_INTERVAL)
            may_raise = operand.may_raise
        else:
            interval = TOP_INTERVAL
            may_raise = True
        return AbstractValue(
            kind="n",
            nullable=operand.nullable,
            definitely_null=operand.definitely_null,
            interval=interval,
            may_raise=may_raise,
        )

    def _binary(self, expr: ast.BinaryOp) -> AbstractValue:
        op = expr.op
        if op in ("AND", "OR") or op in _COMPARISON_OPS:
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
                kind="s",
                nullable=nullable,
                definitely_null=False,
                may_raise=may_raise,
            )
        if op == "%":
            return AbstractValue(kind="n", nullable=True, may_raise=True)
        # '+', '-', '*', '/': numeric coercion of both operands.
        numeric_kinds = ("n", "b")
        coercible = left.kind in numeric_kinds and right.kind in numeric_kinds
        if not coercible:
            may_raise = True  # string parse / TypeMismatch possible
        left_iv = BOOL_INTERVAL if left.kind == "b" else left.interval
        right_iv = BOOL_INTERVAL if right.kind == "b" else right.interval
        if not coercible:
            left_iv = right_iv = TOP_INTERVAL
        if op == "+":
            interval = _iv_add(left_iv, right_iv)
        elif op == "-":
            interval = _iv_sub(left_iv, right_iv)
        elif op == "*":
            interval = _iv_mul(left_iv, right_iv)
        else:  # '/'
            interval = TOP_INTERVAL
            if right.definitely_null or not right_iv.contains(0):
                pass  # NULL divisor propagates NULL; 0 excluded: no raise
            else:
                may_raise = True  # DivisionByZero possible
        return AbstractValue(
            kind="n",
            nullable=nullable,
            definitely_null=definitely_null,
            interval=interval,
            may_raise=may_raise,
        )

    def _cast(self, expr: ast.CastExpr) -> AbstractValue:
        operand = self.value(expr.operand)
        kind = kind_of_type_name(expr.type_name)
        # CAST(NULL AS t) is NULL without raising; any other operand can
        # fail conversion.
        may_raise = operand.may_raise or kind is None or not operand.definitely_null
        return AbstractValue(
            kind=kind,
            nullable=operand.nullable,
            definitely_null=operand.definitely_null,
            may_raise=may_raise,
        )

    def _function(self, expr: ast.FunctionCall) -> AbstractValue:
        name = expr.name.upper()
        if name == "COUNT":
            return AbstractValue(
                kind="n",
                nullable=False,
                interval=Interval(0, None),
                may_raise=True,  # argument evaluation can still raise
            )
        if name in AGGREGATE_NAMES:
            return TOP_VALUE
        return TOP_VALUE


def _join_values(values: list, *, extra_raise: bool = False) -> AbstractValue:
    """Least upper bound of possible results (CASE branch join)."""
    if not values:
        return AbstractValue(
            kind=None, nullable=False, may_raise=True
        )  # no branch can produce a value: evaluation cannot complete
    kinds = {value.kind for value in values}
    kind = kinds.pop() if len(kinds) == 1 else None
    interval = values[0].interval
    for value in values[1:]:
        interval = interval.join(value.interval)
    return AbstractValue(
        kind=kind,
        nullable=any(value.nullable for value in values),
        definitely_null=all(value.definitely_null for value in values),
        interval=interval if kind == "n" else TOP_INTERVAL,
        may_raise=extra_raise or any(value.may_raise for value in values),
    )


# -- public entry points -----------------------------------------------------


def abstract_truth(
    expr: ast.Expression, env: Optional[PredicateEnv] = None
) -> AbstractTruth:
    """Abstract three-valued truth of a boolean position."""
    return _Interpreter(env or EMPTY_ENV).truth(expr)


def abstract_value(
    expr: ast.Expression, env: Optional[PredicateEnv] = None
) -> AbstractValue:
    """Abstract value facts of an expression."""
    return _Interpreter(env or EMPTY_ENV).value(expr)


# --------------------------------------------------------------------------
# TLP partitioning
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TlpCertificate:
    """Why the partition union must equal the unpartitioned result."""

    #: Predicate proven total (cannot raise on any row).
    total: bool
    #: Abstract truth of the predicate (for reporting).
    truth: AbstractTruth
    obligations: tuple[str, ...] = ()

    def describe(self) -> str:
        status = "total" if self.total else "deterministic (totality unproven)"
        return f"predicate {status}, truth {self.truth.describe()}"


@dataclass(frozen=True)
class TlpTriple:
    """One SELECT's ternary-logic partition: the ORDER-BY-stripped base
    query plus the three partition queries whose multiset union must
    equal it."""

    base: str
    partitions: tuple[str, str, str]  # WHERE p / WHERE NOT p / WHERE p IS NULL
    certificate: TlpCertificate


def _statement_expressions(stmt: ast.Statement):
    """Top-level expression roots of a statement."""
    if isinstance(stmt, ast.SelectStatement):
        for core in stmt.cores():
            for item in core.items:
                yield item.expression
            for item in core.from_items:
                yield from _join_conditions(item)
            if core.where is not None:
                yield core.where
            yield from core.group_by
            if core.having is not None:
                yield core.having
        for order in stmt.order_by:
            yield order.expression
    elif isinstance(stmt, ast.Update):
        for _, expr in stmt.assignments:
            yield expr
        if stmt.where is not None:
            yield stmt.where
    elif isinstance(stmt, ast.Delete):
        if stmt.where is not None:
            yield stmt.where
    elif isinstance(stmt, ast.Insert):
        for row in stmt.rows or []:
            yield from row


def _join_conditions(item: ast.FromItem):
    if isinstance(item, ast.Join):
        if item.condition is not None:
            yield item.condition
        yield from _join_conditions(item.left)
        yield from _join_conditions(item.right)


def _tlp_blockers(stmt: ast.SelectStatement) -> list[str]:
    """Why this SELECT cannot be partitioned (empty = analyzable)."""
    blockers: list[str] = []
    if not isinstance(stmt.body, ast.SelectCore):
        return ["set operation"]
    core = stmt.body
    if core.where is None:
        blockers.append("no WHERE predicate")
    if core.distinct:
        blockers.append("DISTINCT changes partition multiplicities")
    if core.group_by or core.having is not None:
        blockers.append("GROUP BY / HAVING aggregates across the partition")
    if stmt.limit is not None:
        blockers.append("LIMIT truncates partitions differently")
    for item in core.items:
        if not isinstance(item.expression, ast.Star) and contains_aggregate(
            item.expression
        ):
            blockers.append("aggregate select item")
            break
    for expr in _statement_expressions(stmt):
        for node in ast.walk_expressions(expr):
            if isinstance(node, ast.Parameter):
                blockers.append("unbound parameter")
            if (
                isinstance(node, ast.FunctionCall)
                and node.name.upper() in VOLATILE_FUNCTIONS
            ):
                blockers.append(f"volatile function {node.name.upper()}")
        if blockers:
            break
    return blockers


def tlp_partition(
    stmt: ast.SelectStatement, schema: Optional[ScriptSchema] = None
) -> Optional[TlpTriple]:
    """The ternary-logic partition of an analyzable SELECT, or None.

    For predicate ``p``, every row of the FROM product evaluates ``p``
    to exactly one of TRUE / FALSE / UNKNOWN; the three partition
    queries select those rows respectively, so their multiset union must
    equal the base query without the WHERE clause.  ORDER BY is stripped
    (the comparison is over multisets) and LIMIT-bearing queries are
    rejected.
    """
    if not isinstance(stmt, ast.SelectStatement) or _tlp_blockers(stmt):
        return None
    core = stmt.body
    predicate = core.where

    def select_with(where: Optional[ast.Expression]) -> str:
        return render_statement(
            ast.SelectStatement(
                body=ast.SelectCore(
                    items=core.items,
                    from_items=core.from_items,
                    where=where,
                    group_by=[],
                    having=None,
                    distinct=False,
                ),
                order_by=[],
                limit=None,
            )
        )

    env = PredicateEnv.for_select(core, schema)
    truth = abstract_truth(predicate, env)
    obligations = (
        "single SELECT core, no DISTINCT/GROUP BY/HAVING/LIMIT/aggregates",
        "predicate is deterministic (no volatile functions, no parameters)",
        "three-valued truth is exhaustive: every row lands in exactly one "
        "of p / NOT p / p IS NULL",
    )
    if truth.total:
        obligations = obligations + (
            "predicate proven total: no row can raise mid-scan",
        )
    certificate = TlpCertificate(
        total=truth.total, truth=truth, obligations=obligations
    )
    return TlpTriple(
        base=select_with(None),
        partitions=(
            select_with(predicate),
            select_with(ast.UnaryOp("NOT", predicate)),
            select_with(ast.IsNullPredicate(predicate)),
        ),
        certificate=certificate,
    )


# --------------------------------------------------------------------------
# Statement summaries (dead predicates, memoised by the pipeline)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DeadPredicateFinding:
    """One statically-dead predicate site."""

    site: str    # 'WHERE' or 'CASE arm N'
    detail: str


@dataclass(frozen=True)
class StatementAbstraction:
    """Everything the abstraction layer knows about one statement."""

    kind: str
    where_truth: Optional[AbstractTruth] = None
    dead: tuple[DeadPredicateFinding, ...] = ()
    tlp: Optional[TlpTriple] = None


def _dead_case_arms(
    expr: ast.CaseExpr, interp: _Interpreter
) -> list[DeadPredicateFinding]:
    findings: list[DeadPredicateFinding] = []
    reachable = True
    for index, (when, _) in enumerate(expr.branches, 1):
        if not reachable:
            findings.append(
                DeadPredicateFinding(
                    site=f"CASE arm {index}",
                    detail="unreachable: an earlier arm always matches",
                )
            )
            continue
        condition = interp._branch_condition(expr, when)
        if not condition.may_raise and True not in condition.truth:
            findings.append(
                DeadPredicateFinding(
                    site=f"CASE arm {index}",
                    detail="condition can never be TRUE — arm never taken",
                )
            )
        if condition.always_true:
            reachable = False
    return findings


def _where_findings(truth: AbstractTruth) -> list[DeadPredicateFinding]:
    findings: list[DeadPredicateFinding] = []
    if truth.always_true:
        findings.append(
            DeadPredicateFinding(
                site="WHERE",
                detail="predicate is always TRUE — clause never filters",
            )
        )
    elif truth.never_true:
        findings.append(
            DeadPredicateFinding(
                site="WHERE",
                detail="predicate can never be TRUE — no row ever qualifies",
            )
        )
    return findings


def summarize_statement(
    stmt: ast.Statement, schema: Optional[ScriptSchema] = None
) -> StatementAbstraction:
    """Abstract one statement: WHERE truth, dead predicates, TLP triple."""
    kind = type(stmt).__name__.lower().replace("statement", "")
    where: Optional[ast.Expression] = None
    env: Optional[PredicateEnv] = None
    tlp: Optional[TlpTriple] = None
    if isinstance(stmt, ast.SelectStatement):
        if isinstance(stmt.body, ast.SelectCore):
            env = PredicateEnv.for_select(stmt.body, schema)
            where = stmt.body.where
        tlp = tlp_partition(stmt, schema)
    elif isinstance(stmt, (ast.Update, ast.Delete)):
        env = PredicateEnv.for_table(stmt.table, schema)
        where = stmt.where
    if env is None:
        return StatementAbstraction(kind=kind)
    interp = _Interpreter(env)
    where_truth = interp.truth(where) if where is not None else None
    dead: list[DeadPredicateFinding] = []
    if where_truth is not None:
        dead.extend(_where_findings(where_truth))
    for root in _statement_expressions(stmt):
        for node in ast.walk_expressions(root):
            if isinstance(node, ast.CaseExpr):
                dead.extend(_dead_case_arms(node, interp))
    return StatementAbstraction(
        kind=kind, where_truth=where_truth, dead=tuple(dead), tlp=tlp
    )


# --------------------------------------------------------------------------
# Rewrite-soundness certificates
# --------------------------------------------------------------------------


class CertificationError(Exception):
    """A rewrite rule failed one of its soundness laws."""


@dataclass(frozen=True)
class RewriteCertificate:
    """The symbolic checker's verdict on one registered rewrite rule."""

    rule: str
    certified: bool
    obligations: tuple[str, ...] = ()
    detail: str = ""


#: Literal domain the fold certifier enumerates: NULL, booleans, ints
#: (zero, negatives), exact decimals, numeric and non-numeric strings.
_FOLD_DOMAIN: tuple[Any, ...] = (
    None,
    True,
    False,
    0,
    1,
    -3,
    7,
    Decimal("2.5"),
    Decimal("-1.5"),
    "abc",
    " 7 ",
    "",
    "2",
)

_FOLD_BINARY_OPS = (
    "+", "-", "*", "/", "||", "=", "<>", "<", "<=", ">", ">=", "AND", "OR",
)
_FOLD_UNARY_OPS = ("-", "+", "NOT")


def _identical(left: Any, right: Any) -> bool:
    """Value identity as the engine sees it: equal and same Python type
    (1 vs True vs Decimal('1') are different engine values)."""
    if left is None or right is None:
        return left is right
    return type(left) is type(right) and left == right


def _literal_fits(value: Any, fact: AbstractValue) -> bool:
    """Does a folded literal satisfy the original's abstract facts?"""
    if value is None:
        return fact.nullable
    kind = kind_of_literal(value)
    if fact.kind is not None and kind != fact.kind:
        return False
    if kind == "n" and not fact.interval.contains(value):
        return False
    return True


def _certify_constant_folding() -> tuple[str, ...]:
    # Each fold is checked against the closure the compiler builds for
    # the unfolded expression where no row is available.
    no_row = Scope((), no_row=True)

    def evaluate(node: ast.Expression) -> Any:
        return compile_expression(node, no_row)(None, None, None)

    checked = 0
    for op in _FOLD_BINARY_OPS:
        for left in _FOLD_DOMAIN:
            for right in _FOLD_DOMAIN:
                node = ast.BinaryOp(op, ast.Literal(left), ast.Literal(right))
                folded = _fold_binary(op, left, right)
                try:
                    concrete = evaluate(node)
                except Exception:
                    if folded is not _NO_FOLD:
                        raise CertificationError(
                            f"{op!r} folded raising operands "
                            f"{left!r}, {right!r} to {folded!r} — errors "
                            "must keep surfacing at runtime"
                        ) from None
                    continue
                if folded is _NO_FOLD:
                    continue  # declining to fold is always sound
                if not _identical(folded, concrete):
                    raise CertificationError(
                        f"{op!r} over {left!r}, {right!r} folds to "
                        f"{folded!r} but evaluates to {concrete!r}"
                    )
                if not _literal_fits(folded, abstract_value(node)):
                    raise CertificationError(
                        f"fold of {op!r} over {left!r}, {right!r} escapes "
                        "the abstract lattice of the original expression"
                    )
                checked += 1
    for op in _FOLD_UNARY_OPS:
        for operand in _FOLD_DOMAIN:
            node = ast.UnaryOp(op, ast.Literal(operand))
            folded = _fold_unary(op, operand)
            try:
                concrete = evaluate(node)
            except Exception:
                if folded is not _NO_FOLD:
                    raise CertificationError(
                        f"unary {op!r} folded raising operand {operand!r}"
                    ) from None
                continue
            if folded is _NO_FOLD:
                continue
            if not _identical(folded, concrete):
                raise CertificationError(
                    f"unary {op!r} over {operand!r} folds to {folded!r} "
                    f"but evaluates to {concrete!r}"
                )
            if not _literal_fits(folded, abstract_value(node)):
                raise CertificationError(
                    f"unary fold of {op!r} over {operand!r} escapes the "
                    "abstract lattice"
                )
            checked += 1
    return (
        f"{checked} folded literal instances match concrete evaluation "
        "byte-for-byte",
        "every raising operand combination is left unfolded",
        "every folded literal refines the abstract value of the original",
    )


def _only_select_plan(engine):
    plans = [
        plan
        for _, _, plan in engine._plans.values()
        if isinstance(plan, PhysicalSelect)
    ]
    if len(plans) != 1:
        raise CertificationError(
            f"witness engine compiled {len(plans)} SELECT plan(s), need 1"
        )
    return plans[0].plan


_TRI = (True, False, None)


def _check_key_collision_law(label: str) -> None:
    """Hashed-key collision must coincide with three-valued equality.

    The executor hashes join/probe keys with ``_join_key(value, kind)``
    under the rule's declared key kind (booleans bridged onto numeric,
    off-kind values unhashable).  For every pair the executor would hash,
    equal keys must mean ``sql_compare == 0`` and vice versa — that is
    what lets a hash table stand in for the equality predicate.
    """
    for kind in ("n", "s", "d"):
        hashable = []
        for value in _FOLD_DOMAIN:
            if value is None:
                continue
            key = _join_key(value, kind)
            if key is not None:
                hashable.append((value, key))
        for left, left_key in hashable:
            for right, right_key in hashable:
                if (left_key == right_key) != (sql_compare(left, right) == 0):
                    raise CertificationError(
                        f"{label}-key collision disagrees with equality "
                        f"for {left!r} vs {right!r} under kind {kind!r}"
                    )


def _certify_predicate_pushdown() -> tuple[str, ...]:
    # Law 1: conjunct splitting — a row passes WHERE (a AND b) iff it
    # passes the filter for a and the filter for b (filters keep TRUE
    # only), so staging conjuncts below the join preserves the row set.
    for a in _TRI:
        for b in _TRI:
            if (tri_and(a, b) is True) != (a is True and b is True):
                raise CertificationError(
                    f"AND-splitting law fails at ({a!r}, {b!r})"
                )
    # Law 2: conjunct reordering — tri_and is commutative/associative,
    # so per-scan grouping may evaluate conjuncts in any order.
    for a in _TRI:
        for b in _TRI:
            if tri_and(a, b) != tri_and(b, a):
                raise CertificationError("AND commutativity fails")
            for c in _TRI:
                if tri_and(tri_and(a, b), c) != tri_and(a, tri_and(b, c)):
                    raise CertificationError("AND associativity fails")
    # Law 3: hash equi-join NULL semantics — a NULL key never equals
    # anything (sql_equal is never TRUE), matching a hash table that
    # stores no NULL buckets; keys the executor actually hashes
    # (``_join_key`` under the declared kind, booleans bridged onto
    # numeric) collide exactly when the equality predicate is TRUE.
    for value in _FOLD_DOMAIN:
        if sql_equal(None, value) is True or sql_equal(value, None) is True:
            raise CertificationError("NULL equality returned TRUE")
    _check_key_collision_law("hash")
    # Law 4 (behavioral): the rule only fires when every conjunct is
    # total — pushing a raising conjunct below another, or stopping at
    # the first conjunct that rejects a row, would change which rows it
    # is evaluated on; over a join as over one table.
    witnesses = (
        "SELECT cert_a.val FROM cert_a, cert_b "
        "WHERE cert_a.id = cert_b.ref AND cert_a.val > 0",
        "SELECT ref FROM cert_b WHERE id > 0 AND ref > 1",
    )
    for ref_type, total in (("INTEGER", True), ("VARCHAR(8)", False)):
        for sql in witnesses:
            engine = Engine(name="certify")
            engine.execute("CREATE TABLE cert_a (id INTEGER PRIMARY KEY, val INTEGER)")
            engine.execute(f"CREATE TABLE cert_b (id INTEGER PRIMARY KEY, ref {ref_type})")
            engine.execute(sql)
            plan = _only_select_plan(engine)
            if ("predicate_pushdown" in plan.applied_rules) != total:
                raise CertificationError(
                    f"rule did not fire on its total witness: {sql}"
                    if total
                    else f"rule fired with a non-total (number/string) conjunct: {sql}"
                )
    return (
        "AND-splitting: row passes (a AND b) iff it passes both filters "
        "(all 9 truth pairs)",
        "AND commutativity/associativity over all 27 truth triples",
        "NULL join keys never match; hash-key collision coincides with "
        "three-valued equality on the literal domain",
        "totality gate holds over a join and over one table: witnesses "
        "with a number/string conjunct decline, total witnesses fire",
    )


def _certify_index_selection() -> tuple[str, ...]:
    # Law 1: a NULL probe value matches nothing under both the equality
    # filter (UNKNOWN) and the lookup (no NULL keys) — agreeing on the
    # empty result.
    for value in _FOLD_DOMAIN:
        if sql_equal(None, value) is True:
            raise CertificationError("NULL probe equality returned TRUE")
    # Law 2: lookup hashing agrees with predicate truth under the
    # declared kind (same collision law as the hash join).
    _check_key_collision_law("lookup")
    # Law 3 (behavioral): the rewritten plan keeps the full conjunct
    # list in the Filter above the lookup — the predicate is re-checked
    # row-for-row, so the lookup only needs *completeness* (the unique
    # key guarantees at most one matching row and the collision law
    # guarantees it is found).
    engine = Engine(name="certify")
    engine.execute("CREATE TABLE cert_a (id INTEGER PRIMARY KEY, val INTEGER)")
    engine.execute("SELECT val FROM cert_a WHERE id = 1")
    plan = _only_select_plan(engine)
    if "index_selection" not in plan.applied_rules:
        raise CertificationError("rule did not fire on its unique-key witness")

    def find_lookup_filter(node):
        if isinstance(node, Filter) and isinstance(node.child, IndexLookup):
            return node
        for attr in ("child", "left", "right"):
            child = getattr(node, attr, None)
            if child is not None:
                found = find_lookup_filter(child)
                if found is not None:
                    return found
        return None

    filter_node = find_lookup_filter(plan.root)
    if filter_node is None or not filter_node.conjuncts:
        raise CertificationError(
            "rewritten plan dropped the re-checking Filter above the lookup"
        )
    # Law 4 (behavioral): a non-unique pin must decline.
    engine = Engine(name="certify")
    engine.execute("CREATE TABLE cert_a (id INTEGER PRIMARY KEY, val INTEGER)")
    engine.execute("SELECT id FROM cert_a WHERE val = 1")
    plan = _only_select_plan(engine)
    if "index_selection" in plan.applied_rules:
        raise CertificationError("rule fired without a unique key")
    return (
        "NULL probe keys select nothing in both lookup and filter",
        "lookup-key collision coincides with three-valued equality on "
        "the literal domain",
        "the Filter re-checking every conjunct survives above the "
        "IndexLookup (lookup only needs completeness, which the unique "
        "key provides)",
        "non-unique pins decline",
    )


#: Rule name -> certifier.  Every entry in ``REWRITE_RULES`` must have
#: one; an uncertified rule is an error-severity lint finding.
_RULE_CERTIFIERS = {
    "constant_folding": _certify_constant_folding,
    "predicate_pushdown": _certify_predicate_pushdown,
    "index_selection": _certify_index_selection,
}


def certify_rewrites() -> dict[str, RewriteCertificate]:
    """Certificate per registered rewrite rule, in registry order."""
    certificates: dict[str, RewriteCertificate] = {}
    for rule in REWRITE_RULES:
        certifier = _RULE_CERTIFIERS.get(rule)
        if certifier is None:
            certificates[rule] = RewriteCertificate(
                rule=rule,
                certified=False,
                detail="no symbolic certifier registered for this rule",
            )
            continue
        try:
            obligations = certifier()
        except CertificationError as error:
            certificates[rule] = RewriteCertificate(
                rule=rule, certified=False, detail=str(error)
            )
        else:
            certificates[rule] = RewriteCertificate(
                rule=rule, certified=True, obligations=obligations
            )
    return certificates
