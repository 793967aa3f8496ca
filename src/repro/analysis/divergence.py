"""Dialect-divergence abstract interpretation.

Two off-the-shelf SQL products can disagree on a query without either
being faulty: integer vs exact division, NULL's position under ORDER
BY, ``NULL || 'x'``, CHAR padding and trailing-blank comparison rules,
whether a DATE renders with a midnight time component, and numeric
scale preservation are all *dialect* semantics the paper's comparator
had to tolerate.  The middleware's normalizer and translator embody
those semantics dynamically; this module makes them a *static* fact.

The analyzer walks one statement's expression trees over per-product
:class:`SemanticProfile` records, abstractly typing each expression
from the :class:`~repro.analysis.schema.ScriptSchema`'s declared column
types, and collects :class:`DivergenceAtom` sites — (operator, rule)
pairs where the answer depends on a profile field.  For a product pair
the verdict is then:

``AGREE_PROVEN``
    No atom's rule differs between the two profiles and nothing in the
    statement defeated the analysis: any observed disagreement on this
    statement is fault-indicating, full stop.
``BENIGN_DIALECT``
    At least one atom's rule *does* differ — the products may
    legitimately disagree here; the verdict names the operator and the
    rule.  When the comparator normalizes results, atoms whose rule the
    normalizer folds (CHAR padding, DATE midnight, numeric scale) are
    discounted first: a disagreement that survives normalization cannot
    be blamed on a folded rule.
``UNKNOWN``
    The analysis was defeated (volatile function, unresolvable column)
    — the comparator must stay conservative.

The comparator consults the pairwise verdict before treating an
out-voted replica as suspect (`benign_dialect` vs `fault_indicating`
counters in ``MiddlewareStats``), and ``study.classify`` uses it to
split "identical incorrect results" from "identically rendered dialect
artifacts" in the Table-4 pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.analysis.schema import ScriptSchema
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.analysis import StatementTraits, extract_traits

# --------------------------------------------------------------------------
# Abstract type categories
# --------------------------------------------------------------------------

_TYPE_CATEGORY = {
    "INTEGER": "int",
    "INT": "int",
    "SMALLINT": "int",
    "BIGINT": "int",
    "NUMERIC": "decimal",
    "DECIMAL": "decimal",
    "NUMBER": "decimal",
    "FLOAT": "float",
    "DOUBLE": "float",
    "DOUBLE PRECISION": "float",
    "REAL": "float",
    "CHAR": "char",
    "CHARACTER": "char",
    "NCHAR": "char",
    "VARCHAR": "varchar",
    "VARCHAR2": "varchar",
    "NVARCHAR": "varchar",
    "TEXT": "varchar",
    "CLOB": "varchar",
    "DATE": "date",
    "TIMESTAMP": "timestamp",
    "DATETIME": "timestamp",
    "BOOLEAN": "bool",
}

#: Aggregate functions (nullable on empty input, except COUNT).
_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

#: Functions whose value varies between calls — defeat the analysis.
_VOLATILE_FUNCTIONS = frozenset({"GETDATE", "GEN_ID"})


@dataclass(frozen=True)
class AbstractValue:
    """Abstract type of one expression: category plus nullability."""

    category: str  # int/decimal/float/char/varchar/date/timestamp/bool/null/unknown
    nullable: bool = True


# --------------------------------------------------------------------------
# Semantic profiles
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SemanticProfile:
    """The dialect semantics of one product, as the translator and
    normalizer embody them dynamically."""

    #: ``'truncate'`` (integer division) or ``'exact'`` (Oracle NUMBER).
    integer_division: str
    #: Where NULL sorts in ascending ORDER BY: ``'first'`` or ``'last'``.
    null_sort: str
    #: ``NULL || 'x'``: ``'propagate'`` (NULL) or ``'empty'`` (Oracle: 'x').
    null_concat: str
    #: CHAR(n) values blank-padded to declared length on output.
    char_pad: bool
    #: Trailing blanks ignored when comparing character strings.
    trailing_blank_compare: bool
    #: DATE carries a (midnight) time-of-day component when rendered.
    date_has_time: bool
    #: Scale of exact numerics: ``'preserve'`` (10.00 stays 10.00) or
    #: ``'normalize'`` (Oracle renders 10).
    decimal_scale: str


#: Per-product semantic profiles (paper §2.1 products).
PROFILES: dict[str, SemanticProfile] = {
    "IB": SemanticProfile(
        integer_division="truncate",
        null_sort="last",
        null_concat="propagate",
        char_pad=True,
        trailing_blank_compare=True,
        date_has_time=True,
        decimal_scale="preserve",
    ),
    "PG": SemanticProfile(
        integer_division="truncate",
        null_sort="last",
        null_concat="propagate",
        char_pad=True,
        trailing_blank_compare=True,
        date_has_time=False,
        decimal_scale="preserve",
    ),
    "OR": SemanticProfile(
        integer_division="exact",
        null_sort="last",
        null_concat="empty",
        char_pad=True,
        trailing_blank_compare=True,
        date_has_time=True,
        decimal_scale="normalize",
    ),
    "MS": SemanticProfile(
        integer_division="truncate",
        null_sort="first",
        null_concat="propagate",
        char_pad=False,
        trailing_blank_compare=False,
        date_has_time=True,
        decimal_scale="preserve",
    ),
}

#: Divergence rule -> the profile field that decides it.
RULE_FIELDS: dict[str, str] = {
    "integer-division": "integer_division",
    "null-sort-position": "null_sort",
    "null-concat": "null_concat",
    "char-padding": "char_pad",
    "trailing-blank-comparison": "trailing_blank_compare",
    "date-midnight-fold": "date_has_time",
    "numeric-scale": "decimal_scale",
}

#: Rules whose value-level difference the result normalizer folds away
#: (the comparator under ``normalize=True`` cannot see them).
_NORMALIZER_FOLDED = frozenset({"char-padding", "date-midnight-fold", "numeric-scale"})

_RULE_NOTES: dict[str, str] = {
    "char-padding": "normalizer strips trailing blanks from strings",
    "date-midnight-fold": "normalizer widens DATE to a midnight timestamp",
    "numeric-scale": "normalizer renders exact numerics at canonical scale",
    "integer-division": (
        "value-level difference (3/2 is 1 vs 1.5); the normalizer cannot fold "
        "it — the translator must rewrite the expression instead"
    ),
    "null-sort-position": (
        "row-order difference, not a value difference; only unordered "
        "(multiset) comparison tolerates it"
    ),
    "null-concat": (
        "NULL vs 'x' are distinct values under any rendering; "
        "not normalizer-foldable"
    ),
    "trailing-blank-comparison": (
        "changes predicate truth and hence the selected row set; "
        "not normalizer-foldable"
    ),
}


@dataclass(frozen=True)
class DivergenceAtom:
    """One site where the answer depends on a dialect rule."""

    operator: str  # '/', '||', '=', 'ORDER BY', 'SELECT item', ...
    rule: str      # key into RULE_FIELDS
    #: True when the result normalizer folds this rule's value-level
    #: difference away (comparator with normalize=True never sees it).
    normalizer_folds: bool
    #: Why the rule is / is not foldable — documentation for verdicts.
    note: str

    @classmethod
    def make(cls, operator: str, rule: str) -> "DivergenceAtom":
        return cls(
            operator=operator,
            rule=rule,
            normalizer_folds=rule in _NORMALIZER_FOLDED,
            note=_RULE_NOTES[rule],
        )


class DivergenceKind(Enum):
    AGREE_PROVEN = "agree_proven"
    BENIGN_DIALECT = "benign_dialect"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class DivergenceVerdict:
    """The analyzer's answer for one statement and one product pair."""

    kind: DivergenceKind
    #: The atom that justifies BENIGN_DIALECT (None otherwise).
    atom: Optional[DivergenceAtom] = None
    #: Why the analysis was defeated, for UNKNOWN.
    reason: Optional[str] = None

    def describe(self) -> str:
        if self.kind is DivergenceKind.BENIGN_DIALECT and self.atom is not None:
            return (
                f"benign dialect divergence at {self.atom.operator!r} "
                f"({self.atom.rule}): {self.atom.note}"
            )
        if self.kind is DivergenceKind.UNKNOWN:
            return f"divergence unknown: {self.reason}"
        return "agreement proven"


@dataclass
class StatementDivergence:
    """All divergence facts of one statement, pair-independent.

    ``atoms`` are the dialect-sensitive sites; ``unknowns`` the reasons
    the analysis was defeated (if any).  :meth:`verdict` specializes to
    a product pair.
    """

    atoms: list[DivergenceAtom] = field(default_factory=list)
    unknowns: list[str] = field(default_factory=list)

    def verdict(
        self, a: str, b: str, *, normalized: bool = False, rows_differ: bool = False
    ) -> DivergenceVerdict:
        """The verdict for products ``a`` vs ``b``.

        With ``normalized=True`` (a comparator that normalizes results
        before voting), atoms whose rule the normalizer folds are
        discounted: the fold already reconciled them, so a disagreement
        that *survives* normalization cannot be benign on their account.
        ``rows_differ=True`` (the two answers differ as row multisets)
        likewise discounts row-order atoms: a sort position explains a
        permutation, never a different set of rows.
        """
        if self.unknowns:
            return DivergenceVerdict(
                kind=DivergenceKind.UNKNOWN, reason="; ".join(self.unknowns)
            )
        profile_a = PROFILES[a]
        profile_b = PROFILES[b]
        for atom in self.atoms:
            if normalized and atom.normalizer_folds:
                continue
            if rows_differ and atom.rule == "null-sort-position":
                continue
            fld = RULE_FIELDS[atom.rule]
            if getattr(profile_a, fld) != getattr(profile_b, fld):
                return DivergenceVerdict(kind=DivergenceKind.BENIGN_DIALECT, atom=atom)
        return DivergenceVerdict(kind=DivergenceKind.AGREE_PROVEN)


# --------------------------------------------------------------------------
# The analyzer
# --------------------------------------------------------------------------


def analyze_divergence(
    stmt: ast.Statement,
    schema: Optional[ScriptSchema] = None,
    traits: Optional[StatementTraits] = None,
) -> StatementDivergence:
    """Collect one statement's dialect-sensitive sites."""
    if schema is None:
        schema = ScriptSchema()
    if traits is None:
        traits = extract_traits(stmt)
    analysis = _Analysis(schema)
    if isinstance(stmt, ast.SelectStatement):
        analysis.walk_select(stmt, top_level=True)
    elif isinstance(stmt, ast.Insert):
        scope = analysis.scope_for_table(stmt.table)
        for row in stmt.rows or []:
            for expr in row:
                analysis.type_of(expr, scope)
        if stmt.query is not None:
            analysis.walk_select(stmt.query)
    elif isinstance(stmt, ast.Update):
        scope = analysis.scope_for_table(stmt.table)
        for _, expr in stmt.assignments:
            analysis.type_of(expr, scope)
        if stmt.where is not None:
            analysis.type_of(stmt.where, scope)
    elif isinstance(stmt, ast.Delete):
        scope = analysis.scope_for_table(stmt.table)
        if stmt.where is not None:
            analysis.type_of(stmt.where, scope)
    # DDL and transaction control have no dialect-sensitive answers the
    # comparator votes on (status-only results): no atoms.
    return StatementDivergence(atoms=analysis.atoms, unknowns=analysis.unknowns)


_Scope = dict[str, str]  # binding name -> relation name


class _Analysis:
    """One statement's abstract-interpretation pass."""

    def __init__(self, schema: ScriptSchema) -> None:
        self.schema = schema
        self.atoms: list[DivergenceAtom] = []
        self.unknowns: list[str] = []

    # -- scopes ------------------------------------------------------------

    def scope_for_table(self, table: str) -> _Scope:
        return {table.lower(): table.lower()}

    def _bind(self, item: ast.FromItem, scope: _Scope, nullable_all: bool) -> None:
        if isinstance(item, ast.TableRef):
            scope[item.binding_name.lower()] = item.name.lower()
        elif isinstance(item, ast.SubqueryRef):
            # Derived-table columns are analyzed inside the subquery;
            # references through the alias resolve to unknown (defeat
            # only if they feed an atom-capable position).
            self.walk_select(item.subquery)
            scope[item.alias.lower()] = f"@derived:{item.alias.lower()}"
        elif isinstance(item, ast.Join):
            self._bind(item.left, scope, nullable_all)
            self._bind(item.right, scope, nullable_all)
            if item.condition is not None:
                self.type_of(item.condition, scope)

    # -- statement walks ---------------------------------------------------

    def walk_select(self, stmt: ast.SelectStatement, top_level: bool = False) -> None:
        output: list[AbstractValue] = []
        for core in stmt.cores():
            scope: _Scope = {}
            outer_join = any(
                isinstance(item, ast.Join) and item.kind in ("LEFT", "RIGHT", "FULL")
                for item in core.from_items
            )
            for item in core.from_items:
                self._bind(item, scope, outer_join)
            core_output: list[AbstractValue] = []
            for select_item in core.items:
                value = self.type_of(select_item.expression, scope)
                if outer_join:
                    value = AbstractValue(value.category, nullable=True)
                core_output.append(value)
                if top_level:
                    self._rendering_atoms(value)
            if not output:
                output = core_output
            if core.where is not None:
                self.type_of(core.where, scope)
            for expr in core.group_by:
                self.type_of(expr, scope)
            if core.having is not None:
                self.type_of(core.having, scope)
        for order_item in stmt.order_by:
            value = self._order_key_type(order_item.expression, output, stmt)
            if value.nullable:
                self.atoms.append(DivergenceAtom.make("ORDER BY", "null-sort-position"))

    def _order_key_type(
        self,
        expr: ast.Expression,
        output: list[AbstractValue],
        stmt: ast.SelectStatement,
    ) -> AbstractValue:
        # Positional ORDER BY (ORDER BY 1) sorts the nth output item.
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            index = expr.value - 1
            if 0 <= index < len(output):
                return output[index]
            return AbstractValue("unknown")
        cores = stmt.cores()
        scope: _Scope = {}
        if cores:
            for item in cores[0].from_items:
                if isinstance(item, ast.TableRef):
                    scope[item.binding_name.lower()] = item.name.lower()
        return self.type_of(expr, scope)

    def _rendering_atoms(self, value: AbstractValue) -> None:
        """Atoms for how a selected value *renders* to the client."""
        if value.category == "char":
            self.atoms.append(DivergenceAtom.make("SELECT item", "char-padding"))
        elif value.category == "date":
            self.atoms.append(DivergenceAtom.make("SELECT item", "date-midnight-fold"))
        elif value.category == "decimal":
            self.atoms.append(DivergenceAtom.make("SELECT item", "numeric-scale"))

    # -- expression typing -------------------------------------------------

    def type_of(self, expr: ast.Expression, scope: _Scope) -> AbstractValue:
        if isinstance(expr, ast.Literal):
            return self._literal(expr)
        if isinstance(expr, ast.ColumnRef):
            return self._column(expr, scope)
        if isinstance(expr, ast.Star):
            return self._star(expr, scope)
        if isinstance(expr, ast.Parameter):
            return AbstractValue("unknown")
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr, scope)
        if isinstance(expr, ast.UnaryOp):
            operand = self.type_of(expr.operand, scope)
            if expr.op == "NOT":
                return AbstractValue("bool", operand.nullable)
            return operand
        if isinstance(expr, ast.FunctionCall):
            return self._function(expr, scope)
        if isinstance(expr, ast.CastExpr):
            operand = self.type_of(expr.operand, scope)
            category = _TYPE_CATEGORY.get(expr.type_name.upper(), "unknown")
            return AbstractValue(category, operand.nullable)
        if isinstance(expr, ast.CaseExpr):
            return self._case(expr, scope)
        if isinstance(expr, ast.IsNullPredicate):
            self.type_of(expr.operand, scope)
            return AbstractValue("bool", nullable=False)
        if isinstance(expr, ast.BetweenPredicate):
            operand = self.type_of(expr.operand, scope)
            low = self.type_of(expr.low, scope)
            high = self.type_of(expr.high, scope)
            self._comparison_atoms("BETWEEN", operand, low)
            self._comparison_atoms("BETWEEN", operand, high)
            return AbstractValue("bool")
        if isinstance(expr, ast.LikePredicate):
            self.type_of(expr.operand, scope)
            self.type_of(expr.pattern, scope)
            return AbstractValue("bool")
        if isinstance(expr, ast.InPredicate):
            operand = self.type_of(expr.operand, scope)
            for value_expr in expr.values or []:
                self._comparison_atoms("IN", operand, self.type_of(value_expr, scope))
            if expr.subquery is not None:
                self.walk_select(expr.subquery)
            return AbstractValue("bool")
        if isinstance(expr, ast.ExistsPredicate):
            self.walk_select(expr.subquery)
            return AbstractValue("bool", nullable=False)
        if isinstance(expr, ast.ScalarSubquery):
            self.walk_select(expr.subquery)
            return AbstractValue("unknown")  # scalar subqueries may be empty
        return AbstractValue("unknown")  # pragma: no cover - exhaustive above

    def _literal(self, expr: ast.Literal) -> AbstractValue:
        value = expr.value
        if value is None:
            return AbstractValue("null", nullable=True)
        if isinstance(value, bool):
            return AbstractValue("bool", nullable=False)
        if isinstance(value, int):
            return AbstractValue("int", nullable=False)
        if isinstance(value, float):
            return AbstractValue("float", nullable=False)
        if isinstance(value, str):
            return AbstractValue("varchar", nullable=False)
        return AbstractValue("decimal", nullable=False)  # Decimal literal

    def _column(self, expr: ast.ColumnRef, scope: _Scope) -> AbstractValue:
        candidates: list[str] = []
        if expr.table is not None:
            relation = scope.get(expr.table.lower())
            if relation is not None:
                candidates = [relation]
        else:
            candidates = list(scope.values())
        for relation in candidates:
            if relation.startswith("@derived:"):
                continue
            fact = self.schema.column_fact(relation, expr.name)
            if fact is not None:
                type_name, nullable = fact
                category = _TYPE_CATEGORY.get(type_name, "unknown")
                return AbstractValue(category, nullable)
        return AbstractValue("unknown")

    def _star(self, expr: ast.Star, scope: _Scope) -> AbstractValue:
        # Per-column rendering atoms for every expanded column.
        relations = (
            [scope[expr.table.lower()]]
            if expr.table is not None and expr.table.lower() in scope
            else list(scope.values())
        )
        resolved = False
        for relation in relations:
            table = self.schema.table(relation)
            if table is None:
                continue
            resolved = True
            for column in table.columns:
                fact = self.schema.column_fact(relation, column)
                if fact is None:
                    continue
                type_name, nullable = fact
                category = _TYPE_CATEGORY.get(type_name, "unknown")
                self._rendering_atoms(AbstractValue(category, nullable))
        if not resolved and relations:
            self.unknowns.append(
                "unresolvable * expansion over " + ", ".join(sorted(relations))
            )
        return AbstractValue("unknown")

    def _binary(self, expr: ast.BinaryOp, scope: _Scope) -> AbstractValue:
        left = self.type_of(expr.left, scope)
        right = self.type_of(expr.right, scope)
        nullable = left.nullable or right.nullable
        op = expr.op
        if op == "/":
            if left.category == "int" and right.category == "int":
                self.atoms.append(DivergenceAtom.make("/", "integer-division"))
                return AbstractValue("decimal", nullable)
            if "unknown" in (left.category, right.category):
                self.unknowns.append("operand of '/' has unknown type")
            return AbstractValue(_numeric_join(left, right), nullable)
        if op == "||":
            if left.nullable or right.nullable:
                self.atoms.append(DivergenceAtom.make("||", "null-concat"))
            return AbstractValue("varchar", nullable)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            self._comparison_atoms(op, left, right)
            return AbstractValue("bool", nullable)
        if op in ("AND", "OR"):
            return AbstractValue("bool", nullable)
        # '+', '-', '*'
        return AbstractValue(_numeric_join(left, right), nullable)

    def _comparison_atoms(
        self, op: str, left: AbstractValue, right: AbstractValue
    ) -> None:
        if "char" in (left.category, right.category):
            self.atoms.append(DivergenceAtom.make(op, "trailing-blank-comparison"))

    def _function(self, expr: ast.FunctionCall, scope: _Scope) -> AbstractValue:
        name = expr.name.upper()
        if name in _VOLATILE_FUNCTIONS:
            self.unknowns.append(f"volatile function {name}")
            return AbstractValue("unknown")
        args = [self.type_of(arg, scope) for arg in expr.args]
        if name == "COUNT":
            return AbstractValue("int", nullable=False)
        if name in _AGGREGATES:
            category = args[0].category if args else "unknown"
            if name == "AVG":
                category = "decimal"
            return AbstractValue(category, nullable=True)  # empty input -> NULL
        if name in ("UPPER", "LOWER", "TRIM", "SUBSTR", "SUBSTRING"):
            nullable = any(arg.nullable for arg in args) if args else True
            return AbstractValue("varchar", nullable)
        if name in ("ABS", "MOD", "ROUND", "LENGTH", "CHAR_LENGTH"):
            nullable = any(arg.nullable for arg in args) if args else True
            category = args[0].category if name in ("ABS", "ROUND") and args else "int"
            return AbstractValue(category, nullable)
        if name == "COALESCE":
            nullable = all(arg.nullable for arg in args) if args else True
            category = next(
                (arg.category for arg in args if arg.category != "null"), "unknown"
            )
            return AbstractValue(category, nullable)
        if name == "NULLIF":
            category = args[0].category if args else "unknown"
            return AbstractValue(category, nullable=True)
        return AbstractValue("unknown", True)

    def _case(self, expr: ast.CaseExpr, scope: _Scope) -> AbstractValue:
        if expr.operand is not None:
            self.type_of(expr.operand, scope)
        results: list[AbstractValue] = []
        for when, then in expr.branches:
            self.type_of(when, scope)
            results.append(self.type_of(then, scope))
        if expr.else_result is not None:
            results.append(self.type_of(expr.else_result, scope))
            nullable = any(result.nullable for result in results)
        else:
            nullable = True  # missing ELSE yields NULL
        category = next(
            (result.category for result in results if result.category != "null"),
            "unknown",
        )
        return AbstractValue(category, nullable)


def _numeric_join(left: AbstractValue, right: AbstractValue) -> str:
    categories = {left.category, right.category}
    for dominant in ("float", "decimal", "int"):
        if dominant in categories:
            return dominant
    return "unknown"
