"""Dialect-divergence abstract interpretation.

Two off-the-shelf SQL products can disagree on a query without either
being faulty: integer vs exact division, NULL's position under ORDER
BY, ``NULL || 'x'``, CHAR padding and trailing-blank comparison rules,
whether a DATE renders with a midnight time component, and numeric
scale preservation are all *dialect* semantics the paper's comparator
had to tolerate.  The middleware's normalizer and translator embody
those semantics dynamically; this module makes them a *static* fact.

The analyzer walks one statement's expression trees and collects
:class:`DivergenceAtom` sites — (operator, rule) pairs where the answer
depends on a :class:`SemanticProfile` field.  It types nothing itself:
each site reads the category and nullability of its operands from the
shared value lattice (:class:`repro.sqlengine.plan.lattice.Interpreter`)
over a :class:`~repro.analysis.predicates.PredicateEnv` built from the
:class:`~repro.analysis.schema.ScriptSchema` — per SELECT core, columns
under an outer join nullable, or per table for INSERT/UPDATE/DELETE.
For a product pair the verdict is then:

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

from repro.analysis.predicates import PredicateEnv, flatten_from
from repro.analysis.schema import ScriptSchema
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.functions import VOLATILE_FUNCTIONS
from repro.sqlengine.plan.compiler import CMP_OPERATORS
from repro.sqlengine.plan.lattice import (
    TOP_VALUE,
    AbstractValue,
    Interpreter,
    category_of_type_name,
)

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
    classes: Optional[tuple[type, ...]] = None,
) -> StatementDivergence:
    """Collect one statement's dialect-sensitive sites.

    ``classes`` are the classes of the values bound to the statement's
    ``?`` parameters when those values were lifted from a literal
    statement: each parameter then has the facts of a literal of its
    class, so the shape's analysis is the literal statement's.  Without
    them a parameter's type is unknown."""
    walk = _AtomWalk(schema or ScriptSchema(), classes or ())
    if isinstance(stmt, ast.SelectStatement):
        walk.select(stmt, top_level=True)
    elif isinstance(stmt, ast.Insert):
        walk.table(stmt.table)
        for row in stmt.rows or []:
            for expr in row:
                walk.expression(expr)
        if stmt.query is not None:
            walk.select(stmt.query)
    elif isinstance(stmt, (ast.Update, ast.Delete)):
        walk.table(stmt.table)
        if isinstance(stmt, ast.Update):
            for _, expr in stmt.assignments:
                walk.expression(expr)
        if stmt.where is not None:
            walk.expression(stmt.where)
    # DDL and transaction control have no dialect-sensitive answers the
    # comparator votes on (status-only results): no atoms.
    return StatementDivergence(atoms=walk.atoms, unknowns=walk.unknowns)


class _AtomWalk:
    """One statement's walk: every expression in evaluation order, each
    dialect-sensitive site read off the shared interpreter's category and
    nullability facts for its operands."""

    def __init__(self, schema: ScriptSchema, classes: tuple[type, ...]) -> None:
        self.schema = schema
        self.classes = classes
        self.interp: Optional[Interpreter] = None
        self.atoms: list[DivergenceAtom] = []
        self.unknowns: list[str] = []

    def table(self, name: str) -> None:
        """Read facts from one table's columns (INSERT/UPDATE/DELETE)."""
        self.interp = Interpreter(PredicateEnv.for_table(name, self.schema, self.classes))

    def select(self, stmt: ast.SelectStatement, top_level: bool = False) -> None:
        outer = self.interp
        output: list[AbstractValue] = []
        first: Optional[Interpreter] = None
        for core in stmt.cores():
            # Facts from this core's FROM clause.
            self.interp = Interpreter(PredicateEnv.for_select(core, self.schema, self.classes))
            first = first or self.interp
            for item in core.from_items:
                self._from_item(item)
            outer_join = any(
                isinstance(item, ast.Join) and item.kind in ("LEFT", "RIGHT", "FULL")
                for item in core.from_items
            )
            core_output: list[AbstractValue] = []
            for select_item in core.items:
                expr = select_item.expression
                self.expression(expr)
                if isinstance(expr, ast.Star):
                    self._star(expr, core)
                    value = TOP_VALUE
                else:
                    value = self.interp.value(expr)
                    if top_level:
                        self._rendering_atoms(value.category)
                if outer_join:
                    value = AbstractValue(value.category)
                core_output.append(value)
            if not output:
                output = core_output
            for expr in (core.where, *core.group_by, core.having):
                if expr is not None:
                    self.expression(expr)
        self.interp = first
        for order_item in stmt.order_by:
            expr = order_item.expression
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                # Positional ORDER BY (ORDER BY 1) sorts the nth output item.
                index = expr.value - 1
                value = output[index] if 0 <= index < len(output) else TOP_VALUE
            else:
                self.expression(expr)
                value = self.interp.value(expr)
            if value.nullable:
                self.atoms.append(DivergenceAtom.make("ORDER BY", "null-sort-position"))
        self.interp = outer

    def _from_item(self, item: ast.FromItem) -> None:
        if isinstance(item, ast.SubqueryRef):
            # Derived-table columns are analyzed inside the subquery;
            # references through the alias have unknown type.
            self.select(item.subquery)
        elif isinstance(item, ast.Join):
            self._from_item(item.left)
            self._from_item(item.right)
            if item.condition is not None:
                self.expression(item.condition)

    def _rendering_atoms(self, category: str) -> None:
        """Atoms for how a selected value *renders* to the client."""
        rule = _RENDERING_RULES.get(category)
        if rule is not None:
            self.atoms.append(DivergenceAtom.make("SELECT item", rule))

    def _star(self, expr: ast.Star, core: ast.SelectCore) -> None:
        """Rendering atoms for every column ``*`` expands to."""
        scope = {}  # binding name -> relation name
        for item in flatten_from(core.from_items):
            binding = item.binding_name.lower()
            is_table = isinstance(item, ast.TableRef)
            scope[binding] = item.name.lower() if is_table else f"@derived:{binding}"
        qualifier = expr.table.lower() if expr.table is not None else None
        relations = [scope[qualifier]] if qualifier in scope else list(scope.values())
        resolved = False
        for relation in relations:
            table = self.schema.table(relation)
            if table is None:
                continue
            resolved = True
            for column in table.columns:
                fact = self.schema.column_fact(relation, column)
                if fact is not None:
                    self._rendering_atoms(category_of_type_name(fact[0]))
        if not resolved and relations:
            self.unknowns.append(
                "unresolvable * expansion over " + ", ".join(sorted(relations))
            )

    def expression(self, expr: ast.Expression) -> None:
        """Collect the atoms of one expression tree, children first."""
        if isinstance(expr, ast.FunctionCall) and expr.name.upper() in VOLATILE_FUNCTIONS:
            self.unknowns.append(f"volatile function {expr.name.upper()}")
            return
        for child in expr.children():
            self.expression(child)
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "/":
                left = self.interp.value(expr.left).category
                right = self.interp.value(expr.right).category
                if left == right == "int":
                    self.atoms.append(DivergenceAtom.make("/", "integer-division"))
                elif "unknown" in (left, right):
                    self.unknowns.append("operand of '/' has unknown type")
            elif expr.op == "||":
                if self.interp.value(expr.left).nullable or self.interp.value(expr.right).nullable:
                    self.atoms.append(DivergenceAtom.make("||", "null-concat"))
            elif expr.op in CMP_OPERATORS:
                self._comparison(expr.op, expr.left, expr.right)
        elif isinstance(expr, ast.BetweenPredicate):
            self._comparison("BETWEEN", expr.operand, expr.low)
            self._comparison("BETWEEN", expr.operand, expr.high)
        elif isinstance(expr, ast.InPredicate):
            for value in expr.values or []:
                self._comparison("IN", expr.operand, value)
        if isinstance(expr, (ast.InPredicate, ast.ExistsPredicate, ast.ScalarSubquery)):
            if expr.subquery is not None:
                self.select(expr.subquery)

    def _comparison(self, op: str, left: ast.Expression, right: ast.Expression) -> None:
        categories = (self.interp.value(left).category, self.interp.value(right).category)
        if "char" in categories:
            self.atoms.append(DivergenceAtom.make(op, "trailing-blank-comparison"))


#: The rendering rule a selected value of each category is subject to.
_RENDERING_RULES = {
    "char": "char-padding",
    "date": "date-midnight-fold",
    "decimal": "numeric-scale",
}
