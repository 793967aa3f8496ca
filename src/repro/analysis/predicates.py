"""Ternary-logic predicate analyses over ``sqlengine`` expressions.

The lattices themselves — truth sets, nullability, intervals, value
categories and may-raise, with the interpreter that computes them — are
:mod:`repro.sqlengine.plan.lattice`'s, shared with the planner and the
divergence triage.  This module supplies the environment they are
computed in, :class:`PredicateEnv`: per-column facts seeded from
``ScriptSchema`` declared types and NOT NULL / PRIMARY KEY constraints,
widened to nullable under an outer join and to the top for views,
derived tables and ambiguous names, plus facts for ``?`` parameters
when their classes are known.

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
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.analysis import extract_traits
from repro.sqlengine.engine import Engine, ParsedStatement, statement_plans
from repro.sqlengine.expressions import contains_aggregate
from repro.sqlengine.plan import REWRITE_RULES, PhysicalSelect
from repro.sqlengine.plan.compiler import Scope, compile_expression
from repro.sqlengine.plan.lattice import (
    CATEGORY_KIND,
    CLASS_CATEGORY,
    TOP_VALUE,
    AbstractTruth,
    AbstractValue,
    Interpreter,
    category_of_class,
    category_of_type_name,
)
from repro.sqlengine.plan.logical import Filter, IndexLookup
from repro.sqlengine.plan.physical import _join_key
from repro.sqlengine.plan.rewrites import _NO_FOLD, _fold_binary, _fold_unary
from repro.sqlengine.sqlgen import render_statement
from repro.sqlengine.values import sql_compare, sql_equal, tri_and

# --------------------------------------------------------------------------
# Abstract row environments
# --------------------------------------------------------------------------

_AMBIGUOUS = object()


class PredicateEnv:
    """Abstract row environment: per-column lattice facts for the
    relations in scope, built from :class:`ScriptSchema`, and facts for
    the ``?`` parameters bound with values of known classes.

    Unresolvable references (unknown table, derived table, ambiguous
    unqualified name) and parameters of unknown class widen to
    :data:`TOP_VALUE` — sound because TOP includes every outcome and
    ``may_raise``.
    """

    def __init__(self, classes: Iterable[type] = ()) -> None:
        self._facts: dict[tuple[Optional[str], str], Any] = {}
        self._opaque: set[Optional[str]] = set()
        self._params = tuple(
            AbstractValue(
                category_of_class(cls),
                nullable=cls is type(None),
                definitely_null=cls is type(None),
            )
            for cls in classes
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def for_select(
        cls,
        core: ast.SelectCore,
        schema: Optional[ScriptSchema],
        classes: Iterable[type] = (),
    ) -> "PredicateEnv":
        env = cls(classes)
        schema = schema or ScriptSchema()
        outer_join = any(
            isinstance(item, ast.Join) and item.kind in ("LEFT", "RIGHT", "FULL")
            for item in core.from_items
        )
        for item in flatten_from(core.from_items):
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
        cls, table: str, schema: Optional[ScriptSchema], classes: Iterable[type] = ()
    ) -> "PredicateEnv":
        env = cls(classes)
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
                category_of_type_name(type_name) if type_name else "unknown",
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

    def parameter(self, index: int) -> AbstractValue:
        if index < len(self._params):
            return self._params[index]
        return TOP_VALUE


def flatten_from(items: Iterable[ast.FromItem]):
    """The table and subquery leaves of FROM items, joins flattened, in
    FROM order."""
    for item in items:
        if isinstance(item, ast.Join):
            yield from flatten_from((item.left, item.right))
        else:
            yield item


EMPTY_ENV = PredicateEnv()


def abstract_truth(
    expr: ast.Expression, env: Optional[PredicateEnv] = None
) -> AbstractTruth:
    """Abstract three-valued truth of a boolean position."""
    return Interpreter(env or EMPTY_ENV).truth(expr)


def abstract_value(
    expr: ast.Expression, env: Optional[PredicateEnv] = None
) -> AbstractValue:
    """Abstract value facts of an expression."""
    return Interpreter(env or EMPTY_ENV).value(expr)


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
    equal it, each built from the analysed tree (no parse) with its
    rendered text, equal to what parsing that text gives."""

    base: ParsedStatement
    #: WHERE p / WHERE NOT p / WHERE p IS NULL
    partitions: tuple[ParsedStatement, ParsedStatement, ParsedStatement]
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

    def select_with(where: Optional[ast.Expression]) -> ParsedStatement:
        statement = ast.SelectStatement(
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
        # No placeholders: a parameter blocks the partition.
        return ParsedStatement(
            render_statement(statement), statement, extract_traits(statement), ()
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
    expr: ast.CaseExpr, interp: Interpreter
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
        condition = interp.branch_condition(expr, when)
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
    interp = Interpreter(env)
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
    kind = CATEGORY_KIND[CLASS_CATEGORY[type(value)]]
    if fact.category != "unknown" and kind != CATEGORY_KIND[fact.category]:
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


def _select_plan(engine: Engine, sql: str):
    """The logical plan ``engine`` compiled to run the SELECT ``sql``."""
    parsed = ParsedStatement.parse(sql)
    engine.execute(parsed)
    plans = [
        plan
        for plan in statement_plans(parsed.statement)
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
            plan = _select_plan(engine, sql)
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
    plan = _select_plan(engine, "SELECT val FROM cert_a WHERE id = 1")
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
    plan = _select_plan(engine, "SELECT id FROM cert_a WHERE val = 1")
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
