"""Rule-based logical-plan rewrites.

Every rule must preserve the unrewritten plan's observable semantics
*exactly*: the same rows in the same order, and — harder — the same
errors.  That plan evaluates the whole WHERE clause on every candidate
row (three-valued AND evaluates both operands), so any rewrite that
changes *which rows* an expression is evaluated on is only sound when
that expression is **total**: provably unable to raise for any row.
Totality is decided when the plan is compiled by :func:`is_total`, a
syntactic gate over declared column kinds and the kinds of the bound
parameters (:attr:`LogicalPlan.param_kinds`, which the engine's plan
cache keys on), read through the value lattice's kind and comparison
tables (:mod:`.lattice`); a conjunct that is not total for those kinds
keeps the conservative plan, so nothing is left to check at run time.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import UniqueKey
from repro.sqlengine.expressions import _AMBIGUOUS
from repro.sqlengine.plan.compiler import CMP_OPERATORS
from repro.sqlengine.plan.lattice import CATEGORY_KIND, CLASS_CATEGORY, COMPARE
from repro.sqlengine.plan.logical import (
    Aggregate,
    CrossJoin,
    Derived,
    Distinct,
    Filter,
    HashJoin,
    IndexLookup,
    Limit,
    LogicalPlan,
    Project,
    Scan,
    Sort,
    blocks,
)
from repro.sqlengine.values import (
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

_ARITHMETIC = {"+": sql_add, "-": sql_sub, "*": sql_mul, "/": sql_div}


# -- shared analysis ---------------------------------------------------------

#: Kind of a ``?`` in a plan compiled without bound values (EXPLAIN):
#: compatible with any one operand it is compared with.
_ANY_KIND = "?"


def _column_index(resolution: dict, ref: ast.ColumnRef) -> Optional[int]:
    """Combined column index, or None for unknown/ambiguous refs."""
    index = resolution.get(ref.key)
    if index is None or index == _AMBIGUOUS:
        return None
    return index


def _scan_of(plan: LogicalPlan, column_index: int) -> int:
    for position, scan in enumerate(plan.scans):
        if scan.offset <= column_index < scan.offset + scan.width:
            return position
    raise AssertionError("column index outside all scans")


def _scans_used(plan: LogicalPlan, expr: ast.Expression) -> Optional[set[int]]:
    """Scan positions referenced by ``expr``; None when a reference
    does not resolve (unknown or ambiguous column)."""
    resolution = plan.resolution()
    used: set[int] = set()
    for node in ast.walk_expressions(expr):
        if isinstance(node, ast.ColumnRef):
            index = _column_index(resolution, node)
            if index is None:
                return None
            used.add(_scan_of(plan, index))
    return used


def _leaf_kind(plan: LogicalPlan, expr: ast.Expression) -> Optional[str]:
    """Comparison kind of a column, literal or ``?`` operand, or
    :data:`_ANY_KIND` for an EXPLAIN-time parameter; None when unknown,
    for any other operand, and for a boolean column (rare, and its
    numeric reconcile rules are asymmetric: its conjuncts stay whole)."""
    if isinstance(expr, ast.Literal):
        return CATEGORY_KIND[CLASS_CATEGORY.get(type(expr.value), "unknown")]
    if isinstance(expr, ast.Parameter):
        param_kinds = plan.param_kinds
        if param_kinds is None:
            return _ANY_KIND
        return param_kinds[expr.index] if expr.index < len(param_kinds) else None
    if isinstance(expr, ast.ColumnRef):
        index = _column_index(plan.resolution(), expr)
        kind = None if index is None else plan.kinds[index]
        return None if kind == "b" else kind
    return None


def _comparable(left: Optional[str], right: Optional[str]) -> bool:
    """Comparing operands of these kinds never raises.  An EXPLAIN-time
    parameter takes the kind of the other operand; two of them give it
    none."""
    if left is None or right is None:
        return False
    if _ANY_KIND in (left, right):
        return left != right
    return COMPARE.get((left, right)) == "total"


def is_total(plan: LogicalPlan, expr: ast.Expression) -> bool:
    """The planner's totality gate: True when ``expr`` is a boolean
    expression that can never raise, whatever row of ``plan`` it sees —
    TRUE, FALSE or NULL, AND/OR/NOT of total expressions, or a
    comparison, BETWEEN, IN-list or IS NULL over columns, literals and
    parameters whose kinds the comparison table calls total.

    Deliberately syntactic: the lattice's interpreter proves everything
    this gate accepts, and more, but at several times the cost per
    conjunct on a path every literal statement compiles through."""
    if isinstance(expr, ast.Literal):
        return expr.value is None or isinstance(expr.value, bool)
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("AND", "OR"):
            return is_total(plan, expr.left) and is_total(plan, expr.right)
        return expr.op in CMP_OPERATORS and _comparable(
            _leaf_kind(plan, expr.left), _leaf_kind(plan, expr.right)
        )
    if isinstance(expr, ast.UnaryOp):
        return expr.op == "NOT" and is_total(plan, expr.operand)
    if isinstance(expr, ast.IsNullPredicate):
        return _leaf_kind(plan, expr.operand) is not None
    if isinstance(expr, ast.BetweenPredicate):
        value = _leaf_kind(plan, expr.operand)
        return _comparable(value, _leaf_kind(plan, expr.low)) and _comparable(
            value, _leaf_kind(plan, expr.high)
        )
    if isinstance(expr, ast.InPredicate) and expr.values is not None:
        value = _leaf_kind(plan, expr.operand)
        return value is not None and all(
            _comparable(value, _leaf_kind(plan, item)) for item in expr.values
        )
    return False


def unique_pin(
    plan: LogicalPlan, position: int, conjuncts: list[ast.Expression]
) -> Optional[tuple[UniqueKey, list[ast.Expression], list[str]]]:
    """The first uniqueness constraint of scan ``position`` whose every
    column some ``column = literal|?`` conjunct pins, with the probe
    expressions and the declared kinds of its columns; None when no
    constraint is fully pinned by columns of known kind."""
    scan = plan.scans[position]
    resolution = plan.resolution()
    pinned: dict[int, ast.Expression] = {}  # table-local index -> expr
    for conjunct in conjuncts:
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            continue
        for column, value in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if not isinstance(column, ast.ColumnRef):
                continue
            if not isinstance(value, (ast.Literal, ast.Parameter)):
                continue
            index = _column_index(resolution, column)
            if index is not None and scan.offset <= index < scan.offset + scan.width:
                pinned.setdefault(index - scan.offset, value)
    for key in plan.unique_sets[position]:
        if all(local in pinned for local in key.indices):
            kinds = [plan.kinds[scan.offset + local] for local in key.indices]
            if None not in kinds:
                return key, [pinned[local] for local in key.indices], kinds
    return None


def split_conjuncts(expr: ast.Expression) -> list[ast.Expression]:
    """Flatten a tree of ANDs into its conjuncts, in evaluation order."""
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


# -- tree plumbing -----------------------------------------------------------


def _projection(plan: LogicalPlan):
    """The Project/Aggregate node of the canonical pipeline chain."""
    node = plan.root
    while isinstance(node, (Limit, Sort, Distinct)):
        node = node.child
    return node


def _comma_leaves(node: Any) -> bool:
    """True when ``node`` is one FROM leaf or comma-joined leaves (no
    explicit join, whose ON condition scopes its own columns)."""
    if isinstance(node, CrossJoin):
        return _comma_leaves(node.left) and _comma_leaves(node.right)
    return isinstance(node, (Scan, Derived))


# -- rules -------------------------------------------------------------------


def constant_folding(plan: LogicalPlan) -> None:
    """Evaluate literal-only subexpressions at plan time.

    Folding happens in a *copy* of the expression tree — the original
    AST is shared with every other plan of the statement and with
    prepared-statement caches, so it is never mutated.  Subexpressions
    whose evaluation raises (``1/0``) are left unfolded: the error must
    keep surfacing per-row at runtime, exactly as unfolded.
    """
    folded_any = [False]

    def fold(expr: ast.Expression) -> ast.Expression:
        if isinstance(expr, ast.BinaryOp):
            left, right = fold(expr.left), fold(expr.right)
            if isinstance(left, ast.Literal) and isinstance(right, ast.Literal):
                result = _fold_binary(expr.op, left.value, right.value)
                if result is not _NO_FOLD:
                    folded_any[0] = True
                    return ast.Literal(result)
            if left is not expr.left or right is not expr.right:
                return ast.BinaryOp(expr.op, left, right)
            return expr
        if isinstance(expr, ast.UnaryOp):
            operand = fold(expr.operand)
            if isinstance(operand, ast.Literal):
                result = _fold_unary(expr.op, operand.value)
                if result is not _NO_FOLD:
                    folded_any[0] = True
                    return ast.Literal(result)
            if operand is not expr.operand:
                return ast.UnaryOp(expr.op, operand)
            return expr
        if isinstance(expr, ast.FunctionCall):
            args = [fold(arg) for arg in expr.args]
            if any(new is not old for new, old in zip(args, expr.args)):
                return ast.FunctionCall(expr.name, args, expr.distinct, expr.star)
            return expr
        if isinstance(expr, ast.CastExpr):
            operand = fold(expr.operand)
            if operand is not expr.operand:
                return ast.CastExpr(operand, expr.type_name, expr.type_args)
            return expr
        if isinstance(expr, ast.IsNullPredicate):
            operand = fold(expr.operand)
            if operand is not expr.operand:
                return ast.IsNullPredicate(operand, expr.negated)
            return expr
        if isinstance(expr, ast.BetweenPredicate):
            operand, low, high = fold(expr.operand), fold(expr.low), fold(expr.high)
            if (operand, low, high) != (expr.operand, expr.low, expr.high):
                return ast.BetweenPredicate(operand, low, high, expr.negated)
            return expr
        if isinstance(expr, ast.InPredicate) and expr.values is not None:
            operand = fold(expr.operand)
            values = [fold(item) for item in expr.values]
            if operand is not expr.operand or any(
                new is not old for new, old in zip(values, expr.values)
            ):
                return ast.InPredicate(operand, values=values, negated=expr.negated)
            return expr
        return expr

    def fold_node(node: Any) -> None:
        if isinstance(node, (Limit, Sort, Distinct)):
            if isinstance(node, Sort):
                node.order_by = [
                    ast.OrderItem(fold(item.expression), item.descending)
                    for item in node.order_by
                ]
            fold_node(node.child)
            return
        if isinstance(node, (Project, Aggregate)):
            node.items = [
                item
                if isinstance(item.expression, ast.Star)
                else ast.SelectItem(fold(item.expression), item.alias)
                for item in node.items
            ]
            if isinstance(node, Aggregate):
                node.group_by = [fold(expr) for expr in node.group_by]
                if node.having is not None:
                    node.having = fold(node.having)
            fold_node(node.child)
            return
        if isinstance(node, Filter):
            node.conjuncts = [fold(conjunct) for conjunct in node.conjuncts]
            fold_node(node.child)
            return
        if isinstance(node, (CrossJoin, HashJoin)):
            fold_node(node.left)
            fold_node(node.right)

    fold_node(plan.root)
    if folded_any[0]:
        plan.applied_rules.append("constant_folding")


_NO_FOLD = object()


def _fold_binary(op: str, left: Any, right: Any) -> Any:
    try:
        if op in _ARITHMETIC:
            return _ARITHMETIC[op](left, right)
        if op == "||":
            return sql_concat(left, right)
        if op in CMP_OPERATORS:
            cmp = sql_compare(left, right)
            if cmp is None:
                return None
            return CMP_OPERATORS[op](cmp, 0)
        if op in ("AND", "OR"):
            for value in (left, right):
                if not (value is None or isinstance(value, bool)):
                    return _NO_FOLD
            return tri_and(left, right) if op == "AND" else tri_or(left, right)
    except Exception:
        return _NO_FOLD
    return _NO_FOLD


def _fold_unary(op: str, value: Any) -> Any:
    try:
        if op == "-":
            return sql_neg(value)
        if op == "+":
            return value
        if op == "NOT":
            if value is None or isinstance(value, bool):
                return tri_not(value)
    except Exception:
        return _NO_FOLD
    return _NO_FOLD


def predicate_pushdown(plan: LogicalPlan) -> None:
    """Split a total WHERE into pushed conjunct filters: over a cross
    join, per-scan filters and hash equi-joins; over a single scan, one
    conjunct list.

    Only fires when *every* conjunct is total: a pushed filter stops at
    the first conjunct that rejects a row, so the conjuncts after it are
    not evaluated on that row, which is observable whenever one can
    raise.  A WHERE that is not total stays one expression, evaluated
    whole on every row.
    """
    projection = _projection(plan)
    node = projection.child
    if not isinstance(node, Filter) or not isinstance(node.child, (Scan, CrossJoin)):
        return
    if not _comma_leaves(node.child):
        return
    conjuncts: list[ast.Expression] = []
    for predicate in node.conjuncts:
        conjuncts.extend(split_conjuncts(predicate))
    if not all(is_total(plan, conjunct) for conjunct in conjuncts):
        return
    if isinstance(node.child, Scan):
        projection.child = Filter(conjuncts, node.child, pushed=True)
        plan.applied_rules.append("predicate_pushdown")
        return

    per_scan: dict[int, list[ast.Expression]] = {}
    equi_pairs: list[tuple[int, int, ast.BinaryOp]] = []  # (scan, scan, a=b)
    residual: list[ast.Expression] = []
    resolution = plan.resolution()
    for conjunct in conjuncts:
        used = _scans_used(plan, conjunct)
        if used is None:
            return  # unresolvable reference despite totality: be safe
        if len(used) <= 1:
            target = next(iter(used)) if used else 0
            per_scan.setdefault(target, []).append(conjunct)
            continue
        if (
            len(used) == 2
            and isinstance(conjunct, ast.BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
        ):
            left_scan = _scan_of(plan, _column_index(resolution, conjunct.left))
            right_scan = _scan_of(plan, _column_index(resolution, conjunct.right))
            equi_pairs.append((left_scan, right_scan, conjunct))
            continue
        residual.append(conjunct)

    pushed_any = bool(per_scan) or bool(equi_pairs)
    if not pushed_any:
        return

    def source(position: int) -> Any:
        scan = plan.scans[position]
        filters = per_scan.get(position)
        if filters:
            return Filter(list(filters), scan, pushed=True)
        return scan

    joined = {0}
    tree = source(0)
    used_pairs: set[int] = set()
    for position in range(1, len(plan.scans)):
        join_pair = None
        for pair_index, (a, b, conjunct) in enumerate(equi_pairs):
            if pair_index in used_pairs:
                continue
            if (a in joined and b == position) or (b in joined and a == position):
                join_pair = (pair_index, conjunct, a in joined)
                break
        right = source(position)
        if join_pair is None:
            tree = CrossJoin(tree, right)
        else:
            pair_index, conjunct, left_first = join_pair
            used_pairs.add(pair_index)
            left_key = conjunct.left if left_first else conjunct.right
            right_key = conjunct.right if left_first else conjunct.left
            key_kind = plan.kinds[_column_index(resolution, left_key)]
            if key_kind == "b":
                key_kind = "n"
            tree = HashJoin(tree, right, left_key, right_key, key_kind)
        joined.add(position)
    # Equi pairs that were not consumed as join keys stay as residual
    # predicates, in their original conjunct order relative to `residual`.
    leftover = [
        conjunct
        for pair_index, (_, _, conjunct) in enumerate(equi_pairs)
        if pair_index not in used_pairs
    ]
    post = leftover + residual
    projection.child = Filter(post, tree) if post else tree
    plan.applied_rules.append("predicate_pushdown")


def index_selection(plan: LogicalPlan) -> None:
    """Replace a filtered scan with a unique-key point lookup when a
    total conjunct set pins every column of a uniqueness constraint to a
    row-independent value."""
    applied = [False]

    def try_scan(filter_node: Filter, scan: Scan) -> None:
        conjuncts: list[ast.Expression] = []
        for predicate in filter_node.conjuncts:
            conjuncts.extend(split_conjuncts(predicate))
        if not all(is_total(plan, conjunct) for conjunct in conjuncts):
            return
        pin = unique_pin(plan, plan.scans.index(scan), conjuncts)
        if pin is None:
            return
        key, exprs, kinds = pin
        filter_node.child = IndexLookup(
            scan=scan,
            index_name=key.name,
            key_columns=key.columns,
            key_indices=list(key.indices),
            key_exprs=exprs,
            key_kinds=kinds,
        )
        applied[0] = True

    def walk(node: Any) -> None:
        if isinstance(node, (Limit, Sort, Distinct, Project, Aggregate)):
            walk(node.child)
        elif isinstance(node, Filter):
            if isinstance(node.child, Scan):
                try_scan(node, node.child)
            else:
                walk(node.child)
        elif isinstance(node, (CrossJoin, HashJoin)):
            walk(node.left)
            walk(node.right)

    walk(plan.root)
    if applied[0]:
        plan.applied_rules.append("index_selection")


#: Registered rewrite rules, in application order.  The lint layer
#: cross-checks that every rule here is exercised by at least one corpus
#: or sqlgen script (dead-rewrite detection).
REWRITE_RULES = {
    "constant_folding": constant_folding,
    "predicate_pushdown": predicate_pushdown,
    "index_selection": index_selection,
}


#: Witness scripts for the registry above: replayed by the lint's
#: dead-rewrite check (alongside the bug corpus and the generated TPC-C
#: mix), which warns when a registered rule fires on none of them.
#: That catches both a rule that regressed into never applying and a
#: new rule registered without a live witness — add one here when
#: adding a rule.
PROBE_SCRIPTS = (
    "CREATE TABLE probe_a (id INTEGER PRIMARY KEY, val INTEGER)",
    "CREATE TABLE probe_b (id INTEGER PRIMARY KEY, ref INTEGER)",
    "INSERT INTO probe_a (id, val) VALUES (1, 10)",
    "INSERT INTO probe_b (id, ref) VALUES (1, 1)",
    # constant_folding:
    "SELECT val FROM probe_a WHERE val > 1 + 1",
    # predicate_pushdown:
    "SELECT probe_a.val FROM probe_a, probe_b "
    "WHERE probe_a.id = probe_b.ref AND probe_a.val > 0",
    # index_selection:
    "SELECT val FROM probe_a WHERE id = 1",
)


def apply_rewrites(plan: LogicalPlan) -> LogicalPlan:
    """Apply every registered rule, in order, to each block of ``plan``."""
    for block in blocks(plan):
        for rule in REWRITE_RULES.values():
            rule(block)
    return plan
