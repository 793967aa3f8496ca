"""Per-statement semantic verdicts: order, access, and portability.

The middleware can only adjudicate what it can compare, and it can only
recover what it can safely re-execute.  Both questions are decidable
statically for the SQL subset the study uses, and both were previously
answered by blanket rules ("ordered comparison always", "reads retry
once, writes never").  This module replaces the blanket rules with
proofs over the AST plus the script's observed schema:

Order determinism (:class:`OrderVerdict`)
    * ``TOTAL`` — the result row order is fully determined: ORDER BY
      covers a unique key of the single scanned table, or the result is
      provably a single row (aggregate without GROUP BY), or a
      deduplicated body is ordered by *all* of its output columns, or
      the ORDER BY covers the full GROUP BY key.
    * ``PARTIAL`` — ORDER BY is present but ties are possible; peers
      must agree on content and on the sort, but tie order is the
      product's choice.
    * ``UNORDERED`` — no ORDER BY: SQL guarantees nothing about order,
      so two correct products may legitimately return different
      permutations of the same rows.  The comparator votes on the
      row *multiset* instead of the sequence.
    * ``NONDETERMINISTIC`` — the *content* may differ between correct
      executions: volatile functions (GETDATE, GEN_ID), or LIMIT
      without a total order (the cut point is arbitrary).

Access (:class:`AccessVerdict`)
    Relations read vs written, plus two grades of re-execution safety:

    * ``idempotent`` — running the statement twice leaves the same
      database state as running it once (DELETE qualifies; an UPDATE
      qualifies when no assigned column appears in its own right-hand
      sides).
    * ``reexecution_safe`` — idempotent *and* the answer (rowcount) is
      reproducible, which is what a voting retry actually needs.  A
      DELETE is idempotent but not reexecution-safe: the re-run reports
      0 affected rows and would falsely diverge from the vote.  An
      UPDATE is reexecution-safe when its assigned columns are disjoint
      from every column its WHERE clause and right-hand sides read.

Portability (:class:`PortabilityVerdict`)
    The study's Table 1 splits each (bug script, server) cell into
    can-run / cannot-run / further-work before any execution happens —
    the authors decided portability by *reading* the script.
    :func:`script_portability` does the same mechanically: a script's
    feature traits against each dialect's gated-feature matrix yield a
    per-server prediction, with no error-message parsing and no
    execution.  The dynamic path
    (:func:`repro.dialects.translator.translate_script`) must agree
    with the static prediction: both derive from
    ``DialectDescriptor.missing_tags``, so any disagreement means the
    translator's token rewrite and the trait extraction have drifted
    apart.  ``python -m repro lint`` enforces that agreement
    corpus-wide.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.analysis.schema import ScriptSchema
from repro.dialects.features import SERVER_KEYS, dialect
from repro.dialects.translator import ScriptPieces
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.analysis import StatementTraits, extract_traits
from repro.sqlengine.functions import AGGREGATE_NAMES, VOLATILE_FUNCTIONS
from repro.sqlengine.sqlgen import render_expression

#: Statement kinds that modify state and must reach every replica (and
#: be replayed on recovery).  The single source of truth — the
#: middleware imports it.
WRITE_KINDS = frozenset(
    {
        "insert",
        "update",
        "delete",
        "create_table",
        "create_view",
        "create_index",
        "drop_table",
        "drop_view",
        "drop_index",
        "alter_table",
        "begin",
        "commit",
        "rollback",
        "savepoint",
    }
)

#: Statement kinds that change the schema (the subset of
#: :data:`WRITE_KINDS` that invalidates schema-keyed caches and makes
#: up a replica's DDL history in durable checkpoints).
DDL_KINDS = frozenset(
    {
        "create_table",
        "create_view",
        "create_index",
        "drop_table",
        "drop_view",
        "drop_index",
        "alter_table",
    }
)


class OrderVerdict(enum.Enum):
    """How stable is the result row order across correct products?"""

    TOTAL = "total"
    PARTIAL = "partial"
    UNORDERED = "unordered"
    NONDETERMINISTIC = "nondeterministic"


@dataclass(frozen=True)
class AccessVerdict:
    """Read/write sets and re-execution safety of one statement."""

    reads: frozenset[str]
    writes: frozenset[str]
    is_write: bool
    idempotent: bool
    reexecution_safe: bool


@dataclass(frozen=True)
class StatementVerdict:
    """The analyzer's full output for one statement."""

    kind: str
    order: OrderVerdict
    access: AccessVerdict
    volatile: frozenset[str]

    @property
    def multiset_comparable(self) -> bool:
        """True when replica answers should be voted as row multisets:
        a SELECT whose order the standard leaves to the product."""
        return self.kind == "select" and self.order is OrderVerdict.UNORDERED


def analyze_statement(
    stmt: ast.Statement,
    schema: Optional[ScriptSchema] = None,
    traits: Optional[StatementTraits] = None,
) -> StatementVerdict:
    """Compute the static verdict for one parsed statement.

    ``schema`` supplies unique-key and view facts from the script so
    far; without it, order proofs that need keys degrade conservatively
    (``PARTIAL`` instead of ``TOTAL``).  ``traits`` may be passed when
    the caller already extracted them.
    """
    if schema is None:
        schema = ScriptSchema()
    if traits is None:
        traits = extract_traits(stmt)
    volatile = frozenset(
        name for name in VOLATILE_FUNCTIONS if f"fn.{name}" in traits.tags
    )
    order = _order_verdict(stmt, schema, volatile)
    access = _access_verdict(stmt, traits, volatile)
    return StatementVerdict(
        kind=traits.kind, order=order, access=access, volatile=volatile
    )


# -- order determinism ------------------------------------------------------


def _order_verdict(
    stmt: ast.Statement, schema: ScriptSchema, volatile: frozenset[str]
) -> OrderVerdict:
    if not isinstance(stmt, ast.SelectStatement):
        # Non-queries answer with a rowcount; there is no row order to
        # disagree about.
        return OrderVerdict.TOTAL
    if volatile:
        return OrderVerdict.NONDETERMINISTIC
    if _single_row(stmt):
        return OrderVerdict.TOTAL
    if not stmt.order_by:
        if stmt.limit is not None:
            # LIMIT over an arbitrary scan order: the returned subset
            # itself is the product's choice.
            return OrderVerdict.NONDETERMINISTIC
        return OrderVerdict.UNORDERED
    if _order_is_total(stmt, schema):
        return OrderVerdict.TOTAL
    if stmt.limit is not None:
        # The sort is partial, so rows tied at the cut point are kept
        # or dropped arbitrarily.
        return OrderVerdict.NONDETERMINISTIC
    return OrderVerdict.PARTIAL


def _single_row(stmt: ast.SelectStatement) -> bool:
    """Provably exactly one result row: a lone SELECT core whose every
    output item is an aggregate call, with no GROUP BY."""
    if not isinstance(stmt.body, ast.SelectCore):
        return False
    core = stmt.body
    if core.group_by:
        return False
    if not core.items:
        return False
    return all(
        isinstance(item.expression, ast.FunctionCall)
        and item.expression.name in AGGREGATE_NAMES
        for item in core.items
    )


def _order_is_total(stmt: ast.SelectStatement, schema: ScriptSchema) -> bool:
    # Proof 1: single base-table scan ordered by (a superset of) one of
    # the table's unique keys.  Scans neither duplicate nor merge rows,
    # so a unique key orders the output totally.
    if isinstance(stmt.body, ast.SelectCore):
        core = stmt.body
        if (
            not core.group_by
            and len(core.from_items) == 1
            and isinstance(core.from_items[0], ast.TableRef)
        ):
            ref = core.from_items[0]
            order_columns = _plain_order_columns(stmt.order_by, ref)
            if order_columns is not None:
                for key in schema.unique_keys(ref.name):
                    if key <= order_columns:
                        return True
        # Proof 2: grouped result ordered by the full grouping key —
        # one row per group, keyed by the GROUP BY expressions.
        if core.group_by:
            rendered_group = {render_expression(expr) for expr in core.group_by}
            rendered_order = {
                render_expression(item.expression) for item in stmt.order_by
            }
            if rendered_group <= rendered_order:
                return True
    # Proof 3: a deduplicated body ordered by all of its output columns.
    # Distinct rows + a sort over every column = a total lexicographic
    # order.
    if _body_dedups(stmt, schema):
        width = _output_width(stmt, schema)
        if width is not None:
            positions = _order_positions(stmt, schema, width)
            if positions is not None and positions == set(range(1, width + 1)):
                return True
    return False


def _plain_order_columns(
    order_by: list[ast.OrderItem], ref: ast.TableRef
) -> Optional[frozenset[str]]:
    """Lower-cased column names of an ORDER BY made only of column
    references (optionally qualified by the scanned table), or None."""
    names: set[str] = set()
    valid_qualifiers = {None, ref.name.lower()}
    if ref.alias:
        valid_qualifiers.add(ref.alias.lower())
    for item in order_by:
        expr = item.expression
        if not isinstance(expr, ast.ColumnRef):
            return None
        qualifier = expr.table.lower() if expr.table else None
        if qualifier not in valid_qualifiers:
            return None
        names.add(expr.name.lower())
    return frozenset(names)


def _body_dedups(stmt: ast.SelectStatement, schema: ScriptSchema) -> bool:
    body = stmt.body
    if isinstance(body, ast.SetOperation):
        return not body.all
    if body.distinct:
        return True
    # SELECT * FROM <dedup view>: the view body already deduplicated.
    view = _sole_view(body, schema)
    return view is not None and view.dedup


def _sole_view(body: ast.SelectCore, schema: ScriptSchema):
    """The view scanned by a bare ``SELECT [*] FROM v``, if that is the
    whole FROM clause."""
    if len(body.from_items) == 1 and isinstance(body.from_items[0], ast.TableRef):
        return schema.view(body.from_items[0].name)
    return None


def _output_width(stmt: ast.SelectStatement, schema: ScriptSchema) -> Optional[int]:
    cores = stmt.cores()
    if not cores:
        return None
    items = cores[0].items
    if any(isinstance(item.expression, ast.Star) for item in items):
        if isinstance(stmt.body, ast.SelectCore) and len(items) == 1:
            view = _sole_view(stmt.body, schema)
            if view is not None:
                return view.output_width()
        return None
    return len(items)


def _order_positions(
    stmt: ast.SelectStatement, schema: ScriptSchema, width: int
) -> Optional[set[int]]:
    """Map each ORDER BY item to an output column position (1-based);
    None when any item cannot be resolved."""
    cores = stmt.cores()
    items = cores[0].items if cores else []
    star_output = any(isinstance(item.expression, ast.Star) for item in items)
    rendered: list[Optional[str]] = []
    aliases: list[Optional[str]] = []
    if not star_output:
        for item in items:
            rendered.append(render_expression(item.expression))
            aliases.append(item.alias.lower() if item.alias else None)
    positions: set[int] = set()
    for order_item in stmt.order_by:
        expr = order_item.expression
        position: Optional[int] = None
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            if 1 <= expr.value <= width:
                position = expr.value
        elif not star_output:
            text = render_expression(expr)
            name = expr.name.lower() if isinstance(expr, ast.ColumnRef) else None
            for index in range(len(items)):
                if rendered[index] == text or (
                    name is not None and aliases[index] == name
                ):
                    position = index + 1
                    break
        if position is None:
            return None
        positions.add(position)
    return positions


# -- access / re-execution safety -------------------------------------------


def _access_verdict(
    stmt: ast.Statement, traits: StatementTraits, volatile: frozenset[str]
) -> AccessVerdict:
    deterministic = not volatile
    is_write = traits.kind in WRITE_KINDS
    has_subquery = any(tag.startswith("subquery.") for tag in traits.tags)

    if isinstance(stmt, ast.SelectStatement):
        return AccessVerdict(
            reads=frozenset(traits.relations),
            writes=frozenset(),
            is_write=False,
            idempotent=True,
            reexecution_safe=deterministic,
        )
    if isinstance(stmt, ast.Update):
        target = stmt.table.lower()
        assigned = frozenset(column.lower() for column, _ in stmt.assignments)
        rhs_columns: set[str] = set()
        for _, expr in stmt.assignments:
            rhs_columns |= _column_names(expr)
        where_columns = _column_names(stmt.where) if stmt.where is not None else set()
        idempotent = (
            deterministic and not has_subquery and not (assigned & rhs_columns)
        )
        return AccessVerdict(
            reads=frozenset(traits.relations),
            writes=frozenset({target}),
            is_write=True,
            idempotent=idempotent,
            reexecution_safe=idempotent and not (assigned & where_columns),
        )
    if isinstance(stmt, ast.Delete):
        target = stmt.table.lower()
        return AccessVerdict(
            reads=frozenset(traits.relations),
            writes=frozenset({target}),
            is_write=True,
            # Deleting the same rows again deletes nothing: state-idempotent.
            idempotent=deterministic and not has_subquery,
            # ...but the re-run reports rowcount 0, so the *answer* is
            # not reproducible: never safe for a voting retry.
            reexecution_safe=False,
        )
    if isinstance(stmt, ast.Insert):
        reads = frozenset(traits.relations) - {stmt.table.lower()}
        return AccessVerdict(
            reads=reads,
            writes=frozenset({stmt.table.lower()}),
            is_write=True,
            idempotent=False,
            reexecution_safe=False,
        )
    if is_write:
        # DDL and transaction control: re-running a CREATE errors, a
        # COMMIT commits someone else's work — never re-execute.
        return AccessVerdict(
            reads=frozenset(),
            writes=frozenset(traits.relations),
            is_write=True,
            idempotent=False,
            reexecution_safe=False,
        )
    return AccessVerdict(
        reads=frozenset(traits.relations),
        writes=frozenset(),
        is_write=False,
        idempotent=True,
        reexecution_safe=deterministic,
    )


def _column_names(expr: ast.Expression) -> set[str]:
    """Unqualified lower-cased column names referenced by an expression
    (subquery interiors excluded — their reads are tracked via traits)."""
    names: set[str] = set()
    for node in ast.walk_expressions(expr):
        if isinstance(node, ast.ColumnRef):
            names.add(node.name.lower())
    return names


# -- dialect portability ------------------------------------------------------


@dataclass(frozen=True)
class PortabilityVerdict:
    """Predicted outcome of hosting a script on one server."""

    server: str
    can_run: bool
    #: Gated feature tags the server lacks (empty when ``can_run``).
    missing: tuple[str, ...] = ()


def statement_portability(traits: StatementTraits, server: str) -> PortabilityVerdict:
    """Predict whether one statement's traits fit ``server``'s dialect."""
    missing = dialect(server).missing_tags(traits)
    return PortabilityVerdict(server=server, can_run=not missing, missing=tuple(missing))


def script_portability(script: ScriptPieces) -> dict[str, PortabilityVerdict]:
    """Predict each server's verdict for a whole script from traits
    alone (no execution, no translation attempt)."""
    traits = script.traits
    return {server: statement_portability(traits, server) for server in SERVER_KEYS}


def predicted_hosts(script: ScriptPieces) -> frozenset[str]:
    """Servers predicted to host the script (natively or translated)."""
    return frozenset(
        server
        for server, verdict in script_portability(script).items()
        if verdict.can_run
    )
