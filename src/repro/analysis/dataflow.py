"""Whole-script dataflow: def/use graph, backward slices, minimization.

PR 3's analyzer proves facts about single statements; this module is
the script-level layer on top of it.  Every statement's *definition*
and *use* sets are computed over ``(relation, column)`` cells, resolved
against the incrementally grown :class:`~repro.analysis.schema.ScriptSchema`
(views expand to their body's reads at the position they are queried,
exactly as the engine expands them).  Composing the per-statement sets
in script order yields a def-use graph, from which three script-level
facts fall out:

* **Backward slices** — the minimal statement subsequence that
  preserves everything a target statement reads (and therefore its
  answer).  All dependence edges are conservative: when a column
  reference cannot be resolved, the whole relation is assumed.
* **Dead statements / dead columns** — writes whose effects no later
  SELECT can observe, and created columns no statement ever reads.
* **Script minimization** (:func:`minimize_script`) — a script shrunk
  to the backward slice of its targets and of every statement a fault
  trigger matches (:func:`trigger_matches`).  Applied to a corpus bug
  script (:func:`repro.bugs.minimize_report`) the anchors are the
  report's seeded fault triggers on every hosting server plus one
  carrier statement per gated dialect feature
  (:func:`portability_anchors`), so the static portability prediction
  (and hence the CANNOT_RUN / FURTHER_WORK cells of Table 1) is
  byte-for-byte preserved.  ``python -m repro lint`` validates every
  slice dynamically against the ground truth classification.

Cells
-----

A cell is ``(relation, column)`` with two distinguished columns:
``"*"`` (the relation's row set / any column — matches every cell of
the relation) and ``"@schema"`` (the relation's existence and
definition — created by DDL, read by every statement that names the
relation).  Transaction control is modeled as a *barrier*: it depends
on every earlier statement and every later statement depends on it
(ROLLBACK reverts arbitrary state, so nothing may move across it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.analysis.reachability import StaticContext
from repro.analysis.schema import ScriptSchema, ViewInfo
from repro.analysis.verdicts import WRITE_KINDS
from repro.dialects.features import SERVER_KEYS, dialect
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.analysis import StatementTraits, extract_traits
from repro.sqlengine.lexer import split_statements
from repro.sqlengine.parser import parse_statement

#: One dependence cell: (relation, column | "*" | "@schema").
Cell = tuple[str, str]

#: Statement kinds treated as dependence barriers (transaction control:
#: COMMIT/ROLLBACK affect, and depend on, arbitrary prior state).
_BARRIER_KINDS = frozenset({"begin", "commit", "rollback", "savepoint"})


@dataclass(frozen=True)
class DefUse:
    """The def/use sets of one statement."""

    defs: frozenset[Cell]
    uses: frozenset[Cell]
    barrier: bool = False


@dataclass(frozen=True)
class StatementNode:
    """One statement of a script, with its dataflow facts."""

    index: int
    sql: str
    kind: str
    defs: frozenset[Cell]
    uses: frozenset[Cell]
    barrier: bool


@dataclass
class ScriptGraph:
    """The def-use graph of one script."""

    nodes: list[StatementNode]
    #: deps[j] = indices i < j that statement j depends on.
    deps: list[frozenset[int]]

    def __len__(self) -> int:
        return len(self.nodes)

    def backward_slice(self, targets: Iterable[int]) -> list[int]:
        """Indices of the minimal subsequence preserving every target's
        reads (transitive closure over dependence edges), sorted."""
        pending = list(targets)
        kept: set[int] = set()
        while pending:
            index = pending.pop()
            if index in kept:
                continue
            if not 0 <= index < len(self.nodes):
                raise IndexError(f"statement index {index} out of range")
            kept.add(index)
            pending.extend(self.deps[index] - kept)
        return sorted(kept)

    def dead_statements(self) -> list[int]:
        """Write statements whose definitions no SELECT can observe."""
        selects = [n.index for n in self.nodes if n.kind == "select"]
        live = set(self.backward_slice(selects))
        return [
            node.index
            for node in self.nodes
            if node.index not in live and node.kind in WRITE_KINDS
        ]

    def dead_columns(self) -> list[Cell]:
        """Created columns no statement of the script ever reads."""
        created: dict[Cell, int] = {}
        for node in self.nodes:
            if node.kind in ("create_table", "alter_table"):
                for cell in node.defs:
                    if cell[1] not in ("*", "@schema"):
                        created.setdefault(cell, node.index)
        read: set[Cell] = set()
        wildcard_relations: set[str] = set()
        for node in self.nodes:
            for relation, column in node.uses:
                if column == "*":
                    wildcard_relations.add(relation)
                else:
                    read.add((relation, column))
        return sorted(
            cell
            for cell in created
            if cell not in read and cell[0] not in wildcard_relations
        )


# --------------------------------------------------------------------------
# Per-statement def/use extraction
# --------------------------------------------------------------------------


def statement_def_use(
    stmt: ast.Statement,
    schema: Optional[ScriptSchema] = None,
    traits: Optional[StatementTraits] = None,
) -> DefUse:
    """Def/use sets of one statement against the schema-so-far."""
    if schema is None:
        schema = ScriptSchema()
    if traits is None:
        traits = extract_traits(stmt)
    if traits.kind in _BARRIER_KINDS:
        return DefUse(defs=frozenset(), uses=frozenset(), barrier=True)

    defs: set[Cell] = set()
    uses: set[Cell] = set()
    if isinstance(stmt, ast.SelectStatement):
        uses |= _select_uses(stmt, schema)
    elif isinstance(stmt, ast.Insert):
        target = stmt.table.lower()
        defs.add((target, "*"))
        # Constraint checks read the existing rows (a duplicate key only
        # errors because of what is already there), so an INSERT uses
        # the table's content as well as its definition.
        uses |= {(target, "@schema"), (target, "*")}
        for row in stmt.rows or []:
            for expr in row:
                uses |= _expression_uses(expr, {target: target}, schema)
        if stmt.query is not None:
            uses |= _select_uses(stmt.query, schema)
    elif isinstance(stmt, ast.Update):
        target = stmt.table.lower()
        scope = {target: target}
        for column, expr in stmt.assignments:
            defs.add((target, column.lower()))
            uses |= _expression_uses(expr, scope, schema)
        if stmt.where is not None:
            uses |= _expression_uses(stmt.where, scope, schema)
        # The scanned row set (hence the rowcount) depends on membership.
        uses |= {(target, "@schema"), (target, "*")}
    elif isinstance(stmt, ast.Delete):
        target = stmt.table.lower()
        defs.add((target, "*"))
        if stmt.where is not None:
            uses |= _expression_uses(stmt.where, {target: target}, schema)
        uses |= {(target, "@schema"), (target, "*")}
    elif isinstance(stmt, ast.CreateTable):
        target = stmt.name.lower()
        defs |= {(target, "@schema"), (target, "*")}
        defs |= {(target, column.name.lower()) for column in stmt.columns}
        for column in stmt.columns:
            if column.references is not None:
                uses.add((column.references[0].lower(), "@schema"))
        for constraint in stmt.constraints:
            if constraint.references is not None:
                uses.add((constraint.references[0].lower(), "@schema"))
    elif isinstance(stmt, ast.CreateView):
        target = stmt.name.lower()
        defs |= {(target, "@schema"), (target, "*")}
        # Defining a view reads only the referenced relations'
        # *existence*; the body's data reads happen at query time and
        # are attributed to the statements that query the view.
        uses |= {
            cell for cell in _select_uses(stmt.query, schema) if cell[1] == "@schema"
        }
    elif isinstance(stmt, ast.CreateIndex):
        target = stmt.table.lower()
        defs.add((target, "@schema"))
        uses.add((target, "@schema"))
        uses |= {(target, column.lower()) for column in stmt.columns}
        if stmt.unique:
            # A unique index errors on duplicate content: content read.
            uses.add((target, "*"))
    elif isinstance(stmt, (ast.DropTable, ast.DropView)):
        target = stmt.name.lower()
        defs |= {(target, "@schema"), (target, "*")}
        uses.add((target, "@schema"))
    elif isinstance(stmt, ast.DropIndex):
        # The index's base table is not part of the AST node; fall back
        # to the traits' relation set (may be empty — conservative).
        for relation in traits.relations:
            defs.add((relation.lower(), "@schema"))
            uses.add((relation.lower(), "@schema"))
    elif isinstance(stmt, ast.AlterTableAddColumn):
        target = stmt.table.lower()
        defs |= {(target, "@schema"), (target, stmt.column.name.lower())}
        uses.add((target, "@schema"))
    else:  # pragma: no cover - every statement kind is handled above
        uses |= {(relation.lower(), "*") for relation in traits.relations}
    return DefUse(defs=frozenset(defs), uses=frozenset(uses))


def _select_uses(stmt: ast.SelectStatement, schema: ScriptSchema) -> set[Cell]:
    """Cells a SELECT (or view body / subquery) reads."""
    uses: set[Cell] = set()
    for core in stmt.cores():
        scope: dict[str, str] = {}
        for item in core.from_items:
            _bind_from_item(item, scope, uses, schema)
        for select_item in core.items:
            uses |= _expression_uses(select_item.expression, scope, schema)
        if core.where is not None:
            uses |= _expression_uses(core.where, scope, schema)
        for expr in core.group_by:
            uses |= _expression_uses(expr, scope, schema)
        if core.having is not None:
            uses |= _expression_uses(core.having, scope, schema)
        for order_item in stmt.order_by:
            uses |= _expression_uses(order_item.expression, scope, schema)
    return uses


def _bind_from_item(
    item: ast.FromItem, scope: dict[str, str], uses: set[Cell], schema: ScriptSchema
) -> None:
    if isinstance(item, ast.TableRef):
        relation = item.name.lower()
        scope[item.binding_name.lower()] = relation
        uses.add((relation, "@schema"))
        view = schema.view(relation)
        if view is not None:
            # The engine expands the view at execution time, so the
            # statement reads the *current* base-table data.
            uses.add((relation, "*"))
            uses |= _select_uses(view.query, schema)
    elif isinstance(item, ast.SubqueryRef):
        uses |= _select_uses(item.subquery, schema)
    elif isinstance(item, ast.Join):
        _bind_from_item(item.left, scope, uses, schema)
        _bind_from_item(item.right, scope, uses, schema)
        if item.condition is not None:
            uses |= _expression_uses(item.condition, scope, schema)


def _expression_uses(
    expr: ast.Expression, scope: dict[str, str], uses_schema: ScriptSchema
) -> set[Cell]:
    """Cells one expression reads, resolved against the FROM scope."""
    uses: set[Cell] = set()
    for node in ast.walk_expressions(expr):
        if isinstance(node, ast.ColumnRef):
            uses |= _resolve_column(node, scope, uses_schema)
        elif isinstance(node, ast.Star):
            if node.table is not None and node.table.lower() in scope:
                uses.add((scope[node.table.lower()], "*"))
            else:
                uses |= {(relation, "*") for relation in scope.values()}
        elif isinstance(node, (ast.InPredicate, ast.ExistsPredicate, ast.ScalarSubquery)):
            if node.subquery is not None:
                uses |= _select_uses(node.subquery, uses_schema)
    return uses


def _resolve_column(
    ref: ast.ColumnRef, scope: dict[str, str], schema: ScriptSchema
) -> set[Cell]:
    name = ref.name.lower()
    if ref.table is not None:
        relation = scope.get(ref.table.lower())
        if relation is None:
            # Qualifier names a derived table (reads already collected
            # from its subquery) or is unresolvable; nothing to add.
            return set()
        return {(relation, name)}
    candidates = [
        relation
        for relation in scope.values()
        if _relation_has_column(schema, relation, name)
    ]
    if len(candidates) == 1:
        return {(candidates[0], name)}
    if candidates:
        return {(relation, name) for relation in candidates}
    # Unknown relation schemas: attribute the read to every relation in
    # scope, whole-relation (conservative).
    return {(relation, "*") for relation in scope.values()}


def _relation_has_column(schema: ScriptSchema, relation: str, column: str) -> bool:
    table = schema.table(relation)
    if table is not None:
        return column in table.columns
    view = schema.view(relation)
    if view is not None:
        return column in _view_columns(view)
    return False


def _view_columns(view: ViewInfo) -> list[str]:
    if view.column_names:
        return [name.lower() for name in view.column_names]
    cores = view.query.cores()
    if not cores:
        return []
    names: list[str] = []
    for item in cores[0].items:
        if item.alias:
            names.append(item.alias.lower())
        elif isinstance(item.expression, ast.ColumnRef):
            names.append(item.expression.name.lower())
    return names


# --------------------------------------------------------------------------
# Graph construction
# --------------------------------------------------------------------------


def _cells_overlap(defs: frozenset[Cell], uses: frozenset[Cell]) -> bool:
    if not defs or not uses:
        return False
    for relation, column in uses:
        for def_relation, def_column in defs:
            if relation != def_relation:
                continue
            # "@schema" is its own namespace: a data write ("*" or a
            # column) neither satisfies nor is satisfied by a schema
            # existence dependence.
            if column == "@schema" or def_column == "@schema":
                if column == def_column:
                    return True
                continue
            if column == def_column or column == "*" or def_column == "*":
                return True
    return False


def build_graph(sql: str) -> ScriptGraph:
    """Parse a script and compose its per-statement def/use sets into a
    dependence graph."""

    schema = ScriptSchema()
    nodes: list[StatementNode] = []
    for index, statement_sql in enumerate(split_statements(sql)):
        stmt = parse_statement(statement_sql)
        traits = extract_traits(stmt)
        def_use = statement_def_use(stmt, schema, traits)
        nodes.append(
            StatementNode(
                index=index,
                sql=statement_sql,
                kind=traits.kind,
                defs=def_use.defs,
                uses=def_use.uses,
                barrier=def_use.barrier,
            )
        )
        schema.observe(stmt)

    deps: list[frozenset[int]] = []
    for j, node in enumerate(nodes):
        before = range(j)
        if node.barrier:
            deps.append(frozenset(before))
            continue
        j_deps = {
            i
            for i in before
            if nodes[i].barrier or _cells_overlap(nodes[i].defs, node.uses)
        }
        deps.append(frozenset(j_deps))
    return ScriptGraph(nodes=nodes, deps=deps)


# --------------------------------------------------------------------------
# Script minimization
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceResult:
    """A minimized script: the kept subsequence plus provenance."""

    statements: tuple[str, ...]
    kept: tuple[int, ...]
    dropped: tuple[int, ...]
    #: Why each kept index was anchored (trigger / portability), for
    #: explanation output; slice-closure statements are unlabelled.
    anchors: tuple[tuple[int, str], ...] = ()

    @property
    def sql(self) -> str:
        return ";\n".join(self.statements) + (";" if self.statements else "")


def minimize_script(sql: str, targets: Iterable[int] = (), faults: Iterable = ()) -> SliceResult:
    """Shrink ``sql`` to the backward slice of the given targets plus
    every statement any of ``faults``' triggers statically matches."""
    graph = build_graph(sql)
    anchors: dict[int, str] = {int(index): "target" for index in targets}
    for index in trigger_matches(sql, faults):
        anchors.setdefault(index, "trigger")
    return slice_graph(graph, anchors)


def slice_graph(graph: ScriptGraph, anchors: dict[int, str]) -> SliceResult:
    """The backward slice of ``graph`` closed over ``anchors`` (statement
    index -> why it is kept)."""
    kept = graph.backward_slice(anchors.keys())
    kept_set = set(kept)
    dropped = [node.index for node in graph.nodes if node.index not in kept_set]
    return SliceResult(
        statements=tuple(graph.nodes[index].sql for index in kept),
        kept=tuple(kept),
        dropped=tuple(dropped),
        anchors=tuple(sorted(anchors.items())),
    )


def trigger_matches(sql: str, faults: Iterable) -> set[int]:
    """Statement indices of ``sql`` whose serve- or recover-phase
    context any fault's trigger matches."""
    faults = list(faults)
    if not faults:
        return set()
    matched: set[int] = set()
    schema = ScriptSchema()
    for index, statement_sql in enumerate(split_statements(sql)):
        stmt = parse_statement(statement_sql)
        traits = extract_traits(stmt)
        dynamic = schema.predicted_dynamic_tags(traits)
        contexts = [StaticContext(statement_sql, traits, dynamic)]
        if traits.kind in WRITE_KINDS:
            contexts.append(
                StaticContext(statement_sql, traits, dynamic, phase="recover")
            )
        if any(fault.trigger.matches(ctx) for fault in faults for ctx in contexts):
            matched.add(index)
        schema.observe(stmt)
    return matched


def portability_anchors(sql: str) -> set[int]:
    """Earliest carrier statement per gated tag missing on any server.

    A slice's traits are a subset of the full script's, so every
    server's missing-tag set can only shrink — keeping one carrier per
    originally-missing tag pins it, making the per-server portability
    prediction of the slice identical to the full script's.
    """

    statements = split_statements(sql)
    per_statement: list[StatementTraits] = [
        extract_traits(parse_statement(statement_sql)) for statement_sql in statements
    ]
    full = StatementTraits(kind="script")
    for traits in per_statement:
        full.tags |= traits.tags
        full.relations |= traits.relations
    needed: set[str] = set()
    for server in SERVER_KEYS:
        needed |= set(dialect(server).missing_tags(full))
    anchors: set[int] = set()
    for tag in needed:
        for index, traits in enumerate(per_statement):
            if tag in traits.tags:
                anchors.add(index)
                break
    return anchors
