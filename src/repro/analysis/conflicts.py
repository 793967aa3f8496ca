"""Static transaction-conflict analysis: serializability certificates.

The served frontend (:mod:`repro.net`) multiplexes many sessions onto
one replicated statement stream, and PR 7's dispatcher kept that sound
the blunt way: while any session holds an open transaction, *every*
other session's statement parks.  This module is the correctness
foundation for doing better — a whole-interleaving conflict analyzer
over the def/use cell machinery of :mod:`repro.analysis.dataflow`.

Three layers of fact, each consumed somewhere concrete:

* **Statement pairs** (:func:`classify_pair`) — COMMUTES / RW-CONFLICT
  / WW-CONFLICT / PHANTOM-RISK over ``(relation, column)`` cells
  resolved against the incrementally grown
  :class:`~repro.analysis.schema.ScriptSchema`.  PHANTOM-RISK is the
  membership shape: a whole-relation write (INSERT/DELETE changes the
  row set) against a read that names no written column — no value
  flows, but the set of qualifying rows may differ.
* **Admission certificates** (:func:`commutes_with_footprint`) — may
  this statement run *now*, in the middle of another session's open
  transaction?  Only reads qualify: an interleaved write would execute
  inside the holder's engine-level transaction and be erased by the
  holder's ROLLBACK.  A read whose uses touch no cell of the holder's
  accumulated write footprint is equivalent to serializing the reader
  entirely before the transaction — the certificate the
  :class:`~repro.net.server.NetServer` dispatcher admits on.
* **Interleaving verdicts** (:func:`analyze_sessions`) — session
  scripts are segmented into transactions at txn-control barriers, the
  cross-session conflict graph is built, and a
  :class:`SerializabilityVerdict` is emitted: SERIALIZABLE_PROVEN when
  no anomaly-shaped cycle exists under *any* statement interleaving,
  ANOMALY_POSSIBLE with a witness interleaving per predicted anomaly
  (lost update, dirty read, phantom, write skew), UNKNOWN when a
  statement defeats the parser.  Conservative cell fallbacks
  (unresolved columns widen to ``(relation, "*")``) can only add
  conflicts, so SERIALIZABLE_PROVEN is sound.

The concurrency-anomaly bug bank that exercises these verdicts
(:func:`repro.faults.audit.concurrency_fault_bank`) lives with the
fault audit; ``python -m repro lint`` checks that the analyzer predicts
each banked :class:`AnomalyKind`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.dataflow import Cell, DefUse, statement_def_use
from repro.analysis.schema import ScriptSchema
from repro.dialects.translator import ScriptPieces


class ConflictKind(Enum):
    """Commutativity classification of one statement pair."""

    COMMUTES = "commutes"
    RW_CONFLICT = "rw_conflict"
    WW_CONFLICT = "ww_conflict"
    PHANTOM_RISK = "phantom_risk"


class AnomalyKind(Enum):
    """The classic isolation anomalies a conflict cycle can realize."""

    LOST_UPDATE = "lost_update"
    DIRTY_READ = "dirty_read"
    PHANTOM = "phantom"
    WRITE_SKEW = "write_skew"


class VerdictStatus(Enum):
    """Outcome space of the whole-interleaving analysis."""

    SERIALIZABLE_PROVEN = "serializable_proven"
    ANOMALY_POSSIBLE = "anomaly_possible"
    UNKNOWN = "unknown"


# --------------------------------------------------------------------------
# Statement-pair classification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PairConflict:
    """One statement pair's classification plus its justifying cells."""

    kind: ConflictKind
    cells: Tuple[Cell, ...] = ()


def _ww_cells(a: Iterable[Cell], b: Iterable[Cell]) -> Set[Cell]:
    """Cells written by both sides (``@schema`` is its own namespace)."""
    out: Set[Cell] = set()
    for ra, ca in a:
        for rb, cb in b:
            if ra != rb:
                continue
            if ca == "@schema" or cb == "@schema":
                if ca == cb:
                    out.add((ra, "@schema"))
                continue
            if ca == cb or ca == "*" or cb == "*":
                out.add((ra, cb if ca == "*" else ca))
    return out


def _rw_atoms(defs: Iterable[Cell], uses: Iterable[Cell]) -> Tuple[Set[Cell], Set[Cell]]:
    """``(direct, membership)`` cells where a definition satisfies a use.

    *Direct*: the reader names (or star-reads) a column the writer
    assigns — the written value itself flows into the answer.
    *Membership*: the writer's whole-relation def (an INSERT/DELETE
    row-set change) against a data read of the relation — the phantom
    shape: no named column is assigned, but the set of qualifying rows
    may change under the reader.
    """
    direct: Set[Cell] = set()
    membership: Set[Cell] = set()
    for ur, uc in uses:
        for dr, dc in defs:
            if ur != dr:
                continue
            if uc == "@schema" or dc == "@schema":
                if uc == dc:
                    direct.add((ur, "@schema"))
                continue
            if dc == "*":
                membership.add((ur, uc))
            elif uc == dc or uc == "*":
                direct.add((ur, dc))
    return direct, membership


def classify_pair(a: DefUse, b: DefUse) -> PairConflict:
    """Classify one unordered statement pair (priority WW > RW > PHANTOM).

    Transaction-control barriers order against everything (ROLLBACK
    reverts arbitrary state), so a barrier pair is a WW conflict with
    no justifying cells.
    """
    if a.barrier or b.barrier:
        return PairConflict(ConflictKind.WW_CONFLICT)
    ww = _ww_cells(a.defs, b.defs)
    if ww:
        return PairConflict(ConflictKind.WW_CONFLICT, tuple(sorted(ww)))
    direct: Set[Cell] = set()
    membership: Set[Cell] = set()
    for defs, uses in ((a.defs, b.uses), (b.defs, a.uses)):
        d, m = _rw_atoms(defs, uses)
        direct |= d
        membership |= m
    if direct:
        return PairConflict(ConflictKind.RW_CONFLICT, tuple(sorted(direct)))
    if membership:
        return PairConflict(ConflictKind.PHANTOM_RISK, tuple(sorted(membership)))
    return PairConflict(ConflictKind.COMMUTES)


def commutes_with_footprint(def_use: DefUse, writes: Iterable[Cell]) -> bool:
    """Certificate for mid-transaction admission.

    True when the statement is a pure read whose uses overlap no cell
    of the transaction holder's accumulated write footprint — running
    it *now* returns exactly what serializing it entirely before the
    transaction would, whether the holder later commits or rolls back.

    Writes never qualify, even data-commuting ones: the underlying
    replicas execute a single statement stream, so an interleaved write
    would land inside the holder's engine-level transaction and be
    erased by the holder's ROLLBACK.
    """
    if def_use.barrier or def_use.defs:
        return False
    direct, membership = _rw_atoms(frozenset(writes), def_use.uses)
    return not direct and not membership


# --------------------------------------------------------------------------
# Transaction segmentation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TxnStatement:
    """One data statement of a session script."""

    index: int  #: statement index within the session script
    sql: str
    kind: str
    def_use: DefUse


@dataclass(frozen=True)
class SessionTransaction:
    """One transaction of one session: a maximal barrier-free group."""

    session: int
    ordinal: int
    statements: Tuple[TxnStatement, ...]
    #: Wrapped in an explicit BEGIN (auto-commit singletons are not).
    explicit: bool
    #: False when closed by ROLLBACK — or never closed at all.
    committed: bool

    @property
    def label(self) -> str:
        return f"S{self.session}.T{self.ordinal}"

    @property
    def reads(self) -> frozenset:
        cells: Set[Cell] = set()
        for stmt in self.statements:
            cells |= stmt.def_use.uses
        return frozenset(cells)

    @property
    def writes(self) -> frozenset:
        cells: Set[Cell] = set()
        for stmt in self.statements:
            cells |= stmt.def_use.defs
        return frozenset(cells)

    @property
    def multi_statement(self) -> bool:
        return len(self.statements) > 1


def session_transactions(
    script: ScriptPieces, session: int, *, setup: Optional[ScriptPieces] = None
) -> List[SessionTransaction]:
    """Segment one session script into transactions.

    Statements outside an explicit BEGIN are auto-commit singletons.
    An explicit transaction the script never closes is conservatively
    treated as uncommitted (the serving layer rolls an abandoned holder
    back, never silently commits it).
    """

    schema = ScriptSchema()
    for piece in setup.statements() if setup is not None else ():
        schema.observe(piece.statement)

    transactions: List[SessionTransaction] = []
    group: List[TxnStatement] = []
    explicit = False

    def close(committed: bool) -> None:
        nonlocal group, explicit
        if group:
            transactions.append(
                SessionTransaction(
                    session=session,
                    ordinal=len(transactions),
                    statements=tuple(group),
                    explicit=explicit,
                    committed=committed,
                )
            )
        group = []
        explicit = False

    for index, piece in enumerate(script.statements()):
        traits = piece.traits
        if traits.kind == "begin":
            close(True)
            explicit = True
            continue
        if traits.kind in ("commit", "rollback"):
            close(traits.kind == "commit")
            continue
        if traits.kind == "savepoint":
            continue
        def_use = statement_def_use(piece.statement, schema, traits)
        node = TxnStatement(index=index, sql=piece.sql, kind=traits.kind, def_use=def_use)
        if explicit:
            group.append(node)
        else:
            transactions.append(
                SessionTransaction(
                    session=session,
                    ordinal=len(transactions),
                    statements=(node,),
                    explicit=False,
                    committed=True,
                )
            )
        schema.observe(piece.statement)
    # An unterminated explicit transaction never commits in-script.
    close(False)
    return transactions


# --------------------------------------------------------------------------
# Interleaving analysis
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleStep:
    """One step of a witness interleaving (index -1 = synthesized)."""

    session: int
    index: int
    sql: str

    def __str__(self) -> str:
        where = "  " if self.index < 0 else f"{self.index:>2}"
        return f"S{self.session}[{where}] {self.sql}"


@dataclass(frozen=True)
class AnomalyWitness:
    """One predicted anomaly with a concrete interleaving realizing it."""

    kind: AnomalyKind
    transactions: Tuple[str, ...]
    cells: Tuple[Cell, ...]
    schedule: Tuple[ScheduleStep, ...]
    note: str = ""


@dataclass(frozen=True)
class SerializabilityVerdict:
    """The whole-interleaving outcome for a set of session scripts."""

    status: VerdictStatus
    anomalies: Tuple[AnomalyWitness, ...] = ()
    reason: str = ""

    @property
    def anomaly_kinds(self) -> frozenset:
        return frozenset(witness.kind.value for witness in self.anomalies)


@dataclass(frozen=True)
class InterleavingReport:
    """Transactions, statement-pair census, and the verdict."""

    transactions: Tuple[SessionTransaction, ...]
    verdict: SerializabilityVerdict
    #: Cross-session statement-pair classification counts.
    pair_counts: Dict[ConflictKind, int] = field(default_factory=dict)


def _txn_steps(txn: SessionTransaction) -> List[ScheduleStep]:
    steps: List[ScheduleStep] = []
    if txn.explicit:
        steps.append(ScheduleStep(txn.session, -1, "BEGIN"))
    steps.extend(
        ScheduleStep(txn.session, stmt.index, stmt.sql) for stmt in txn.statements
    )
    if txn.explicit:
        steps.append(
            ScheduleStep(txn.session, -1, "COMMIT" if txn.committed else "ROLLBACK")
        )
    return steps


def _wedge(
    outer: SessionTransaction, after_position: int, inner: SessionTransaction
) -> Tuple[ScheduleStep, ...]:
    """``outer``'s steps with all of ``inner`` wedged in after the
    ``after_position``-th data statement of ``outer``."""
    steps = _txn_steps(outer)
    offset = (1 if outer.explicit else 0) + after_position + 1
    return tuple(steps[:offset] + _txn_steps(inner) + steps[offset:])


def _first_reading(txn: SessionTransaction, cell: Cell) -> Optional[int]:
    """Position (within ``txn.statements``) of the first statement whose
    uses overlap ``cell``; None when no statement reads it."""
    for position, stmt in enumerate(txn.statements):
        direct, membership = _rw_atoms({cell}, stmt.def_use.uses)
        if direct or membership:
            return position
    return None


def _first_writing(txn: SessionTransaction, cell: Cell) -> Optional[int]:
    for position, stmt in enumerate(txn.statements):
        if _ww_cells(stmt.def_use.defs, {cell}):
            return position
    return None


def _pair_anomalies(
    t: SessionTransaction, u: SessionTransaction
) -> List[AnomalyWitness]:
    """Anomalies an adversarial scheduler could realize between two
    transactions (each named pattern with a witness interleaving)."""
    witnesses: List[AnomalyWitness] = []

    # Lost update: T reads a cell (statement i), later overwrites it
    # (statement j > i), and U also writes it — wedging all of U into
    # the gap makes T's write clobber U's.
    for cell in sorted(_ww_cells(t.writes, u.writes)):
        if cell[1] in ("*", "@schema"):
            continue
        read_at = _first_reading(t, cell)
        write_at = _first_writing(t, cell)
        if read_at is None or write_at is None or read_at >= write_at:
            continue
        witnesses.append(
            AnomalyWitness(
                kind=AnomalyKind.LOST_UPDATE,
                transactions=(t.label, u.label),
                cells=(cell,),
                schedule=_wedge(t, read_at, u),
                note=(
                    f"{t.label} computes its write of {cell} from a value read "
                    f"before {u.label}'s write commits; {u.label}'s update is lost"
                ),
            )
        )
        break

    # Dirty read: T reads a cell U's explicit transaction writes — a
    # scheduler admitting T's read mid-U exposes uncommitted state
    # (never-committed state, when U rolls back).
    if u.explicit:
        direct, _ = _rw_atoms(u.writes, t.reads)
        data_cells = tuple(sorted(c for c in direct if c[1] != "@schema"))
        if data_cells:
            write_at = _first_writing(u, data_cells[0])
            if write_at is not None:
                fate = (
                    "state that never commits"
                    if not u.committed
                    else "uncommitted state"
                )
                witnesses.append(
                    AnomalyWitness(
                        kind=AnomalyKind.DIRTY_READ,
                        transactions=(t.label, u.label),
                        cells=data_cells,
                        schedule=_wedge(u, write_at, t),
                        note=f"{t.label} reads {u.label}'s {fate} on {data_cells[0]}",
                    )
                )

    # Phantom: an explicit T reads a relation whose row set U changes
    # (INSERT/DELETE membership write) — T's later statements see a
    # different set of qualifying rows than its earlier ones.
    if t.explicit and t.multi_statement:
        _, membership = _rw_atoms(u.writes, t.reads)
        cells = tuple(sorted(membership))
        if cells:
            read_at = _first_reading(t, cells[0])
            if read_at is not None and read_at < len(t.statements) - 1:
                witnesses.append(
                    AnomalyWitness(
                        kind=AnomalyKind.PHANTOM,
                        transactions=(t.label, u.label),
                        cells=cells,
                        schedule=_wedge(t, read_at, u),
                        note=(
                            f"{u.label} changes {cells[0][0]}'s row set between "
                            f"{t.label}'s reads: the predicate matches a "
                            f"different set of rows"
                        ),
                    )
                )

    # Write skew: T and U each read what the other writes, with no
    # write-write overlap — both commit, each based on a stale read.
    if t.explicit and u.explicit and t.multi_statement and u.multi_statement:
        tu, _ = _rw_atoms(u.writes, t.reads)
        ut, _ = _rw_atoms(t.writes, u.reads)
        tu_data = {c for c in tu if c[1] != "@schema"}
        ut_data = {c for c in ut if c[1] != "@schema"}
        if tu_data and ut_data and not _ww_cells(t.writes, u.writes):
            cells = tuple(sorted(tu_data | ut_data))
            witnesses.append(
                AnomalyWitness(
                    kind=AnomalyKind.WRITE_SKEW,
                    transactions=(t.label, u.label),
                    cells=cells,
                    schedule=_wedge(t, 0, u),
                    note=(
                        f"{t.label} and {u.label} each decide from the other's "
                        f"pre-image ({cells[0]}, ...): no serial order exists "
                        f"where both saw current data"
                    ),
                )
            )

    return witnesses


def _conflicting_pairs(
    t: SessionTransaction, u: SessionTransaction
) -> List[Tuple[int, int, PairConflict]]:
    """All conflicting cross-statement pairs (positions within each txn)."""
    out: List[Tuple[int, int, PairConflict]] = []
    for i, a in enumerate(t.statements):
        for j, b in enumerate(u.statements):
            pair = classify_pair(a.def_use, b.def_use)
            if pair.kind is not ConflictKind.COMMUTES:
                out.append((i, j, pair))
    return out


def _two_cycle(
    t: SessionTransaction,
    u: SessionTransaction,
    atoms: List[Tuple[int, int, PairConflict]],
) -> Optional[AnomalyWitness]:
    """Generic two-transaction cycle feasibility.

    A cycle T->U->T needs two distinct conflicting statement pairs
    ``(t1, u1)`` and ``(t2, u2)`` orderable in opposite directions:
    ``t1 <= t2`` while ``u2 <= u1``.  Statements of one transaction
    execute in program order, so distinct pairs satisfying this can be
    scheduled with the first conflict pointing T->U and the second
    U->T — a non-serializable interleaving even when no named anomaly
    pattern applies (e.g. a non-repeatable read).
    """
    for i1, j1, p1 in atoms:
        for i2, j2, p2 in atoms:
            if (i1, j1) == (i2, j2):
                continue
            if i1 <= i2 and j2 <= j1:
                kinds = {p1.kind, p2.kind}
                if ConflictKind.PHANTOM_RISK in kinds:
                    kind = AnomalyKind.PHANTOM
                elif kinds == {ConflictKind.RW_CONFLICT}:
                    kind = AnomalyKind.WRITE_SKEW
                else:
                    kind = AnomalyKind.LOST_UPDATE
                cells = tuple(sorted(set(p1.cells) | set(p2.cells)))
                return AnomalyWitness(
                    kind=kind,
                    transactions=(t.label, u.label),
                    cells=cells,
                    schedule=_wedge(t, i1, u),
                    note=(
                        f"conflict cycle {t.label}->{u.label}->{t.label} via "
                        f"statement pairs ({i1},{j1}) and ({i2},{j2})"
                    ),
                )
    return None


def _graph_cycle(
    transactions: Sequence[SessionTransaction],
    edges: Dict[int, Set[int]],
) -> Optional[List[int]]:
    """A simple cycle of length >= 3 in the conflict graph, if any."""
    indices = range(len(transactions))
    for start in indices:
        stack: List[Tuple[int, List[int]]] = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for neighbour in sorted(edges.get(node, ())):
                if neighbour == start and len(path) >= 3:
                    return path
                if neighbour in path or neighbour < start:
                    continue
                stack.append((neighbour, path + [neighbour]))
    return None


def analyze_sessions(
    scripts: Sequence[ScriptPieces], *, setup: Optional[ScriptPieces] = None
) -> InterleavingReport:
    """Analyze all statement interleavings of several session scripts.

    ``setup`` (DDL + population, executed before any session) seeds the
    schema every session's def/use sets resolve against.  The verdict
    quantifies over *every* statement interleaving the serving layer
    could produce, transaction atomicity aside: SERIALIZABLE_PROVEN
    means no interleaving realizes an anomaly-shaped conflict cycle.
    """
    try:
        transactions: List[SessionTransaction] = []
        for session, script in enumerate(scripts):
            transactions.extend(
                session_transactions(script, session, setup=setup)
            )
    except Exception as err:  # noqa: BLE001 - parse failure => UNKNOWN
        return InterleavingReport(
            transactions=(),
            verdict=SerializabilityVerdict(
                status=VerdictStatus.UNKNOWN,
                reason=f"static analysis defeated: {err}",
            ),
        )

    pair_counts: Dict[ConflictKind, int] = {kind: 0 for kind in ConflictKind}
    witnesses: List[AnomalyWitness] = []
    seen: Set[Tuple[AnomalyKind, frozenset]] = set()
    edges: Dict[int, Set[int]] = {}
    anomalous_pairs: Set[frozenset] = set()

    for ti, t in enumerate(transactions):
        for uj, u in enumerate(transactions):
            if uj <= ti or t.session == u.session:
                continue
            atoms = _conflicting_pairs(t, u)
            for _, _, pair in atoms:
                pair_counts[pair.kind] += 1
            commuting = len(t.statements) * len(u.statements) - len(atoms)
            pair_counts[ConflictKind.COMMUTES] += commuting
            if atoms:
                edges.setdefault(ti, set()).add(uj)
                edges.setdefault(uj, set()).add(ti)
            found = _pair_anomalies(t, u) + _pair_anomalies(u, t)
            if not found:
                generic = _two_cycle(t, u, atoms)
                if generic is None:
                    swapped = [(j, i, p) for i, j, p in atoms]
                    generic = _two_cycle(u, t, swapped)
                if generic is not None:
                    found = [generic]
            for witness in found:
                key = (witness.kind, frozenset(witness.transactions))
                if key not in seen:
                    seen.add(key)
                    witnesses.append(witness)
            if found:
                anomalous_pairs.add(frozenset((ti, uj)))

    # Cycles of length >= 3: non-serializable even when every pair is
    # individually benign — but only realizable when some participant
    # is multi-statement (a schedule of atomic singletons is serial).
    if not witnesses:
        cycle = _graph_cycle(transactions, edges)
        if cycle is not None and any(
            transactions[index].multi_statement for index in cycle
        ):
            members = [transactions[index] for index in cycle]
            anchor = next(txn for txn in members if txn.multi_statement)
            schedule: List[ScheduleStep] = []
            anchor_steps = _txn_steps(anchor)
            schedule.extend(anchor_steps[:-1] if anchor.explicit else anchor_steps[:1])
            for txn in members:
                if txn is not anchor:
                    schedule.extend(_txn_steps(txn))
            schedule.extend(anchor_steps[-1:] if anchor.explicit else anchor_steps[1:])
            witnesses.append(
                AnomalyWitness(
                    kind=AnomalyKind.WRITE_SKEW,
                    transactions=tuple(txn.label for txn in members),
                    cells=(),
                    schedule=tuple(schedule),
                    note=(
                        "conflict-graph cycle across "
                        + " -> ".join(txn.label for txn in members)
                        + ": no serial order satisfies every dependence"
                    ),
                )
            )

    if witnesses:
        verdict = SerializabilityVerdict(
            status=VerdictStatus.ANOMALY_POSSIBLE,
            anomalies=tuple(witnesses),
            reason=f"{len(witnesses)} anomaly pattern(s) realizable",
        )
    else:
        verdict = SerializabilityVerdict(
            status=VerdictStatus.SERIALIZABLE_PROVEN,
            reason="no conflict cycle under any statement interleaving",
        )
    return InterleavingReport(
        transactions=tuple(transactions),
        verdict=verdict,
        pair_counts=pair_counts,
    )
