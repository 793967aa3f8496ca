"""Per-session server state: transactions, handles, dedupe, deadlines.

A *session* is the unit of client identity the serving layer reasons
about.  Everything exactly-once hangs off it:

* **Sequence numbers.**  Every ``execute``/``prepare`` request carries a
  per-session sequence number.  The session caches the response to each
  executed sequence, so a retransmitted request (the client resending
  after a timeout, or the fault injector duplicating a frame) returns
  the *cached* answer instead of executing again.  A write therefore
  commits at most once per sequence number, no matter how often the
  network replays it.
* **Transactions.**  The underlying :class:`DiverseServer` replicates a
  single statement stream, so at most one session may hold an open
  transaction; the manager tracks the holder and the dispatcher parks
  everyone else.  An expiring or closing holder gets its transaction
  rolled back, never silently committed.
* **Prepared handles.**  Handles wrap middleware
  :class:`~repro.middleware.server.PreparedStatement` objects.  They
  never go stale: when *any* session commits DDL, a handle's next
  execution binds names and compiles its plan against the new catalog
  (a ``SELECT *`` handle answers with the added column), with nothing
  re-translated or re-prepared.
* **Deadlines.**  Sessions idle past ``NetPolicy.idle_deadline`` are
  expired (transaction rolled back, dedupe state discarded), which is
  exactly the moment a client-side retry stops being provably safe.

All times are the middleware's virtual clock — deterministic, like
everything else in the simulation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.middleware.server import DiverseServer, PreparedStatement
from repro.net.errors import ServerOverloaded, SessionExpired
from repro.sqlengine.analysis import StatementTraits


#: Hard bound on concurrently open sessions; opens beyond it are shed.
MAX_SESSIONS = 64

#: Prepared handles allowed per session.
MAX_HANDLES = 64

#: Cached responses kept per session for duplicate suppression.
DEDUPE_WINDOW = 64


@dataclass
class NetPolicy:
    """Tunables for the serving layer (admission, shedding, deadlines)."""

    #: Virtual time a session may sit idle before it is expired.
    idle_deadline: float = 256.0
    #: Virtual time a parked statement may wait before it is shed.
    queue_deadline: float = 64.0
    #: Admit statements statically proven to commute with the open
    #: transaction's write footprint instead of parking them (the
    #: conflict analyzer's serializability certificates).  Off, every
    #: statement behind a transaction holder parks — PR 7's behaviour.
    conflict_admission: bool = True


@dataclass
class NetStats:
    """Serving-layer counters (sessions, dedupe, shedding, admission)."""

    sessions_opened: int = 0
    sessions_resumed: int = 0
    sessions_expired: int = 0
    statements_served: int = 0
    sql_errors: int = 0
    duplicates_suppressed: int = 0
    seq_gaps: int = 0
    parked_statements: int = 0
    shed_compares: int = 0
    shed_statements: int = 0
    queue_deadline_sheds: int = 0
    corrupt_frames: int = 0
    protocol_errors: int = 0
    rollbacks_on_expiry: int = 0
    #: Conflict-aware admission: statements served mid-transaction on a
    #: commuting certificate, and statements parked because the static
    #: analysis was defeated (UNKNOWN falls back to parking).
    admitted_commuting: int = 0
    parked_unknown: int = 0
    #: Parked-queue observability: high-water depth and per-statement
    #: wait times (virtual clock) accumulated at dequeue.
    max_parked_depth: int = 0
    parked_wait_total: float = 0.0
    parked_wait_max: float = 0.0


@dataclass
class SessionHandle:
    """One prepared statement owned by one session."""

    handle_id: int
    sql: str
    prepared: PreparedStatement
    param_count: int


@dataclass
class Session:
    """Server-side state for one client session."""

    session_id: str
    token: str
    last_active: float
    #: Highest executed sequence number; requests at or below it are
    #: duplicates (answered from cache) or gaps (rejected).
    last_seq: int = 0
    #: seq -> encoded response message, bounded by the dedupe window.
    responses: "OrderedDict[int, dict]" = field(default_factory=OrderedDict)
    in_transaction: bool = False
    handles: Dict[int, SessionHandle] = field(default_factory=dict)
    next_handle: int = 1
    #: Accumulated def/use cells of the open transaction's statements —
    #: the footprint commuting-admission certificates are checked
    #: against.  Cleared at every transaction boundary.
    txn_reads: set = field(default_factory=set)
    txn_writes: set = field(default_factory=set)
    #: Set when a holder statement's def/use could not be computed: the
    #: footprint is incomplete, so no commuting certificate may be
    #: issued against it until the transaction closes.
    footprint_unknown: bool = False

    def touch(self, now: float) -> None:
        self.last_active = now


class SessionManager:
    """Owns the session table of one served :class:`DiverseServer`."""

    def __init__(
        self,
        server: DiverseServer,
        policy: Optional[NetPolicy] = None,
        stats: Optional[NetStats] = None,
    ) -> None:
        self.server = server
        self.policy = policy or NetPolicy()
        self.stats = stats or NetStats()
        self._sessions: Dict[str, Session] = {}
        self._next_session = 1
        #: Session currently holding the server's open transaction.
        self.txn_holder: Optional[str] = None

    # -- lifecycle -----------------------------------------------------------

    def open(self, now: float) -> Session:
        """Open a fresh session; sheds with an overload error when the
        table is full (after reaping idle sessions)."""
        self.expire_idle(now)
        if len(self._sessions) >= MAX_SESSIONS:
            raise ServerOverloaded(f"session table full ({MAX_SESSIONS} open)")
        number = self._next_session
        self._next_session += 1
        session = Session(
            session_id=f"s{number}",
            token=f"tok-{number:06d}",
            last_active=now,
        )
        self._sessions[session.session_id] = session
        self.stats.sessions_opened += 1
        return session

    def resume(self, session_id: str, token: Optional[str], now: float) -> Session:
        """Re-attach a reconnecting client to its surviving session.

        The dedupe cache and any open transaction are intact, so the
        client may resend its in-flight sequence number safely."""
        self.expire_idle(now)
        session = self._sessions.get(session_id)
        if session is None or session.token != token:
            raise SessionExpired(f"unknown or expired session {session_id!r}")
        session.touch(now)
        self.stats.sessions_resumed += 1
        return session

    def get(self, session_id: Optional[str], token: Optional[str], now: float) -> Session:
        """Look up the session of one request (does not count a resume)."""
        session = self._sessions.get(session_id or "")
        if session is None or session.token != token:
            raise SessionExpired(f"unknown or expired session {session_id!r}")
        session.touch(now)
        return session

    def close(self, session_id: str, token: Optional[str]) -> bool:
        session = self._sessions.get(session_id)
        if session is None or session.token != token:
            return False
        self._release(session, expired=False)
        return True

    def expire_idle(self, now: float) -> list:
        """Expire every session idle past the deadline; returns them."""
        deadline = self.policy.idle_deadline
        expired = [
            session
            for session in list(self._sessions.values())
            if now - session.last_active > deadline
        ]
        for session in expired:
            self._release(session, expired=True)
        return expired

    def _release(self, session: Session, expired: bool) -> None:
        if self.txn_holder == session.session_id:
            # Never silently commit: an abandoned transaction rolls back.
            try:
                self.server.execute("ROLLBACK")
                self.stats.rollbacks_on_expiry += 1
            except Exception:  # noqa: BLE001 - best-effort during teardown
                pass
            self.txn_holder = None
        self._clear_footprint(session)
        session.handles.clear()
        session.responses.clear()
        del self._sessions[session.session_id]
        if expired:
            self.stats.sessions_expired += 1

    # -- sequence-number dedupe ----------------------------------------------

    def cached_response(self, session: Session, seq: int) -> Optional[dict]:
        """The cached answer for a replayed sequence number, if any."""
        response = session.responses.get(seq)
        if response is not None:
            self.stats.duplicates_suppressed += 1
        return response

    def record_response(self, session: Session, seq: int, response: dict) -> None:
        """Remember an *executed* request's answer for dedupe.

        Only executed requests advance ``last_seq``; shed or rejected
        ones do not, so the client may retry them under the same
        sequence number without risking a gap."""
        session.last_seq = max(session.last_seq, seq)
        session.responses[seq] = response
        while len(session.responses) > DEDUPE_WINDOW:
            session.responses.popitem(last=False)

    # -- transactions --------------------------------------------------------

    def note_executed(
        self, session: Session, traits: StatementTraits, def_use=None
    ) -> None:
        """Update transaction bookkeeping after a successful execution.

        ``def_use`` (when the dispatcher computes it) accumulates into
        the holder's read/write footprint; ``None`` for a mid-
        transaction statement poisons the footprint, so conflict
        admission conservatively refuses certificates until the
        transaction closes."""
        if traits.kind == "begin":
            session.in_transaction = True
            self.txn_holder = session.session_id
            self._clear_footprint(session)
        elif traits.kind in ("commit", "rollback"):
            session.in_transaction = False
            if self.txn_holder == session.session_id:
                self.txn_holder = None
            self._clear_footprint(session)
        elif session.in_transaction:
            if def_use is None:
                session.footprint_unknown = True
            else:
                session.txn_reads |= def_use.uses
                session.txn_writes |= def_use.defs

    @staticmethod
    def _clear_footprint(session: Session) -> None:
        session.txn_reads.clear()
        session.txn_writes.clear()
        session.footprint_unknown = False

    # -- prepared handles ----------------------------------------------------

    def prepare_handle(self, session: Session, sql: str) -> SessionHandle:
        if len(session.handles) >= MAX_HANDLES:
            raise ServerOverloaded(
                f"session {session.session_id} holds {len(session.handles)} "
                "handles (limit reached)"
            )
        prepared = self.server.prepare(sql)
        handle = SessionHandle(
            handle_id=session.next_handle,
            sql=sql,
            prepared=prepared,
            param_count=prepared.param_count,
        )
        session.next_handle += 1
        session.handles[handle.handle_id] = handle
        return handle

    # -- introspection -------------------------------------------------------

    def lookup(self, session_id: str) -> Optional[Session]:
        """The live session with this id, if any (no touch, no token)."""
        return self._sessions.get(session_id)

    def sessions(self) -> list:
        return list(self._sessions.values())
