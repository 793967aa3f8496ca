"""The request dispatcher: frames in, adjudicated answers out.

:class:`NetServer` is transport-agnostic — both the deterministic
simulated transport and the asyncio TCP binding drive it through the
same three entry points: :meth:`handle_frame` (one inbound frame),
:meth:`on_tick` (virtual time advanced: expire idle sessions, drain the
parked queue), and :meth:`on_connection_lost`.  Responses flow out
through the ``send`` callback installed with :meth:`attach`.

Admission control and backpressure form a two-rung ladder keyed on the
parked-statement backlog, deliberately mirroring the replica
supervisor's majority→compare→primary degradation chain:

1. ``backlog >= SHED_COMPARE_DEPTH`` — reads shed their cross-replica
   compare and are answered by a single replica (the middleware's
   read-split path); writes still replicate everywhere.  Service
   quality degrades before service does.
2. ``backlog >= SHED_REJECT_DEPTH`` — statements are rejected with a
   retryable overload error.  Because the request never executed, its
   sequence number is not consumed and the client retries it verbatim.

Exactly-once discipline: a request whose sequence number was already
executed gets its cached response resent (never re-executed); a request
below the dedupe window is a protocol-level gap; only executed requests
(successes *and* SQL errors — both had their side effects, or provably
none) enter the dedupe cache.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.conflicts import commutes_with_footprint
from repro.analysis.verdicts import WRITE_KINDS
from repro.errors import ReproError
from repro.middleware.server import DiverseServer
from repro.net import protocol
from repro.net.errors import ProtocolViolation, ServerOverloaded, SessionExpired
from repro.net.protocol import FrameCorrupt, decode_frame
from repro.net.session import NetPolicy, NetStats, Session, SessionManager
from repro.sqlengine.engine import Result

SendFn = Callable[[int, dict], None]
ResetFn = Callable[[int], None]

#: Hard bound on parked (transaction-blocked) statements.
MAX_PARKED = 32

#: Backlog length at which reads shed their cross-replica compare
#: (answered by a single replica, writes still replicated) — the
#: graceful rung of the degradation ladder.
SHED_COMPARE_DEPTH = 8

#: Backlog length at which new statements are rejected outright with a
#: retryable overload error — the hard rung.
SHED_REJECT_DEPTH = 24


@dataclass
class _Parked:
    """One transaction-blocked statement waiting for the holder."""

    conn_id: int
    session_id: str
    message: dict
    parked_at: float


class NetServer:
    """Serves one :class:`DiverseServer` to many sessions."""

    def __init__(
        self,
        server: DiverseServer,
        policy: Optional[NetPolicy] = None,
    ) -> None:
        self.server = server
        self.policy = policy or NetPolicy()
        self.stats = NetStats()
        self.sessions = SessionManager(server, self.policy, self.stats)
        self._parked: "deque[_Parked]" = deque()
        self._send: Optional[SendFn] = None
        self._reset: Optional[ResetFn] = None

    def attach(self, send: SendFn, reset: Optional[ResetFn] = None) -> None:
        """Install the transport's outbound callbacks."""
        self._send = send
        self._reset = reset

    # -- transport entry points ---------------------------------------------

    def handle_frame(self, conn_id: int, payload: bytes) -> None:
        """Decode and dispatch one inbound frame.

        A corrupt frame (failed CRC) means the stream can no longer be
        trusted, so the connection is reset — the session survives and
        the client resumes it over a fresh connection."""
        try:
            message = decode_frame(payload)
        except FrameCorrupt:
            self.stats.corrupt_frames += 1
            if self._reset is not None:
                self._reset(conn_id)
            return
        except ProtocolViolation as err:
            self.stats.protocol_errors += 1
            self._reply(conn_id, protocol.error(None, protocol.ERR_PROTOCOL, str(err)))
            return
        self.handle_message(conn_id, message)

    def handle_message(self, conn_id: int, message: dict) -> None:
        """Dispatch one decoded message (TCP binding enters here)."""
        now = self.server.clock.now
        kind = message.get("type")
        if kind == "hello":
            self._on_hello(conn_id, message, now)
        elif kind in ("execute", "prepare"):
            self._on_statement(conn_id, message, now)
        elif kind == "close":
            self._on_close(conn_id, message)
        else:
            self.stats.protocol_errors += 1
            self._reply(
                conn_id,
                protocol.error(
                    message.get("seq"),
                    protocol.ERR_PROTOCOL,
                    f"unknown message type {kind!r}",
                ),
            )
        self.on_tick(self.server.clock.now)

    def on_tick(self, now: float) -> None:
        """Virtual time advanced: reap idle sessions, drain the queue."""
        expired = self.sessions.expire_idle(now)
        if expired:
            gone = {session.session_id for session in expired}
            self._flush_parked_for(gone)
        self._drain(now)

    def on_connection_lost(self, conn_id: int) -> None:
        """Drop parked statements whose reply is now undeliverable.

        Their sessions survive: none of them executed, so the client's
        resend under the same sequence number is exact."""
        now = self.server.clock.now
        keep: "deque[_Parked]" = deque()
        for entry in self._parked:
            if entry.conn_id == conn_id:
                self._note_unparked(entry, now)
            else:
                keep.append(entry)
        self._parked = keep

    # -- message handlers ----------------------------------------------------

    def _on_hello(self, conn_id: int, message: dict, now: float) -> None:
        session_id = message.get("session")
        token = message.get("token")
        try:
            if session_id:
                session = self.sessions.resume(session_id, token, now)
            else:
                session = self.sessions.open(now)
        except SessionExpired as err:
            self._reply(
                conn_id, protocol.error(None, protocol.ERR_SESSION_EXPIRED, str(err))
            )
            return
        except ServerOverloaded as err:
            self._reply(
                conn_id,
                protocol.error(None, protocol.ERR_OVERLOADED, str(err), retryable=True),
            )
            return
        self._reply(
            conn_id,
            {
                "type": "welcome",
                "session": session.session_id,
                "token": session.token,
                "last_seq": session.last_seq,
            },
        )

    def _on_close(self, conn_id: int, message: dict) -> None:
        closed = self.sessions.close(
            message.get("session") or "", message.get("token")
        )
        self._reply(conn_id, {"type": "closed", "ok": closed})

    def _on_statement(self, conn_id: int, message: dict, now: float) -> None:
        try:
            session = self.sessions.get(
                message.get("session"), message.get("token"), now
            )
        except SessionExpired as err:
            self._reply(
                conn_id,
                protocol.error(
                    message.get("seq"), protocol.ERR_SESSION_EXPIRED, str(err)
                ),
            )
            return
        seq = message.get("seq")
        if not isinstance(seq, int) or seq < 1:
            self.stats.protocol_errors += 1
            self._reply(
                conn_id,
                protocol.error(None, protocol.ERR_PROTOCOL, "missing sequence number"),
            )
            return

        # Exactly-once gate: replayed sequence numbers never re-execute.
        cached = self.sessions.cached_response(session, seq)
        if cached is not None:
            self._reply(conn_id, cached)
            return
        if seq <= session.last_seq:
            self.stats.seq_gaps += 1
            self._reply(
                conn_id,
                protocol.error(
                    seq,
                    protocol.ERR_SEQ_GAP,
                    f"sequence {seq} already executed and aged out of the "
                    f"dedupe window (last_seq={session.last_seq})",
                ),
            )
            return
        if self._already_parked(conn_id, session, seq):
            return

        backlog = len(self._parked)
        holder = self.sessions.txn_holder
        is_holder = holder is not None and holder == session.session_id
        # The transaction holder bypasses the reject rung: its next
        # statement (ultimately COMMIT/ROLLBACK) is what drains the
        # backlog, so shedding it would livelock the parked queue.
        if backlog >= SHED_REJECT_DEPTH and not is_holder:
            self.stats.shed_statements += 1
            self._reply(
                conn_id,
                protocol.error(
                    seq,
                    protocol.ERR_OVERLOADED,
                    f"backlog {backlog} at reject depth; try again",
                    retryable=True,
                ),
            )
            return

        if holder is not None and not is_holder:
            admit = self._commute_verdict(session, message, holder)
            if admit is not True:
                if backlog >= MAX_PARKED:
                    self.stats.shed_statements += 1
                    self._reply(
                        conn_id,
                        protocol.error(
                            seq,
                            protocol.ERR_OVERLOADED,
                            "parked queue full; try again",
                            retryable=True,
                        ),
                    )
                    return
                if admit is None:
                    self.stats.parked_unknown += 1
                self.stats.parked_statements += 1
                self._parked.append(_Parked(conn_id, session.session_id, message, now))
                if len(self._parked) > self.stats.max_parked_depth:
                    self.stats.max_parked_depth = len(self._parked)
                return
            self.stats.admitted_commuting += 1

        self._reply(conn_id, self._serve(session, message, backlog))
        self._drain(self.server.clock.now)

    def _commute_verdict(
        self, session: Session, message: dict, holder: str
    ) -> Optional[bool]:
        """Admission certificate for a statement arriving mid-transaction.

        ``True``: statically proven to commute with the holder's
        accumulated write footprint — serve it now.  ``False``: proven
        or assumed to conflict — park it, exactly as PR 7 did.
        ``None``: the analysis was defeated (unparseable statement,
        unknown handle, poisoned footprint) — park it and count it as
        ``parked_unknown``; the conservative fallback never admits what
        it cannot prove."""
        if not self.policy.conflict_admission:
            return False
        holder_session = self.sessions.lookup(holder)
        if holder_session is None or holder_session.footprint_unknown:
            return None
        if message.get("type") == "prepare":
            # Preparation parses and translates but executes nothing,
            # so it cannot interact with the open transaction.
            sql = message.get("sql")
            if not isinstance(sql, str):
                return None
            try:
                self.server.pipeline.parsed(sql)
            except Exception:  # noqa: BLE001 - defeated analysis parks
                return None
            return True
        handle_id = message.get("handle")
        if handle_id is not None:
            handle = session.handles.get(handle_id)
            if handle is None:
                return None
            sql = handle.sql
        else:
            sql = message.get("sql")
            if not isinstance(sql, str):
                return None
        try:
            _, traits, _ = self.server.pipeline.parsed(sql)
            if traits.kind != "select":
                # Writes never run inside another session's engine-level
                # transaction: the holder's ROLLBACK would erase them.
                return False
            def_use = self.server.def_use(sql)
        except Exception:  # noqa: BLE001 - defeated analysis parks
            return None
        return bool(commutes_with_footprint(def_use, holder_session.txn_writes))

    def _statement_def_use(self, sql: str):
        """Def/use of an executed statement for footprint bookkeeping.

        ``None`` when the analysis fails, which poisons the holder's
        footprint for the rest of the transaction (every later admission
        question answers UNKNOWN and parks)."""
        if not self.policy.conflict_admission:
            return None
        try:
            return self.server.def_use(sql)
        except Exception:  # noqa: BLE001 - conservative: unknown footprint
            return None

    # -- execution -----------------------------------------------------------

    def _serve(self, session: Session, message: dict, backlog: int) -> dict:
        """Execute one statement/prepare and build (and cache) its reply."""
        seq = message["seq"]
        try:
            if message["type"] == "prepare":
                response = self._serve_prepare(session, message)
            else:
                response = self._serve_execute(session, message, backlog)
        except ServerOverloaded as err:
            # Not executed (handle-table bound): retryable, seq unspent.
            self.stats.shed_statements += 1
            return protocol.error(
                seq, protocol.ERR_OVERLOADED, str(err), retryable=True
            )
        except ProtocolViolation as err:
            self.stats.protocol_errors += 1
            return protocol.error(seq, protocol.ERR_PROTOCOL, str(err))
        except ReproError as err:
            # Executed and failed as SQL: the failure is the answer.
            # Cache it so a replay returns the same error, not a rerun.
            self.stats.sql_errors += 1
            response = protocol.error(
                seq, protocol.ERR_SQL, str(err), error_type=type(err).__name__
            )
        self.sessions.record_response(session, seq, response)
        return response

    def _serve_execute(self, session: Session, message: dict, backlog: int) -> dict:
        seq = message["seq"]
        handle_id = message.get("handle")
        params = message.get("params")
        shed_compare = (
            backlog >= SHED_COMPARE_DEPTH
            and not self.server.read_split
            and self.server.adjudication != "compare"
        )
        if handle_id is not None:
            handle = session.handles.get(handle_id)
            if handle is None:
                raise ProtocolViolation(f"unknown prepared handle {handle_id}")
            values = protocol.decode_row(params or [])
            result = self._with_shedding(
                shed_compare,
                handle.prepared.traits.kind,
                lambda: handle.prepared.execute(values),
            )
            traits = handle.prepared.traits
            sql = handle.sql
        else:
            if params:
                raise ProtocolViolation("parameters require a prepared handle")
            sql = message.get("sql")
            if not isinstance(sql, str):
                raise ProtocolViolation("execute without sql text")
            _, traits, _ = self.server.pipeline.parsed(sql)
            result = self._with_shedding(
                shed_compare, traits.kind, lambda: self.server.execute(sql)
            )
        self.sessions.note_executed(session, traits, self._statement_def_use(sql))
        self.stats.statements_served += 1
        return protocol.result(seq, result)

    def _with_shedding(self, shed_compare: bool, kind: str, run: Callable[[], Result]):
        """Run a statement, shedding the cross-replica compare for reads
        under soft overload by temporarily enabling read-split."""
        if not shed_compare or kind in WRITE_KINDS:
            return run()
        self.stats.shed_compares += 1
        self.server.read_split = True
        try:
            return run()
        finally:
            self.server.read_split = False

    def _serve_prepare(self, session: Session, message: dict) -> dict:
        sql = message.get("sql")
        if not isinstance(sql, str):
            raise ProtocolViolation("prepare without sql text")
        handle = self.sessions.prepare_handle(session, sql)
        return {
            "type": "prepared",
            "seq": message["seq"],
            "handle": handle.handle_id,
            "params": handle.param_count,
        }

    # -- parked queue --------------------------------------------------------

    def _already_parked(self, conn_id: int, session: Session, seq: int) -> bool:
        """A resend of a still-parked statement re-homes the reply to
        the newest connection instead of parking (and later executing)
        a second copy."""
        for entry in self._parked:
            if entry.session_id == session.session_id and entry.message.get("seq") == seq:
                entry.conn_id = conn_id
                self.stats.duplicates_suppressed += 1
                return True
        return False

    def _note_unparked(self, entry: _Parked, now: float) -> None:
        """Account one statement leaving the parked queue, however it
        leaves (served, shed, expired, or dropped with its connection)."""
        wait = max(0.0, now - entry.parked_at)
        self.stats.parked_wait_total += wait
        if wait > self.stats.parked_wait_max:
            self.stats.parked_wait_max = wait

    def _flush_parked_for(self, session_ids: set) -> None:
        now = self.server.clock.now
        keep: "deque[_Parked]" = deque()
        for entry in self._parked:
            if entry.session_id in session_ids:
                self._note_unparked(entry, now)
                self._reply(
                    entry.conn_id,
                    protocol.error(
                        entry.message.get("seq"),
                        protocol.ERR_SESSION_EXPIRED,
                        f"session {entry.session_id} expired while parked",
                    ),
                )
            else:
                keep.append(entry)
        self._parked = keep

    def _drain(self, now: float) -> None:
        """Serve parked statements whenever the transaction allows it."""
        while self._parked:
            entry = self._parked[0]
            if now - entry.parked_at > self.policy.queue_deadline:
                self._parked.popleft()
                self._note_unparked(entry, now)
                self.stats.shed_statements += 1
                self.stats.queue_deadline_sheds += 1
                self._reply(
                    entry.conn_id,
                    protocol.error(
                        entry.message.get("seq"),
                        protocol.ERR_OVERLOADED,
                        "parked statement out-waited its queue deadline",
                        retryable=True,
                    ),
                )
                continue
            holder = self.sessions.txn_holder
            if holder is not None and holder != entry.session_id:
                break
            self._parked.popleft()
            self._note_unparked(entry, now)
            session = self.sessions.lookup(entry.session_id)
            if session is None:
                continue
            self._reply(
                entry.conn_id, self._serve(session, entry.message, len(self._parked))
            )
            now = self.server.clock.now

    # -- outbound ------------------------------------------------------------

    def _reply(self, conn_id: int, message: dict) -> None:
        if self._send is None:
            raise RuntimeError("NetServer has no transport attached")
        self._send(conn_id, message)
