"""The client side: a thin wire client and a supervising wrapper.

:class:`NetClient` is the mechanical layer — it owns one connection,
frames requests, matches replies by sequence number (skipping stale
duplicates the network replayed), and re-raises server-side SQL errors
as the *same* middleware exception classes, so code written against
:class:`~repro.middleware.server.DiverseServer` (the workload runner,
the study harness) behaves identically over the wire.

:class:`SessionSupervisor` is the judgement layer.  It mirrors the
replica supervisor's idiom — exponential backoff with a cap, a
failure-count circuit breaker over a sliding window — but for the
network path, and it enforces the retry discipline that makes the
served system exactly-once:

* Connection lost or timed out, session **resumed** → resend the same
  sequence number.  The server either never saw it (executes fresh) or
  already executed it (returns the cached answer).  Always safe.
* Session **gone** (idle-expired server-side) → the dedupe state is
  gone with it, so an in-flight statement's fate is unknowable.  The
  supervisor re-submits on a fresh session only statements the static
  analyzer proves re-execution-safe (deterministic reads, provably
  idempotent writes); everything else raises
  :class:`~repro.net.errors.RetryUnsafe`.  A statement lost
  mid-transaction is never replayed — the server rolled the
  transaction back, and pretending otherwise would split it.
* Server shed the request (overload) → it never executed; retry the
  same sequence number after a backoff.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import errors as base_errors
from repro.analysis.schema import ScriptSchema
from repro.analysis.verdicts import DDL_KINDS, WRITE_KINDS
from repro.middleware.pipeline import StatementPipeline
from repro.middleware.supervisor import backoff_delay
from repro.net import protocol
from repro.net.errors import (
    ConnectionLost,
    NetTimeout,
    ProtocolViolation,
    RetryUnsafe,
    ServerOverloaded,
    SessionExpired,
)
from repro.net.transport import ClientPort, SimulatedNetwork
from repro.sqlengine.engine import Result

#: Server-reported exception classes re-raised verbatim client-side.
_ERROR_TYPES: Dict[str, Callable[[str], Exception]] = {
    "SqlError": base_errors.SqlError,
    "LexError": base_errors.LexError,
    "ParseError": base_errors.ParseError,
    "BindError": base_errors.BindError,
    "CatalogError": base_errors.CatalogError,
    "TypeMismatch": base_errors.TypeMismatch,
    "ConstraintViolation": base_errors.ConstraintViolation,
    "TransactionError": base_errors.TransactionError,
    "DivisionByZero": base_errors.DivisionByZero,
    "NumericOverflow": base_errors.NumericOverflow,
    "TranslationPending": base_errors.TranslationPending,
    "MiddlewareError": base_errors.MiddlewareError,
    "AdjudicationFailure": base_errors.AdjudicationFailure,
    "NoReplicasAvailable": base_errors.NoReplicasAvailable,
    "StatementTimeout": base_errors.StatementTimeout,
    "FeatureNotSupported": base_errors.FeatureNotSupported,
    "EngineCrash": lambda message: base_errors.EngineCrash("served", message),
}


#: Virtual time over which the circuit breaker counts failures.
CIRCUIT_WINDOW = 512.0

#: Retries of a request the server shed for overload, and the backoff
#: before retry ``n`` (``OVERLOAD_BACKOFF * n`` virtual time units).
OVERLOAD_RETRIES = 3
OVERLOAD_BACKOFF = 4.0

#: Reconnect attempts after a connection loss (attempt 0 immediate), and
#: the cap on the exponential backoff between them
#: (:func:`~repro.middleware.supervisor.backoff_delay`).
MAX_RECONNECT_ATTEMPTS = 6
RECONNECT_BACKOFF_CAP = 32.0


@dataclass
class ClientPolicy:
    """Reconnect, retry, and circuit-breaker tunables (virtual time)."""

    #: How long one request waits for its reply.
    request_timeout: float = 16.0
    #: Failures within :data:`CIRCUIT_WINDOW` that trip the circuit open.
    circuit_threshold: int = 8


@dataclass
class ClientStats:
    """Client-side counters for the supervisor's decisions."""

    timeouts: int = 0
    reconnects: int = 0
    sessions_opened: int = 0
    sessions_resumed: int = 0
    resends: int = 0
    safe_retries: int = 0
    unsafe_aborts: int = 0
    circuit_open_failures: int = 0


class NetClient:
    """One connection to the served middleware; no retry policy."""

    def __init__(self, port: ClientPort, *, timeout: float = 16.0) -> None:
        self._port = port
        self.timeout = timeout
        self.session_id: Optional[str] = None
        self.token: Optional[str] = None

    @property
    def closed(self) -> bool:
        return self._port.closed

    def hello(
        self, session: Optional[str] = None, token: Optional[str] = None
    ) -> dict:
        """Open (or resume) a session; returns the welcome message."""
        self._port.send(protocol.hello(session, token))
        reply = self._recv_matching(None)
        if reply["type"] == "error":
            self._raise_error(reply)
        self.session_id = reply["session"]
        self.token = reply["token"]
        return reply

    def execute(
        self,
        seq: int,
        sql: str,
        params: Optional[List[Any]] = None,
        handle: Optional[int] = None,
    ) -> Result:
        self._require_session()
        message = protocol.execute(
            self.session_id or "", self.token or "", seq, sql,
            params=params, handle=handle,
        )
        self._port.send(message)
        reply = self._recv_matching(seq)
        if reply["type"] == "error":
            self._raise_error(reply)
        return protocol.decode_result(reply)

    def prepare(self, seq: int, sql: str) -> Tuple[int, int]:
        """Prepare ``sql`` server-side; returns (handle id, param count)."""
        self._require_session()
        message = protocol.prepare(
            self.session_id or "", self.token or "", seq, sql
        )
        self._port.send(message)
        reply = self._recv_matching(seq)
        if reply["type"] == "error":
            self._raise_error(reply)
        return reply["handle"], reply["params"]

    def close(self) -> None:
        if self.session_id and not self._port.closed:
            try:
                self._port.send(
                    protocol.close(self.session_id, self.token or "")
                )
                self._recv_matching(None, expect="closed")
            except (NetTimeout, ConnectionLost):
                pass
        self._port.close()

    # -- internals -----------------------------------------------------------

    def _require_session(self) -> None:
        if not self.session_id:
            raise ProtocolViolation("no session: call hello() first")

    def _recv_matching(self, seq: Optional[int], expect: str = "") -> dict:
        """Receive until a reply for ``seq`` arrives, skipping stale
        frames (duplicated/reordered responses to older requests)."""
        deadline_budget = self.timeout
        while True:
            reply = self._port.recv(deadline_budget)
            kind = reply.get("type")
            reply_seq = reply.get("seq")
            if seq is None:
                if expect and kind != expect and kind != "error":
                    continue
                if not expect and kind not in ("welcome", "error"):
                    continue
                return reply
            if reply_seq == seq:
                return reply

    @staticmethod
    def _raise_error(reply: dict) -> None:
        code = reply.get("code")
        message = reply.get("message", "")
        if code == protocol.ERR_OVERLOADED:
            raise ServerOverloaded(message)
        if code == protocol.ERR_SESSION_EXPIRED:
            raise SessionExpired(message)
        if code == protocol.ERR_SQL:
            factory = _ERROR_TYPES.get(
                reply.get("error_type", ""), base_errors.MiddlewareError
            )
            raise factory(message)
        raise ProtocolViolation(f"{code}: {message}")


class SessionSupervisor:
    """A self-healing client endpoint over the simulated network.

    Exposes the same ``execute``/``prepare`` surface as
    :class:`~repro.middleware.server.DiverseServer`, so the workload
    runner can drive a served system unchanged.
    """

    def __init__(
        self,
        network: SimulatedNetwork,
        *,
        policy: Optional[ClientPolicy] = None,
    ) -> None:
        self._network = network
        self._clock = network.clock
        self.policy = policy or ClientPolicy()
        self.stats = ClientStats()
        #: Client-side mirror of the analysis front-end: the retry-safety
        #: oracle must not depend on reaching the server.
        self._pipeline = StatementPipeline(capacity=256)
        self._schema = ScriptSchema()
        self._client: Optional[NetClient] = None
        self._seq = 0
        #: Bumped whenever a *new* session replaces the old one; stale
        #: prepared handles are detected by epoch mismatch.
        self.epoch = 0
        self._in_transaction = False
        self._failures: "deque[float]" = deque()

    # -- public surface ------------------------------------------------------

    @property
    def session_id(self) -> Optional[str]:
        return self._client.session_id if self._client else None

    @property
    def in_transaction(self) -> bool:
        return self._in_transaction

    def connect(self) -> None:
        self._ensure_client()

    def execute(self, sql: str) -> Result:
        """Execute one statement with full recovery discipline."""
        statement, traits, positions = self._pipeline.parsed(sql)
        if positions:
            raise base_errors.MiddlewareError(
                f"statement has {len(positions)} unbound parameter(s); "
                "use prepare() to execute it with values"
            )
        result = self._submit(
            lambda client, seq: client.execute(seq, sql),
            retry_safe=lambda: self._retry_safe(sql, statement, traits),
            describe=sql,
        )
        self._after_success(statement, traits)
        return result

    def prepare(self, sql: str) -> "SupervisedHandle":
        return SupervisedHandle(self, sql)

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    # -- the recovery loop ---------------------------------------------------

    def _submit(
        self,
        call: Callable[[NetClient, int], Any],
        *,
        retry_safe: Callable[[], bool],
        describe: str,
        prelude: Optional[Callable[[], None]] = None,
        on_new_session: Optional[Callable[[], None]] = None,
    ) -> Any:
        """Send one request with full recovery discipline.

        ``prelude`` runs before every *fresh* sequence number is
        allocated (initially and after a session replacement) — the
        prepared-handle path uses it to (re)establish its server-side
        handle, whose own requests must carry lower sequence numbers
        than the statement they serve."""
        self._ensure_client()
        in_txn_at_entry = self._in_transaction
        if prelude is not None:
            prelude()
        seq = self._next_seq()
        overloads = 0
        while True:
            try:
                client = self._client
                assert client is not None
                reply = call(client, seq)
            except (NetTimeout, ConnectionLost) as err:
                if isinstance(err, NetTimeout):
                    self.stats.timeouts += 1
                resumed = self._recover(
                    err, in_txn_at_entry, retry_safe, describe, on_new_session
                )
                if resumed:
                    # Same session, same dedupe state: resend verbatim.
                    self.stats.resends += 1
                    continue
                # Fresh session: rebuild preconditions, new sequence.
                in_txn_at_entry = False
                if prelude is not None:
                    prelude()
                seq = self._next_seq()
                continue
            except ServerOverloaded:
                if overloads >= OVERLOAD_RETRIES:
                    raise
                overloads += 1
                # Never executed: same sequence number is still ours.
                self._wait(OVERLOAD_BACKOFF * overloads)
                continue
            self._failures.clear()
            return reply

    def _recover(
        self,
        cause: Exception,
        in_txn_at_entry: bool,
        retry_safe: Callable[[], bool],
        describe: str,
        on_new_session: Optional[Callable[[], None]],
    ) -> bool:
        """Reconnect after a network failure.

        True → the old session was resumed (resend the same sequence
        number).  False → a new session opened *and* the statement is
        provably safe to re-submit; raises otherwise."""
        self._note_failure()
        resumed = self._reconnect()
        if resumed:
            return True
        if on_new_session is not None:
            on_new_session()
        if in_txn_at_entry:
            # The server rolled the transaction back with the session;
            # replaying fragments of it would split the transaction.
            raise SessionExpired(
                "session lost mid-transaction; the server rolled it back"
            ) from cause
        if retry_safe():
            self.stats.safe_retries += 1
            return False
        self.stats.unsafe_aborts += 1
        raise RetryUnsafe(
            f"statement fate unknown after session loss and not provably "
            f"re-execution-safe: {describe!r}"
        ) from cause

    def _reconnect(self) -> bool:
        """Reconnect with exponential backoff; True if the old session
        was resumed (dedupe state intact), False if a new one opened."""
        self._check_circuit()
        old_session = self._client.session_id if self._client else None
        old_token = self._client.token if self._client else None
        last_error: Optional[Exception] = None
        for attempt in range(MAX_RECONNECT_ATTEMPTS + 1):
            self._wait(backoff_delay(attempt, RECONNECT_BACKOFF_CAP))
            try:
                port = self._network.connect()
                client = NetClient(port, timeout=self.policy.request_timeout)
                if old_session is not None:
                    try:
                        client.hello(old_session, old_token)
                        self._adopt(client, resumed=True)
                        return True
                    except SessionExpired:
                        old_session = None
                        client.hello()
                        self._adopt(client, resumed=False)
                        return False
                client.hello()
                self._adopt(client, resumed=False)
                return False
            except (NetTimeout, ConnectionLost) as err:
                last_error = err
                self._note_failure()
                self._check_circuit()
        raise ConnectionLost(
            f"reconnect failed after {MAX_RECONNECT_ATTEMPTS + 1} "
            f"attempt(s): {last_error}"
        ) from last_error

    def _adopt(self, client: NetClient, *, resumed: bool) -> None:
        self._client = client
        self.stats.reconnects += 1
        if resumed:
            self.stats.sessions_resumed += 1
        else:
            self.stats.sessions_opened += 1
            self.epoch += 1
            self._seq = 0
            self._in_transaction = False

    def _ensure_client(self) -> None:
        if self._client is not None and not self._client.closed:
            return
        self._reconnect()

    # -- retry safety --------------------------------------------------------

    def _retry_safe(self, sql: str, statement: Any, traits: Any) -> bool:
        """May this statement be re-submitted on a *fresh* session?

        Delegates to the static analyzer's re-execution verdict; BEGIN
        is special-cased because starting a transaction on a session
        that provably has none is always safe."""
        if traits.kind == "begin":
            return True
        verdict = self._pipeline.verdict(sql, statement, self._schema, traits)
        return bool(verdict.access.reexecution_safe)

    def _after_success(self, statement: Any, traits: Any) -> None:
        if traits.kind == "begin":
            self._in_transaction = True
        elif traits.kind in ("commit", "rollback"):
            self._in_transaction = False
        if traits.kind in WRITE_KINDS:
            self._schema.observe(statement)
        if traits.kind in DDL_KINDS:
            self._pipeline.bump_generation()

    # -- circuit breaker (supervisor idiom, network flavour) -----------------

    def _note_failure(self) -> None:
        now = self._clock.now
        self._failures.append(now)
        horizon = now - CIRCUIT_WINDOW
        while self._failures and self._failures[0] < horizon:
            self._failures.popleft()

    def _check_circuit(self) -> None:
        horizon = self._clock.now - CIRCUIT_WINDOW
        while self._failures and self._failures[0] < horizon:
            self._failures.popleft()
        if len(self._failures) >= self.policy.circuit_threshold:
            self.stats.circuit_open_failures += 1
            raise ConnectionLost(
                f"circuit open: {len(self._failures)} network failures within "
                f"{CIRCUIT_WINDOW} virtual time units"
            )

    def _wait(self, delay: float) -> None:
        if delay <= 0:
            return
        deadline = self._clock.now + delay
        while self._clock.now < deadline:
            self._network.idle_tick()

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq


class SupervisedHandle:
    """A prepared statement that survives reconnects and new sessions.

    Holds the SQL text; the server-side handle id is re-established
    lazily whenever the supervisor's session epoch moves on (handles
    are per-session state and die with their session)."""

    def __init__(self, supervisor: SessionSupervisor, sql: str) -> None:
        self._sup = supervisor
        self.sql = sql
        statement, traits, positions = supervisor._pipeline.parsed(sql)
        self._statement = statement
        self._traits = traits
        self.param_count = len(positions)
        self._remote: Optional[Tuple[int, int]] = None  # (epoch, handle id)

    def _ensure_remote(self) -> None:
        """(Re)prepare server-side when the session epoch moved on."""
        sup = self._sup
        if self._remote is not None and self._remote[0] == sup.epoch:
            return
        handle_id = sup._submit(
            lambda client, seq: client.prepare(seq, self.sql)[0],
            # Preparing is always re-execution-safe: it mutates only the
            # session's handle table, which died with the session anyway.
            retry_safe=lambda: True,
            describe=f"PREPARE {self.sql!r}",
            on_new_session=lambda: setattr(self, "_remote", None),
        )
        self._remote = (sup.epoch, handle_id)

    def execute(self, params: Sequence[Any] = ()) -> Result:
        sup = self._sup
        values = list(params)
        result = sup._submit(
            lambda client, seq: client.execute(
                seq, self.sql, params=values,
                handle=self._remote[1] if self._remote else None,
            ),
            retry_safe=lambda: sup._retry_safe(
                self.sql, self._statement, self._traits
            ),
            describe=self.sql,
            prelude=self._ensure_remote,
            on_new_session=lambda: setattr(self, "_remote", None),
        )
        sup._after_success(self._statement, self._traits)
        return result

    def executemany(self, rows: Sequence[Sequence[Any]]) -> List[Result]:
        return [self.execute(row) for row in rows]
