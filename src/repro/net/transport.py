"""A deterministic simulated network with injectable faults.

Frames between client ports and the :class:`NetServer` travel through
:class:`SimulatedNetwork`, which schedules each delivery at an absolute
virtual time on the middleware's own :class:`VirtualClock` — the same
clock that drives statement deadlines and quarantine backoff, so
network pathology and replica pathology share one timeline.

Every frame runs through the fault injector's ``network`` phase before
scheduling.  A :class:`~repro.faults.effects.NetworkEffect` may drop
the frame, delay it, duplicate it, reorder it past its successors,
corrupt its bytes (caught by the frame CRC at the receiver), reset the
connection, or partition the link for a window of virtual time.
Triggers see a :class:`NetworkContext` that satisfies the same
``TriggerContext`` protocol as statement-phase faults, so network
faults can be scoped by SQL pattern, message type, or direction using
the existing trigger algebra.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.effects import NetDelivery
from repro.faults.injector import FaultInjector
from repro.net.errors import ConnectionLost, NetTimeout
from repro.net.protocol import FrameCorrupt, decode_frame, encode_frame
from repro.net.server import NetServer
from repro.sqlengine.analysis import StatementTraits


@dataclass(frozen=True)
class NetworkContext:
    """What a network-phase trigger may inspect about one frame.

    Satisfies the :class:`~repro.faults.triggers.TriggerContext`
    protocol: ``sql`` is the statement text the frame carries (empty
    for non-statement messages), ``traits`` is a synthetic trait set
    tagging direction and message type, ``engine`` is ``None`` (no
    replica is involved on the wire).  ``now`` is read by stateful
    effects such as partitions.
    """

    sql: str
    traits: StatementTraits
    direction: str
    session: Optional[str]
    seq: Optional[int]
    now: float
    engine: object = None

    @property
    def all_tags(self) -> set:
        return set(self.traits.tags)


@dataclass
class TransportStats:
    """Counters for what the simulated wire did to traffic."""

    frames_sent: int = 0
    frames_delivered: int = 0
    frames_dropped: int = 0
    frames_delayed: int = 0
    frames_duplicated: int = 0
    resets: int = 0


@dataclass
class _Conn:
    conn_id: int
    inbox: deque = field(default_factory=deque)
    closed: bool = False


class SimulatedNetwork:
    """Moves frames between client ports and one :class:`NetServer`."""

    def __init__(
        self,
        net_server: NetServer,
        *,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.net_server = net_server
        self.server = net_server.server
        self.clock = net_server.server.clock
        self.injector = injector
        self.stats = TransportStats()
        self._conns: Dict[int, _Conn] = {}
        self._next_conn = 1
        self._serial = 0
        #: Min-heap of (deliver_at, serial, conn_id, direction, delivery).
        self._pending: List[Tuple[float, int, int, str, NetDelivery]] = []
        net_server.attach(self._send_to_client, self._reset_conn)

    # -- connections ---------------------------------------------------------

    def connect(self) -> "ClientPort":
        conn = _Conn(conn_id=self._next_conn)
        self._next_conn += 1
        self._conns[conn.conn_id] = conn
        return ClientPort(self, conn)

    def _close(self, conn: _Conn) -> None:
        if conn.closed:
            return
        conn.closed = True
        conn.inbox.clear()
        self._conns.pop(conn.conn_id, None)
        self.net_server.on_connection_lost(conn.conn_id)

    def _reset_conn(self, conn_id: int) -> None:
        conn = self._conns.get(conn_id)
        if conn is not None:
            self.stats.resets += 1
            self._close(conn)

    # -- frame movement ------------------------------------------------------

    def _submit(self, conn: _Conn, direction: str, message: dict) -> None:
        """Encode, run through the injector, and schedule deliveries."""
        payload = encode_frame(message)
        self.stats.frames_sent += 1
        deliveries = [NetDelivery(payload=payload)]
        if self.injector is not None:
            ctx = self._context(direction, message)
            deliveries, _ = self.injector.mutate_network(ctx, deliveries[0])
        if not deliveries:
            self.stats.frames_dropped += 1
            return
        if len(deliveries) > 1:
            self.stats.frames_duplicated += len(deliveries) - 1
        for delivery in deliveries:
            if delivery.delay > 0:
                self.stats.frames_delayed += 1
            self._serial += 1
            heapq.heappush(
                self._pending,
                (
                    self.clock.now + delivery.delay,
                    self._serial,
                    conn.conn_id,
                    direction,
                    delivery,
                ),
            )

    def _context(self, direction: str, message: dict) -> NetworkContext:
        message_type = str(message.get("type", "?"))
        traits = StatementTraits(
            kind="network",
            tags={f"net.{direction}", f"net.{message_type}"},
        )
        return NetworkContext(
            sql=str(message.get("sql", "") or ""),
            traits=traits,
            direction=direction,
            session=message.get("session"),
            seq=message.get("seq"),
            now=self.clock.now,
        )

    def _send_to_client(self, conn_id: int, message: dict) -> None:
        conn = self._conns.get(conn_id)
        if conn is None or conn.closed:
            self.stats.frames_dropped += 1
            return
        self._submit(conn, "s2c", message)

    def pump(self) -> None:
        """Deliver every frame due at or before the current virtual time."""
        while self._pending and self._pending[0][0] <= self.clock.now:
            _, _, conn_id, direction, delivery = heapq.heappop(self._pending)
            conn = self._conns.get(conn_id)
            if conn is None or conn.closed:
                self.stats.frames_dropped += 1
                continue
            if delivery.reset:
                self.stats.resets += 1
                self._close(conn)
                continue
            self.stats.frames_delivered += 1
            if direction == "c2s":
                self.net_server.handle_frame(conn_id, delivery.payload)
            else:
                conn.inbox.append(delivery.payload)

    def idle_tick(self) -> None:
        """Advance virtual time by one unit while waiting on the wire.

        Polls the replica supervisor too, so quarantine recoveries and
        rebuilds progress during network stalls exactly as they do
        between statements."""
        self.clock.advance(1.0)
        if self.server.supervised:
            self.server.supervisor.poll()
        self.net_server.on_tick(self.clock.now)


class ClientPort:
    """One client's endpoint on the simulated network."""

    def __init__(self, network: SimulatedNetwork, conn: _Conn) -> None:
        self._network = network
        self._conn = conn

    @property
    def closed(self) -> bool:
        return self._conn.closed

    def send(self, message: dict) -> None:
        if self._conn.closed:
            raise ConnectionLost("connection is closed")
        self._network._submit(self._conn, "c2s", message)

    def recv(self, timeout: float) -> dict:
        """Wait (in virtual time) for the next inbound message.

        Raises :class:`ConnectionLost` on reset or corrupt frame and
        :class:`NetTimeout` when the deadline passes with no frame."""
        deadline = self._network.clock.now + timeout
        while True:
            self._network.pump()
            if self._conn.closed:
                raise ConnectionLost("connection reset while waiting for a reply")
            if self._conn.inbox:
                frame = self._conn.inbox.popleft()
                try:
                    return decode_frame(frame)
                except FrameCorrupt as err:
                    # Untrusted stream: hang up, let the supervisor
                    # reconnect and resume the session.
                    self._network._close(self._conn)
                    raise ConnectionLost(f"corrupt frame received: {err}") from err
            if self._network.clock.now >= deadline:
                raise NetTimeout(f"no reply within {timeout} virtual time units")
            self._network.idle_tick()

    def request(self, message: dict, timeout: float) -> dict:
        self.send(message)
        return self.recv(timeout)

    def close(self) -> None:
        self._network._close(self._conn)
