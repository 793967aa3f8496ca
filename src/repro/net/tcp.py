"""Asyncio TCP binding of the serving layer.

The same :class:`~repro.net.server.NetServer` that the deterministic
simulation drives can serve real sockets: frames arrive through a
:class:`~repro.net.protocol.FrameStream` (which handles arbitrary TCP
chunking), dispatch synchronously into the session layer, and replies
are written back framed.  The fault injector does not sit on this path
— real networks bring their own faults; the simulated transport exists
precisely so the fault matrix stays deterministic and testable.

Virtual time still rules the session layer (idle deadlines, queue
deadlines advance per statement), so a TCP deployment gets the same
exactly-once and backpressure semantics as the simulation, just with
wall-clock pacing decided by the clients.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

from repro.net.protocol import FrameCorrupt, FrameStream, encode_frame
from repro.net.server import NetServer


class TcpNetServer:
    """Serve one :class:`NetServer` over TCP."""

    def __init__(
        self, net_server: NetServer, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.net_server = net_server
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._next_conn = 1
        net_server.attach(self._send, self._reset)

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server is not None and self._server.sockets
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers.values()):
            writer.close()
        self._writers.clear()

    # -- per-connection loop -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn_id = self._next_conn
        self._next_conn += 1
        self._writers[conn_id] = writer
        stream = FrameStream()
        try:
            while True:
                data = await reader.read(4096)
                if not data:
                    break
                try:
                    messages = stream.feed(data)
                except FrameCorrupt:
                    self.net_server.stats.corrupt_frames += 1
                    break
                for message in messages:
                    self.net_server.handle_message(conn_id, message)
                await writer.drain()
        except (
            ConnectionResetError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self._writers.pop(conn_id, None)
            self.net_server.on_connection_lost(conn_id)
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - teardown best effort
                pass

    # -- NetServer callbacks -------------------------------------------------

    def _send(self, conn_id: int, message: dict) -> None:
        writer = self._writers.get(conn_id)
        if writer is None:
            return
        writer.write(encode_frame(message))

    def _reset(self, conn_id: int) -> None:
        writer = self._writers.pop(conn_id, None)
        if writer is not None:
            writer.close()
        self.net_server.on_connection_lost(conn_id)


async def tcp_exchange(
    host: str, port: int, messages: List[dict], *, timeout: float = 5.0
) -> List[dict]:
    """Open a TCP connection, send ``messages``, collect one reply each.

    Smoke-test convenience: real clients should keep the connection and
    speak the protocol statefully."""
    reader, writer = await asyncio.open_connection(host, port)
    stream = FrameStream()
    pending: List[dict] = []
    replies: List[dict] = []
    try:
        for message in messages:
            writer.write(encode_frame(message))
            await writer.drain()
            while not pending:
                data = await asyncio.wait_for(reader.read(4096), timeout)
                if not data:
                    raise asyncio.IncompleteReadError(b"", None)
                pending.extend(stream.feed(data))
            replies.append(pending.pop(0))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:  # noqa: BLE001 - teardown best effort
            pass
    return replies
