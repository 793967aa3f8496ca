"""The wire protocol: length-prefixed, CRC-checked JSON frames.

A frame is one :mod:`repro.records` record (length, CRC32, payload)
around a JSON message.  The CRC makes corruption *self-evident*: a
receiver that sees a frame whose checksum does not match can no longer
trust the stream's framing and must treat the connection as broken,
exactly like the durability layer's WAL scan distrusts everything past
an invalid record.

Messages are JSON objects with a ``type`` field.  Client → server:
``hello`` (open or resume a session), ``execute`` (one statement,
optionally through a prepared handle), ``prepare``, ``close``.  Server →
client: ``welcome``, ``result``, ``prepared``, ``closed``, ``error``.
SQL values that JSON cannot carry (Decimal, date, datetime) ride in the
:mod:`repro.records` scalar envelopes, so a result survives the round
trip bit-for-bit.  The ``result`` message is written and read here and
nowhere else.
"""

from __future__ import annotations

import json
from typing import Any, List, Optional

from repro import records
from repro.net.errors import ProtocolViolation
from repro.sqlengine.engine import Result

#: Upper bound on one frame's payload; a length field beyond it means
#: the stream is garbage (or hostile), not merely large.
MAX_FRAME_PAYLOAD = 4 * 1024 * 1024

# -- error codes carried in ``error`` messages ------------------------------

#: The statement failed as SQL (engine error, adjudication failure...).
#: ``error_type`` names the middleware exception to re-raise client-side.
ERR_SQL = "sql"
#: Admission control shed the request or session — retryable later.
ERR_OVERLOADED = "overloaded"
#: The session id/token pair is unknown (expired or never existed).
ERR_SESSION_EXPIRED = "session_expired"
#: The request's sequence number is out of the dedupe window.
ERR_SEQ_GAP = "seq_gap"
#: Malformed or out-of-place message.
ERR_PROTOCOL = "protocol"


class FrameCorrupt(ProtocolViolation):
    """A frame failed its CRC or length check: the stream is untrusted."""


def encode_frame(message: dict) -> bytes:
    """Serialise one message into its framed wire representation."""
    payload = json.dumps(message, separators=(",", ":"), default=records.json_default)
    return records.pack(payload.encode("utf-8"))


def decode_frame(frame: bytes) -> dict:
    """Decode one complete frame; raises :class:`FrameCorrupt` when the
    length or checksum does not hold."""
    payload, end, damage = records.unpack(frame, 0, MAX_FRAME_PAYLOAD)
    if damage is None and end != len(frame):
        damage = "trailing-bytes"
    if damage is not None:
        raise FrameCorrupt(f"frame damaged ({damage}, {len(frame)} byte(s))")
    return _message(payload)


def _message(payload: bytes) -> dict:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameCorrupt(f"frame payload is not valid JSON: {error}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolViolation("a message must be an object with a 'type'")
    return message


class FrameStream:
    """Incremental frame decoder for a byte stream (the TCP binding).

    Feed arbitrarily chopped chunks; complete messages come out.  A
    corrupt frame poisons the stream permanently — once framing is
    untrusted there is no resynchronisation point.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._poisoned = False

    def feed(self, data: bytes) -> List[dict]:
        if self._poisoned:
            raise FrameCorrupt("stream already corrupt")
        self._buffer.extend(data)
        messages: List[dict] = []
        while True:
            payload, end, damage = records.unpack(self._buffer, 0, MAX_FRAME_PAYLOAD)
            if damage in ("torn-header", "torn-payload"):
                return messages  # incomplete: wait for more bytes
            del self._buffer[:end]
            try:
                if damage is not None:
                    raise FrameCorrupt(f"frame damaged ({damage})")
                messages.append(_message(payload))
            except FrameCorrupt:
                self._poisoned = True
                raise


# -- value codec -------------------------------------------------------------

def decode_row(row: Any) -> list:
    """One row (or parameter list) of wire scalars; a malformed
    envelope is the sender's :class:`ProtocolViolation`."""
    try:
        return records.decode_row(row)
    except records.ScalarInvalid as error:
        raise ProtocolViolation(str(error)) from None


# -- message constructors ----------------------------------------------------

def hello(session: Optional[str] = None, token: Optional[str] = None) -> dict:
    return {"type": "hello", "session": session, "token": token}


def execute(
    session: str,
    token: str,
    seq: int,
    sql: str,
    params: Optional[List[Any]] = None,
    handle: Optional[int] = None,
) -> dict:
    message: dict = {
        "type": "execute", "session": session, "token": token, "seq": seq,
        "sql": sql,
    }
    if params is not None:
        message["params"] = params
    if handle is not None:
        message["handle"] = handle
    return message


def prepare(session: str, token: str, seq: int, sql: str) -> dict:
    return {
        "type": "prepare", "session": session, "token": token, "seq": seq,
        "sql": sql,
    }


def close(session: str, token: str) -> dict:
    return {"type": "close", "session": session, "token": token}


def error(
    seq: Optional[int],
    code: str,
    message: str,
    *,
    error_type: Optional[str] = None,
    retryable: bool = False,
) -> dict:
    body: dict = {
        "type": "error", "seq": seq, "code": code, "message": message,
        "retryable": retryable,
    }
    if error_type is not None:
        body["error_type"] = error_type
    return body


def result(seq: int, outcome: Result) -> dict:
    return {
        "type": "result",
        "seq": seq,
        "kind": outcome.kind,
        "columns": list(outcome.columns),
        "rows": [list(row) for row in outcome.rows],
        "rowcount": outcome.rowcount,
        "virtual_cost": outcome.virtual_cost,
        "warnings": list(outcome.warnings),
    }


def decode_result(reply: dict) -> Result:
    """The :class:`Result` a ``result`` message carries."""
    return Result(
        kind=reply["kind"],
        columns=list(reply["columns"]),
        rows=[tuple(decode_row(row)) for row in reply["rows"]],
        rowcount=reply["rowcount"],
        virtual_cost=reply.get("virtual_cost", 1.0),
        warnings=list(reply.get("warnings", ())),
    )
