"""The one byte format and the one scalar codec of the repository.

**Record** (all integers little-endian)::

    [4 bytes payload length][4 bytes CRC32 of payload][payload]

Wire frames, WAL records and checkpoint blobs are all this record around
a JSON payload.  :func:`unpack` reports damage as data rather than by
raising, because what damage *means* belongs to the caller: the wire
resets the connection, the WAL scan stops and keeps the prefix, the
checkpoint store falls back to an older blob.

**Scalar envelope**: the SQL values JSON cannot carry travel as
``{"$": "decimal" | "datetime" | "date", "v": text}`` — on the wire and on
disk alike, so a value survives client → engine → checkpoint → restore
bit-for-bit.

Standard library only: every layer may import this module.
"""

from __future__ import annotations

import datetime
import math
import struct
import zlib
from decimal import Decimal, InvalidOperation
from typing import Any, Optional

_HEADER = struct.Struct("<II")

#: Bytes before the first payload byte of a record.
HEADER_SIZE = _HEADER.size


def pack(payload: bytes) -> bytes:
    """``payload`` behind its length and checksum."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def unpack(
    data: bytes, offset: int = 0, limit: Optional[int] = None
) -> tuple[Optional[bytes], int, Optional[str]]:
    """Read the record starting at ``offset``: ``(payload, end, damage)``.

    Intact: the verified payload, the offset just past the record, and
    ``None``.  Damaged: ``(None, offset, reason)`` with the reason one of
    ``torn-header`` / ``oversize`` / ``torn-payload`` /
    ``checksum-mismatch``.  A length field above ``limit`` is
    ``oversize``: the bytes are garbage (or hostile), and no caller
    should size a read or a buffer by them.
    """
    start = offset + HEADER_SIZE
    if start > len(data):
        return None, offset, "torn-header"
    length, checksum = _HEADER.unpack_from(data, offset)
    if limit is not None and length > limit:
        return None, offset, "oversize"
    end = start + length
    if end > len(data):
        return None, offset, "torn-payload"
    payload = bytes(data[start:end])
    if zlib.crc32(payload) != checksum:
        return None, offset, "checksum-mismatch"
    return payload, end, None


def flip_payload_byte(record: bytes, offset: int, xor: int) -> bytes:
    """``record`` with one payload byte XORed — the header, and so the
    stored checksum, stays as written (bit rot, line noise)."""
    body = len(record) - HEADER_SIZE
    if body <= 0:
        return record
    mutated = bytearray(record)
    mutated[HEADER_SIZE + offset % body] ^= xor
    return bytes(mutated)


# -- scalar codec ------------------------------------------------------------


class ScalarInvalid(ValueError):
    """A tagged scalar envelope has an unknown tag or undecodable text,
    or a value is NaN or infinite."""


def finite_decimal(text: Any) -> Decimal:
    """``Decimal(text)`` for a finite number only.  No SQL value is NaN
    or infinite, so those spellings raise ``InvalidOperation`` like any
    other text that is not a number; the engine parses text with it too."""
    value = Decimal(text)
    if not value.is_finite():
        raise InvalidOperation(f"{text!r} is not a finite number")
    return value


_DECODERS = {
    "decimal": finite_decimal,
    "datetime": datetime.datetime.fromisoformat,
    "date": datetime.date.fromisoformat,
}


def encode_value(value: Any) -> Any:
    """JSON-safe, type-preserving encoding of one stored scalar."""
    if isinstance(value, Decimal):
        return {"$": "decimal", "v": str(value)}
    if isinstance(value, datetime.datetime):
        return {"$": "datetime", "v": value.isoformat()}
    if isinstance(value, datetime.date):
        return {"$": "date", "v": value.isoformat()}
    return value


def json_default(value: Any) -> Any:
    """The ``default`` hook of ``json.dumps`` for SQL values, on the
    wire and on disk: the envelope of a value JSON cannot carry, and
    the encoder's ``TypeError`` for anything that is not a SQL scalar."""
    encoded = encode_value(value)
    if encoded is value:
        raise TypeError(f"unserialisable value of type {type(value).__name__}")
    return encoded


def decode_value(value: Any) -> Any:
    """Undo :func:`encode_value`; raises :class:`ScalarInvalid`."""
    if not isinstance(value, dict):
        if type(value) is float and not math.isfinite(value):
            raise ScalarInvalid(f"non-finite number {value!r}")
        return value
    tag, text = value.get("$"), value.get("v")
    decoder = _DECODERS.get(tag) if isinstance(tag, str) else None
    if decoder is None:
        raise ScalarInvalid(f"unknown value tag {tag!r}")
    try:
        return decoder(text)
    except (InvalidOperation, ValueError, TypeError):
        raise ScalarInvalid(f"undecodable {tag} value {text!r}") from None


def decode_row(row: Any) -> list:
    """Decode one row; a row that is not a list (or, in memory, a
    tuple) is itself invalid."""
    if not isinstance(row, (list, tuple)):
        raise ScalarInvalid(f"a row must be a list, not {type(row).__name__}")
    return [decode_value(value) for value in row]
