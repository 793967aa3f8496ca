"""Durable checkpoints: checksummed logical snapshots of one product.

A checkpoint is *logical*, not a byte image: the schema is stored as
the replica's own DDL history (replayed verbatim on restore, which
rebuilds tables, views, indexes, and their constraint metadata through
the ordinary execution path) and the data as per-table row dumps in the
:mod:`repro.records` scalar codec, which covers every scalar the engine
stores (NULL, booleans, integers, floats, strings, ``Decimal``,
``date``, ``datetime``).  Alongside them it records the WAL watermark:
the LSN from which redo must resume.

The C JSON encoder writes the payload: it spells NULL, booleans,
integers, floats and strings itself and calls back
(:func:`repro.records.json_default`) only for the values that travel in
the scalar envelope.

A checkpoint blob is one :mod:`repro.records` record around a JSON
payload, read with the WAL's distrust: a checkpoint that fails its
checksum or fails to apply is skipped and recovery falls back to the
previous one — or to a full-history redo when none survive.
"""

from __future__ import annotations

import json

from repro import records
from repro.durability.medium import StorageMedium
from repro.servers.product import ServerProduct


class CheckpointInvalid(Exception):
    """A checkpoint blob failed validation and must not be trusted."""


def pack_checkpoint(payload: dict) -> bytes:
    text = json.dumps(payload, ensure_ascii=False, default=records.json_default)
    return records.pack(text.encode("utf-8"))


def unpack_checkpoint(data: bytes) -> dict:
    """The payload of a checkpoint blob, refused unless recovery can walk
    its structure: ``lsn`` a non-negative int, ``ddl`` a list of str,
    ``tables`` a list of ``{"name": str, "columns": int, "rows": list}``.
    Rows are left to the decoder that loads them, so the check costs one
    step per table, not per value; keys it does not name are ignored."""
    # No size limit: a checkpoint is a whole database, and a length the
    # blob cannot cover already reads as a torn payload.
    blob, _, damage = records.unpack(data)
    if damage is not None:
        raise CheckpointInvalid(f"checkpoint damaged ({damage})")
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise CheckpointInvalid(f"undecodable checkpoint: {error}") from None
    if not isinstance(payload, dict):
        raise CheckpointInvalid("checkpoint payload is not an object")
    lsn, ddl, tables = payload.get("lsn"), payload.get("ddl"), payload.get("tables")
    if type(lsn) is not int or lsn < 0:
        raise CheckpointInvalid(f"checkpoint lsn {lsn!r} is not a WAL position")
    if not isinstance(ddl, list) or not all(isinstance(sql, str) for sql in ddl):
        raise CheckpointInvalid("checkpoint ddl is not a list of statements")
    if not isinstance(tables, list) or not all(
        isinstance(table, dict)
        and isinstance(table.get("name"), str)
        and type(table.get("columns")) is int
        and isinstance(table.get("rows"), list)
        for table in tables
    ):
        raise CheckpointInvalid("checkpoint tables are not name/columns/rows dumps")
    return payload


def build_checkpoint(product: ServerProduct, *, lsn: int, ddl: list[str]) -> dict:
    """The logical snapshot payload of one product at WAL position
    ``lsn``.

    Each table's rows are the product's tuple copies
    (:meth:`~repro.servers.product.ServerProduct.table_rows`): the
    payload shares no list with the live heap, and its values are
    encoded only by :func:`pack_checkpoint`."""
    return {
        "lsn": lsn,
        "ddl": list(ddl),
        "tables": [
            {"name": name, "columns": columns, "rows": rows}
            for name, columns, rows in product.table_rows()
        ],
    }


#: Checkpoints kept per replica; older ones are pruned after a
#: successful save, so a checkpoint torn mid-write never leaves the
#: replica without a fallback.
KEEP_CHECKPOINTS = 2


class CheckpointStore:
    """Numbered checkpoint blobs for one replica on a medium, the last
    :data:`KEEP_CHECKPOINTS` of them."""

    def __init__(self, medium: StorageMedium, prefix: str) -> None:
        self.medium = medium
        self.prefix = prefix

    def _names(self) -> list[str]:
        return self.medium.names(self.prefix + "/ckpt-")

    def _sequence(self, name: str) -> int:
        try:
            return int(name.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            return -1

    def save(self, payload: dict) -> str:
        existing = self._names()
        seq = max((self._sequence(name) for name in existing), default=-1) + 1
        name = f"{self.prefix}/ckpt-{seq:08d}"
        self.medium.write(name, pack_checkpoint(payload))
        for stale in sorted(existing, key=self._sequence)[: max(0, len(existing) + 1 - KEEP_CHECKPOINTS)]:
            self.medium.delete(stale)
        return name

    def load_all(self) -> list[tuple[str, dict]]:
        """Valid checkpoints, newest first; corrupt blobs are skipped."""
        found: list[tuple[str, dict]] = []
        for name in sorted(self._names(), key=self._sequence, reverse=True):
            try:
                found.append((name, unpack_checkpoint(self.medium.read(name))))
            except CheckpointInvalid:
                continue
        return found
