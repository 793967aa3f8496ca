"""Durable checkpoints: checksummed logical snapshots of one product.

A checkpoint is *logical*, not a byte image.  A replica's checkpoints
form chains: a **base** followed by **deltas**, each delta describing
the heaps against the checkpoint before it (its ``parent``).

A base stores the schema as the replica's own DDL history (replayed
verbatim on restore, which rebuilds tables, views, indexes, and their
constraint metadata through the ordinary execution path) and the data
as per-table row dumps in the :mod:`repro.records` scalar codec, which
covers every scalar the engine stores (NULL, booleans, integers,
floats, strings, ``Decimal``, ``date``, ``datetime``)::

    {"lsn": n, "ddl": [sql, ...],
     "tables": [{"name": t, "columns": w, "rows": [row, ...]}, ...]}

A delta carries no DDL (DDL forces a base) and names its parent by
sequence number.  Each table, in the parent's order, is its new heap
in heap order: a list of ``[start, count, literals]`` runs, each
copying ``count`` rows of the parent's heap from position ``start``
and then taking the next ``literals`` rows of ``rows``.  Copied
positions only increase, so no parent row is copied twice; ``rows``
holds the inserted and updated rows, in the same codec as a base's::

    {"lsn": n, "parent": seq,
     "tables": [{"name": t, "columns": w, "runs": [[start, count, literals], ...],
                 "rows": [row, ...]}, ...]}

Both carry the WAL watermark ``lsn``: the position from which redo
must resume.

The C JSON encoder writes the payload: it spells NULL, booleans,
integers, floats and strings itself and calls back
(:func:`repro.records.json_default`) only for the values that travel in
the scalar envelope.

A checkpoint blob is one :mod:`repro.records` record around a JSON
payload, read with the WAL's distrust: a checkpoint that fails its
checksum or fails to apply is skipped and recovery falls back to the
chain point before it — or to a full-history redo when none survive.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro import records
from repro.durability.medium import StorageMedium
from repro.servers.product import ServerProduct
from repro.sqlengine.storage import TableImage


class CheckpointInvalid(Exception):
    """A checkpoint blob failed validation and must not be trusted."""


def pack_checkpoint(payload: dict) -> bytes:
    text = json.dumps(payload, ensure_ascii=False, default=records.json_default)
    return records.pack(text.encode("utf-8"))


def unpack_checkpoint(data: bytes) -> dict:
    """The payload of a checkpoint blob, refused unless recovery can walk
    its structure: ``lsn`` a non-negative int; for a base ``ddl`` a list
    of str and ``tables`` a list of ``{"name": str, "columns": int,
    "rows": list}``; for a delta ``parent`` a non-negative int and each
    table also a ``runs`` list.  Rows and runs are left to
    :func:`chain_tables`, so the check costs one step per table, not
    per value; keys it does not name are ignored."""
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
    lsn, tables = payload.get("lsn"), payload.get("tables")
    if type(lsn) is not int or lsn < 0:
        raise CheckpointInvalid(f"checkpoint lsn {lsn!r} is not a WAL position")
    delta = "parent" in payload
    if delta:
        parent = payload["parent"]
        if type(parent) is not int or parent < 0:
            raise CheckpointInvalid(f"delta parent {parent!r} is not a checkpoint")
    else:
        ddl = payload.get("ddl")
        if not isinstance(ddl, list) or not all(isinstance(sql, str) for sql in ddl):
            raise CheckpointInvalid("checkpoint ddl is not a list of statements")
    if not isinstance(tables, list) or not all(
        isinstance(table, dict)
        and isinstance(table.get("name"), str)
        and type(table.get("columns")) is int
        and isinstance(table.get("rows"), list)
        and (not delta or isinstance(table.get("runs"), list))
        for table in tables
    ):
        raise CheckpointInvalid("checkpoint tables are not name/columns/rows dumps")
    return payload


def build_checkpoint(product: ServerProduct, *, lsn: int, ddl: list[str]) -> dict:
    """The base payload of one product at WAL position ``lsn``.

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


def build_delta(
    previous: dict[str, TableImage],
    current: dict[str, TableImage],
    *,
    lsn: int,
    parent: int,
) -> Optional[dict]:
    """The delta payload from the images ``previous`` (taken at the
    parent checkpoint) to ``current`` (taken now, of the same storage),
    or None when the two hold different tables or widths, or a heap was
    replaced in between: then only a base describes the state.

    A row of ``previous`` written in place since (a ``before`` entry on
    the image chain) is updated; a row of ``current`` not in
    ``previous`` (by identity) is inserted; one of ``previous`` missing
    from ``current`` is deleted.  The first two are literal rows, the
    unchanged rest are runs of the parent's heap."""
    if previous.keys() != current.keys():
        return None
    tables = []
    for key in sorted(current):
        old, new = previous[key], current[key]
        written = old.written_until(new)
        if written is None or old.column_count != new.column_count:
            return None
        runs, rows = _heap_runs(old.rows, new.rows, written)
        tables.append(
            {"name": new.name, "columns": new.column_count, "runs": runs, "rows": rows}
        )
    return {"lsn": lsn, "parent": parent, "tables": tables}


def _heap_runs(
    parent: list[list[Any]], heap: list[list[Any]], written: set[int]
) -> tuple[list[list[int]], list[tuple]]:
    """``heap`` as ``[start, count, literals]`` runs over ``parent``
    plus the literal rows; a row copies its parent position only when
    it was not written and that position lies past the last copied one."""
    position = {id(row): at for at, row in enumerate(parent)}
    runs: list[list[int]] = []
    literals: list[tuple] = []
    run: Optional[list[int]] = None
    end = 0
    for row in heap:
        key = id(row)
        at = position.get(key)
        if at is None or at < end or key in written:
            literals.append(tuple(row))
            if run is None:
                run = [0, 0, 0]
                runs.append(run)
            run[2] += 1
        elif run is not None and not run[2] and at == end:
            run[1] += 1
            end += 1
        else:
            run = [at, 1, 0]
            runs.append(run)
            end = at + 1
    return runs, literals


def chain_tables(base: dict, *deltas: dict) -> list[tuple[str, int, list[list]]]:
    """The decoded tables, as ``(name, columns, rows)``, at the chain
    point ``base`` then ``deltas`` in order reach: each heap row for
    row, in heap order.  Raises :class:`CheckpointInvalid` for anything
    the writer never produces: a run of the wrong shape, out of the
    parent's heap, or copying a position twice; literal counts that
    disagree with the rows; a table set or width that is not the
    parent's; a watermark before the parent's; a row of the wrong width
    or holding a value that is not a SQL scalar."""
    if "parent" in base:
        raise CheckpointInvalid(
            f"delta parent {base['parent']} is not an older valid checkpoint"
        )
    tables = [
        (table["name"], table["columns"], _decoded(table["rows"], table["columns"]))
        for table in base["tables"]
    ]
    lsn = base["lsn"]
    for delta in deltas:
        if "parent" not in delta:
            raise CheckpointInvalid("a base cannot follow a checkpoint in its chain")
        if delta["lsn"] < lsn:
            raise CheckpointInvalid(f"delta lsn {delta['lsn']} before its parent's {lsn}")
        lsn = delta["lsn"]
        if len(delta["tables"]) != len(tables):
            raise CheckpointInvalid("delta tables are not its parent's")
        tables = [_apply_runs(table, entry) for table, entry in zip(tables, delta["tables"])]
    return tables


def _apply_runs(table: tuple[str, int, list[list]], entry: dict) -> tuple[str, int, list[list]]:
    name, columns, parent = table
    if entry["name"] != name or entry["columns"] != columns:
        raise CheckpointInvalid(f"delta table {entry['name']!r} is not its parent's {name!r}")
    literals = _decoded(entry["rows"], columns)
    heap: list[list] = []
    end = taken = 0
    for run in entry["runs"]:
        if not (
            isinstance(run, list)
            and len(run) == 3
            and all(type(number) is int and number >= 0 for number in run)
        ):
            raise CheckpointInvalid(f"delta run {run!r} of {name!r} is not three counts")
        start, count, more = run
        if start < end or start + count > len(parent):
            raise CheckpointInvalid(
                f"delta run {run!r} of {name!r} is outside the parent's "
                f"{len(parent)} rows or copies one twice"
            )
        heap += parent[start : start + count]
        heap += literals[taken : taken + more]
        taken += more
        end = start + count
    if taken != len(literals):
        raise CheckpointInvalid(
            f"delta runs of {name!r} take {taken} of its {len(literals)} rows"
        )
    return name, columns, heap


def _decoded(rows: list, columns: int) -> list[list]:
    decoded = []
    try:
        for row in rows:
            values = records.decode_row(row)
            if len(values) != columns:
                raise CheckpointInvalid(f"row width {len(values)} != table width {columns}")
            if any(isinstance(value, list) for value in values):
                raise CheckpointInvalid(f"row {row!r} holds a value that is no SQL scalar")
            decoded.append(values)
    except records.ScalarInvalid as error:
        raise CheckpointInvalid(f"checkpoint row dump: {error}") from None
    return decoded


class CheckpointStore:
    """Numbered checkpoint blobs for one replica on a medium.

    The prune keeps the two newest chain points and every blob either
    depends on: never a base a kept delta needs, and always a fallback
    for a newest blob torn on its way to the medium.  The WAL is not
    truncated at checkpoints, so any kept point can still redo from its
    ``lsn``."""

    def __init__(self, medium: StorageMedium, prefix: str) -> None:
        self.medium = medium
        self.prefix = prefix
        #: Sequence number -> that of the base it depends on, for every
        #: blob this store saved or found valid.
        self._bases: dict[int, int] = {}

    def _names(self) -> list[str]:
        return self.medium.names(self.prefix + "/ckpt-")

    def sequence(self, name: str) -> int:
        """The sequence number in a blob name (-1 for a foreign name)."""
        try:
            return int(name.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            return -1

    def save(self, payload: dict) -> str:
        existing = sorted((self.sequence(name), name) for name in self._names())
        seq = max((older for older, _ in existing), default=-1) + 1
        name = f"{self.prefix}/ckpt-{seq:08d}"
        self.medium.write(name, pack_checkpoint(payload))
        parent = payload.get("parent")
        self._bases[seq] = seq if parent is None else self._bases[parent]
        known = [older for older, _ in existing if older in self._bases]
        if known:
            floor = min(self._bases[seq], self._bases[known[-1]])
            for older, stale in existing:
                if older < floor:
                    self.medium.delete(stale)
                    self._bases.pop(older, None)
        return name

    def load_all(self) -> list[tuple[str, dict]]:
        """Valid checkpoints, newest first; corrupt blobs are skipped."""
        found: list[tuple[str, dict]] = []
        for name in sorted(self._names(), key=self.sequence, reverse=True):
            try:
                found.append((name, unpack_checkpoint(self.medium.read(name))))
            except CheckpointInvalid:
                continue
        return found

    def chains(self) -> list[tuple[str, list[dict]]]:
        """Every valid checkpoint, newest first, with the chain
        :func:`chain_tables` applies for it: its base, then its deltas
        in order.  A delta whose parent is no valid older checkpoint
        heads its own chain, which :func:`chain_tables` refuses."""
        chains: dict[int, list[dict]] = {}
        found = []
        for name, payload in reversed(self.load_all()):
            seq = self.sequence(name)
            parent = payload.get("parent")
            if parent is None:
                chains[seq] = [payload]
                self._bases[seq] = seq
            elif parent < seq and parent in chains:
                chains[seq] = chains[parent] + [payload]
                if parent in self._bases:
                    self._bases[seq] = self._bases[parent]
            else:
                chains[seq] = [payload]
            found.append((name, chains[seq]))
        return found[::-1]
