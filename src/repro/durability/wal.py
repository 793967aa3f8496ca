"""The write-ahead log: checksummed, length-prefixed redo records.

Each record is one :mod:`repro.records` record (length, CRC32, payload).
The payload carries ``{"lsn": n, "sql": text}``: a monotonically
increasing log sequence number and the committed write statement in
the replica's own dialect.  The scan ignores any other key, so a log
written with the older ``"gen"`` field still reads.
:func:`encode_record` spells that JSON object with a format string
around the C encoder's string escape: the bytes ``json.dumps`` of the
dict writes, without the dict.

The scan (:meth:`WriteAheadLog.scan`) is the recovery contract: read
records in order and stop at the *first* invalid one — a torn header,
a torn or corrupt payload (CRC mismatch), undecodable JSON, or an LSN
that is not the expected successor (a lost flush left a gap).  Every
byte after the first invalid record is discarded, so recovery always
lands on a prefix of the committed history — never a gapped subset,
which is what makes the power-cut property ("recover to a state some
prefix of the run produces") hold by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Callable, Optional

from repro import records
from repro.durability.medium import StorageMedium

#: Upper bound on a record payload; anything larger read from disk is
#: treated as a torn/garbage header rather than an allocation request.
MAX_PAYLOAD = 1 << 24


@dataclass(frozen=True)
class WalRecord:
    """One committed write statement as recovered from the log."""

    lsn: int
    sql: str


@dataclass
class WalScan:
    """Result of a tolerant prefix scan of one WAL."""

    records: list[WalRecord]
    #: Bytes covered by the valid record prefix.
    valid_bytes: int
    #: Total bytes present on the medium.
    total_bytes: int
    #: Why the scan stopped early (``None`` when the log was clean):
    #: ``torn-header`` / ``torn-payload`` / ``checksum-mismatch`` /
    #: ``undecodable`` / ``lsn-gap``.
    stopped: Optional[str] = None

    @property
    def dropped_bytes(self) -> int:
        return self.total_bytes - self.valid_bytes

    @property
    def clean(self) -> bool:
        return self.stopped is None


def encode_record(lsn: int, sql: str) -> bytes:
    """One WAL record: the bytes ``json.dumps({"lsn": lsn, "sql": sql},
    ensure_ascii=False)`` writes, spelled without building the dict."""
    payload = '{"lsn": %d, "sql": %s}' % (lsn, encode_basestring(sql))
    return records.pack(payload.encode("utf-8"))


def scan_records(blob: bytes) -> WalScan:
    """Decode the valid record prefix of raw WAL bytes."""
    found: list[WalRecord] = []
    offset = 0
    stopped: Optional[str] = None
    total = len(blob)
    while offset < total:
        payload, end, damage = records.unpack(blob, offset, MAX_PAYLOAD)
        if damage is not None:
            # A garbage length field is a header nobody finished writing.
            stopped = "torn-header" if damage == "oversize" else damage
            break
        try:
            fields = json.loads(payload.decode("utf-8"))
            record = WalRecord(lsn=int(fields["lsn"]), sql=str(fields["sql"]))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            stopped = "undecodable"
            break
        if record.lsn != len(found):
            stopped = "lsn-gap"
            break
        found.append(record)
        offset = end
    return WalScan(
        records=found, valid_bytes=offset, total_bytes=total, stopped=stopped
    )


class WriteAheadLog:
    """Append/scan access to one replica's redo log on a medium.

    ``append`` runs the encoded record through an optional ``mutate``
    hook before it reaches the medium — that is where the storage
    fault effects (torn write, lost flush, checksum corruption) bite,
    modelling a disk that lies between the commit and the platter.
    """

    def __init__(self, medium: StorageMedium, name: str) -> None:
        self.medium = medium
        self.name = name
        self._next_lsn: Optional[int] = None

    @property
    def next_lsn(self) -> int:
        """The LSN the next committed write will carry."""
        if self._next_lsn is None:
            self._next_lsn = len(self.scan().records)
        return self._next_lsn

    def append(
        self,
        sql: str,
        mutate: Optional[Callable[[bytes], Optional[bytes]]] = None,
        *,
        encoded: Optional[dict[tuple[int, str], bytes]] = None,
    ) -> WalRecord:
        """Encode and append one committed write statement.

        The LSN advances even when ``mutate`` drops the record (a lost
        flush): the statement *did* commit, the log just never learned
        — exactly the gap the scan detects.  ``encoded`` memoises record
        bytes by ``(lsn, sql)`` across logs that write the same record;
        ``mutate`` returns new bytes, so sharing them is safe.
        """
        lsn = self.next_lsn
        record = WalRecord(lsn=lsn, sql=sql)
        if encoded is None:
            data: Optional[bytes] = encode_record(lsn, sql)
        else:
            data = encoded.get((lsn, sql))
            if data is None:
                data = encoded[lsn, sql] = encode_record(lsn, sql)
        if mutate is not None:
            data = mutate(data)
        if data:
            self.medium.append(self.name, data)
        self._next_lsn = lsn + 1
        return record

    def scan(self) -> WalScan:
        return scan_records(self.medium.read(self.name))

    def truncate_to_valid(self) -> int:
        """Discard everything past the valid prefix; returns bytes cut.

        Run by recovery after redo so the log is clean for the next
        incarnation — the idempotence half of the power-cut property.
        """
        scan = self.scan()
        if scan.dropped_bytes:
            self.medium.truncate(self.name, scan.valid_bytes)
        self._next_lsn = len(scan.records)
        return scan.dropped_bytes
