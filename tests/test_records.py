"""The one record format and the one scalar codec, through their three users.

Wire frames, WAL records and checkpoint blobs are the same checksummed
length-prefixed record; each user answers damage in its own way (the
wire raises ``FrameCorrupt``, the WAL scan stops with a reason and keeps
the prefix, the checkpoint raises ``CheckpointInvalid`` and its store
falls back).  The matrix pins every user × every kind of damage.
"""

import datetime
import json
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import records
from repro.durability import CheckpointInvalid, CheckpointStore, MemoryMedium
from repro.durability.checkpoint import build_checkpoint, pack_checkpoint, unpack_checkpoint
from repro.durability.recovery import apply_checkpoint
from repro.durability.wal import encode_record, scan_records
from repro.net import FrameCorrupt, decode_frame, encode_frame, protocol
from repro.net.errors import ProtocolViolation
from repro.servers import make_server
from repro.sqlengine.engine import Result


def damaged(record: bytes, how: str) -> bytes:
    if how == "torn header":
        return record[: records.HEADER_SIZE - 3]
    if how == "torn payload":
        return record[:-2]
    if how == "flipped payload byte":
        return records.flip_payload_byte(record, 1, 0x20)
    assert how == "oversize length"
    return (0xFFFFFFF0).to_bytes(4, "little") + record[4:]


DAMAGES = ("torn header", "torn payload", "flipped payload byte", "oversize length")


def check_wire(how: str) -> None:
    with pytest.raises(FrameCorrupt):
        decode_frame(damaged(encode_frame(protocol.hello()), how))


def check_wal(how: str) -> None:
    # An oversize length is a header nobody finished writing, not a
    # request to allocate: the WAL calls it torn.
    reason = {
        "torn header": "torn-header",
        "torn payload": "torn-payload",
        "flipped payload byte": "checksum-mismatch",
        "oversize length": "torn-header",
    }[how]
    good = encode_record(0, "A")
    # A tear is the end of the log; rot can sit in front of sound records.
    after = b"" if how.startswith("torn") else encode_record(2, "C")
    scan = scan_records(good + damaged(encode_record(1, "B"), how) + after)
    assert scan.stopped == reason
    assert [record.sql for record in scan.records] == ["A"]
    assert scan.valid_bytes == len(good)
    assert scan.dropped_bytes > 0


def check_checkpoint(how: str) -> None:
    product = make_server("IB")
    product.execute("CREATE TABLE t (x INT)")
    medium = MemoryMedium()
    store = CheckpointStore(medium, "IB")
    older = store.save(build_checkpoint(product, lsn=0, ddl=[]))
    newer = store.save(build_checkpoint(product, lsn=1, ddl=[]))
    blob = damaged(medium.read(newer), how)
    with pytest.raises(CheckpointInvalid):
        unpack_checkpoint(blob)
    medium.write(newer, blob)
    assert [name for name, _ in store.load_all()] == [older]


@pytest.mark.parametrize("how", DAMAGES)
@pytest.mark.parametrize("check", [check_wire, check_wal, check_checkpoint])
def test_corruption_matrix(check, how):
    check(how)


def test_unpack_reports_damage_as_data():
    record = records.pack(b"payload")
    assert records.unpack(record) == (b"payload", len(record), None)
    assert records.unpack(b"xx" + record, 2) == (b"payload", len(record) + 2, None)
    assert records.unpack(record, 0, 3) == (None, 0, "oversize")
    for how, damage in zip(
        DAMAGES[:3], ("torn-header", "torn-payload", "checksum-mismatch")
    ):
        assert records.unpack(damaged(record, how)) == (None, 0, damage)


# -- the scalar codec ---------------------------------------------------------

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
    st.decimals(allow_nan=False, allow_infinity=False),
    st.dates(),
    # ``fold`` is a DST hint on aware wall-clock times; the engine only
    # makes naive datetimes parsed from text, where it is always 0.
    st.datetimes().map(lambda moment: moment.replace(fold=0)),
)


def exact(values) -> list:
    """Type and representation, not just ``==`` (which calls
    ``Decimal('1.50')`` and ``Decimal('1.5')``, or ``True`` and ``1``,
    the same)."""
    return [(type(value), repr(value)) for value in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(SCALARS, min_size=1, max_size=6))
def test_every_stored_scalar_survives_wire_engine_checkpoint_restore(values):
    # wire: the row arrives as the parameters of an execute frame
    frame = encode_frame(protocol.execute("s", "t", 1, "INSERT ...", params=values))
    arrived = protocol.decode_row(decode_frame(frame)["params"])
    assert exact(arrived) == exact(values)

    # engine: it is stored in a table heap
    width = len(values)
    ddl = f"CREATE TABLE t ({', '.join(f'c{i} VARCHAR(8)' for i in range(width))})"
    product = make_server("IB")
    product.execute(ddl)
    product.engine.storage.get("t").insert(arrived)

    # checkpoint -> restore on a fresh product
    blob = pack_checkpoint(build_checkpoint(product, lsn=0, ddl=[ddl]))
    restored = make_server("IB")
    apply_checkpoint(restored, unpack_checkpoint(blob))
    (row,) = restored.engine.storage.get("t").snapshot()
    assert exact(row) == exact(values)
    assert restored.state_signature() == product.state_signature()

    # and back out to a client in a result message
    reply = decode_frame(encode_frame(protocol.result(1, Result("select", ["c"], [row], 1))))
    assert exact(protocol.decode_result(reply).rows[0]) == exact(values)


@pytest.mark.parametrize(
    "envelope",
    [
        {"$dec": "1.5"},  # the wire's retired spelling is an unknown tag now
        {"$": "decimal", "v": "zz"},
        {"$": "date", "v": "nope"},
        {"$": "datetime", "v": None},
        {"$": "interval", "v": "1"},
        {"$": ["decimal"], "v": "1"},
        {},
        # No SQL value is NaN or infinite, whatever spells it.
        {"$": "decimal", "v": "NaN"},
        {"$": "decimal", "v": "-Infinity"},
        {"$": "decimal", "v": "sNaN"},
        float("nan"),
        float("inf"),
    ],
)
def test_malformed_envelope_is_one_error_mapped_per_user(envelope):
    with pytest.raises(records.ScalarInvalid):
        records.decode_value(envelope)
    with pytest.raises(ProtocolViolation):
        protocol.decode_row([envelope])
    product = make_server("IB")
    product.execute("CREATE TABLE t (x INT)")
    payload = build_checkpoint(product, lsn=0, ddl=["CREATE TABLE t (x INT)"])
    payload["tables"][0]["rows"] = [[envelope]]
    with pytest.raises(CheckpointInvalid):
        apply_checkpoint(make_server("IB"), payload)


def test_envelope_spelling_is_the_on_disk_one():
    row = (Decimal("1.50"), datetime.date(2004, 6, 28), datetime.datetime(2004, 6, 28, 12, 30))
    envelopes = [
        {"$": "decimal", "v": "1.50"},
        {"$": "date", "v": "2004-06-28"},
        {"$": "datetime", "v": "2004-06-28T12:30:00"},
    ]
    assert [records.encode_value(value) for value in row] == envelopes
    # The checkpoint writer's hook puts exactly these envelopes on disk.
    assert json.dumps(row, default=records.json_default) == json.dumps(envelopes)


# -- the durable writers: the bytes of the dict-and-dumps spelling ------------


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**40), st.text())
def test_wal_record_is_the_dict_spelling(lsn, sql):
    spelled = json.dumps({"lsn": lsn, "sql": sql}, ensure_ascii=False)
    assert encode_record(lsn, sql) == records.pack(spelled.encode("utf-8"))


def row_encoded_checkpoint(engine, lsn: int, ddl: list) -> bytes:
    """A checkpoint blob as the writer that envelopes every value of
    every row before one ``json.dumps`` spells it."""
    payload = {
        "lsn": lsn,
        "ddl": list(ddl),
        "tables": [
            {
                "name": data.name,
                "columns": data.column_count,
                "rows": [
                    [records.encode_value(value) for value in row]
                    for row in data.snapshot()
                ],
            }
            for data in engine.storage.tables()
        ],
    }
    return records.pack(json.dumps(payload, ensure_ascii=False).encode("utf-8"))


#: One value of every scalar kind the engine stores, a datetime beside a date.
EVERY_KIND = (
    None, True, False, -7, 2**70, -0.0, 2.5e-310, "o'brien ☃\n",
    Decimal("-3.25"), Decimal("1E+2"), datetime.date(2004, 6, 28),
    datetime.datetime(2004, 6, 28, 12, 30, 1, 500),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(SCALARS, min_size=3, max_size=3), max_size=6))
def test_checkpoint_is_the_row_encoded_spelling(rows):
    product = make_server("IB")
    engine = product.engine
    ddl = [
        "CREATE TABLE a (x VARCHAR(8), y VARCHAR(8), z VARCHAR(8))",
        "CREATE TABLE b ("
        + ", ".join(f"c{i} VARCHAR(8)" for i in range(len(EVERY_KIND)))
        + ")",
        "CREATE TABLE empty (x INT)",
    ]
    for statement in ddl:
        engine.execute(statement)
    for row in rows:
        engine.storage.get("a").insert(row)
    engine.storage.get("b").insert(EVERY_KIND)
    blob = pack_checkpoint(build_checkpoint(product, lsn=3, ddl=ddl))
    assert blob == row_encoded_checkpoint(engine, 3, ddl)


def test_a_checkpoint_applies_without_the_byte_round_trip():
    source = make_server("IB")
    ddl = ["CREATE TABLE t (id INT PRIMARY KEY, v DECIMAL(8, 2), d DATE)"]
    source.execute(ddl[0])
    source.execute("INSERT INTO t VALUES (1, 1.25, '2004-06-28')")
    source.execute("INSERT INTO t VALUES (2, NULL, NULL)")
    restored = make_server("IB")
    apply_checkpoint(restored, build_checkpoint(source, lsn=0, ddl=ddl))
    assert restored.state_signature() == source.state_signature()


def test_packed_checkpoint_does_not_alias_the_live_heap():
    product = make_server("IB")
    product.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20))")
    product.execute("INSERT INTO t VALUES (1, 'a')")
    product.execute("INSERT INTO t VALUES (2, 'b')")
    payload = build_checkpoint(product, lsn=0, ddl=[])
    before = pack_checkpoint(payload)
    product.execute("UPDATE t SET v = 'z' WHERE id = 1")
    product.execute("DELETE FROM t WHERE id = 2")
    product.execute("INSERT INTO t VALUES (3, 'c')")
    product.engine.storage.get("t").rows()[0][1] = "mutated in place"
    assert pack_checkpoint(payload) == before
