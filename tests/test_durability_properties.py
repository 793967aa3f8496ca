"""The power-cut property: recovery is prefix-consistent everywhere.

The WAL scan discards everything past the first invalid record, so no
matter where a power cut (truncation) or bit rot (corruption) lands in
the log — any byte boundary, including mid-header and mid-payload —
restart recovery must land on a state some *prefix* of the committed
run produces, never a gapped or invented one.  The oracle is exact:
every prefix state is precomputed by pristine replay, as its signature
and as its ``table_rows()`` in heap order, recovery's result must be a
member, and running recovery twice must be a fixed point (idempotence).

Checkpoints are chains of a base and its deltas, so the same holds for
a cut at any moment between a base and its deltas, and for a checkpoint
blob torn or rotted on its way to the medium: with the log intact,
recovery falls back to the chain point before it and redoes the rest,
landing on the pre-cut state row for row, on all four products.  A
checksummed checkpoint of a shape the writer never produces is refused
with :class:`CheckpointInvalid` and nothing else.

The default tests sweep every truncation boundary exhaustively and
sample corruptions with Hypothesis; the ``soak`` tests (deselected by
default, run with ``pytest -m soak``) additionally rot every byte of
a longer log and truncate and rot every byte of every checkpoint blob.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copy
import json

from repro import records
from repro.durability import (
    CheckpointInvalid,
    CheckpointStore,
    DurableSession,
    MemoryMedium,
    apply_checkpoint,
    engine_state_signature,
)
from repro.durability.checkpoint import unpack_checkpoint
from repro.errors import SqlError
from repro.servers import make_server

PRODUCTS = ["IB", "PG", "OR", "MS"]

SCRIPT_STATEMENTS = [
    "CREATE TABLE t (id INT PRIMARY KEY, v DECIMAL(8,2))",
    "INSERT INTO t VALUES (1, 10.00)",
    "INSERT INTO t VALUES (2, 20.00)",
    "UPDATE t SET v = 15.50 WHERE id = 1",
    "INSERT INTO t VALUES (3, 30.00)",
    "DELETE FROM t WHERE id = 2",
]


def state(product):
    """A product's state as the oracle compares it: its signature and
    its tables row for row, in heap order."""
    return engine_state_signature(product.engine), repr(product.table_rows())


def build_scenario(statements, checkpoint_interval):
    """One committed run plus the oracle: the state of every prefix of
    its WAL, by pristine replay."""
    session = DurableSession(
        make_server("IB"), name="IB", checkpoint_interval=checkpoint_interval
    )
    for statement in statements:
        session.execute(statement)
    logged = [record.sql for record in session.store.wal.scan().records]
    prefixes = set()
    replay = make_server("IB")
    prefixes.add(state(replay))
    for sql in logged:
        try:
            replay.execute(sql)
        except SqlError:
            pass
        prefixes.add(state(replay))
    return session.power_cut(), prefixes


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(SCRIPT_STATEMENTS, checkpoint_interval=3)


def recover_image(image, key="IB"):
    return DurableSession.resume(make_server(key), image, name=key)


def assert_acceptable(image, prefixes):
    """Recovery lands in the prefix set, and is idempotent."""
    recovered, _ = recover_image(image)
    found = state(recovered.product)
    assert found in prefixes
    again, report = recover_image(recovered.power_cut())
    assert state(again.product) == found
    assert report.stopped is None  # the first pass truncated the damage
    return found


def test_truncation_at_every_byte_boundary(scenario):
    disk, prefixes = scenario
    total = disk.size("IB/wal")
    assert total > 0
    for cut in range(total + 1):
        image = disk.clone()
        image.truncate("IB/wal", cut)
        assert_acceptable(image, prefixes)


@settings(max_examples=80, deadline=None)
@given(position=st.integers(min_value=0, max_value=10**9),
       xor=st.integers(min_value=1, max_value=255))
def test_corruption_of_any_byte(scenario, position, xor):
    disk, prefixes = scenario
    image = disk.clone()
    image.corrupt("IB/wal", position % image.size("IB/wal"), xor=xor)
    assert_acceptable(image, prefixes)


@settings(max_examples=40, deadline=None)
@given(cut=st.integers(min_value=0, max_value=10**9),
       position=st.integers(min_value=0, max_value=10**9),
       xor=st.integers(min_value=1, max_value=255))
def test_truncation_and_corruption_compose(scenario, cut, position, xor):
    """A torn tail plus bit rot in what survives: still a prefix."""
    disk, prefixes = scenario
    image = disk.clone()
    image.truncate("IB/wal", cut % (image.size("IB/wal") + 1))
    if image.size("IB/wal"):
        image.corrupt("IB/wal", position % image.size("IB/wal"), xor=xor)
    assert_acceptable(image, prefixes)


@pytest.mark.soak
def test_soak_every_byte_of_a_longer_log():
    """Exhaustive truncate *and* rot sweep over a longer run with
    checkpoints in play — the full power-cut drill: every byte of the
    log and of every checkpoint blob, base and delta."""
    statements = ["CREATE TABLE t (id INT PRIMARY KEY, v DECIMAL(8,2))"]
    statements += [f"INSERT INTO t VALUES ({i}, {i}.50)" for i in range(1, 16)]
    statements += [f"UPDATE t SET v = {i}.75 WHERE id = {i}" for i in range(1, 6)]
    disk, prefixes = build_scenario(statements, checkpoint_interval=5)
    for name in ["IB/wal", *disk.names("IB/ckpt-")]:
        total = disk.size(name)
        for cut in range(total + 1):
            image = disk.clone()
            image.truncate(name, cut)
            assert_acceptable(image, prefixes)
        for position in range(total):
            image = disk.clone()
            image.corrupt(name, position, xor=0x01)
            assert_acceptable(image, prefixes)


def test_checkpoint_files_rotting_still_recovers(scenario):
    """Damage every checkpoint too: recovery falls back to full redo."""
    disk, prefixes = scenario
    image = disk.clone()
    for name in image.names("IB/ckpt"):
        image.corrupt(name, 10, xor=0x7F)
    recovered, report = recover_image(image)
    assert report.checkpoint is None  # checksum-invalid stores are unreadable
    assert report.redone == report.wal_records  # full-history redo
    assert state(recovered.product) in prefixes


def test_memory_medium_clone_is_independent(scenario):
    disk, _ = scenario
    image = disk.clone()
    image.truncate("IB/wal", 1)
    assert disk.size("IB/wal") > 1


def test_empty_disk_recovers_to_fresh_install():
    recovered, report = DurableSession.resume(make_server("IB"), MemoryMedium())
    assert report.wal_records == 0
    assert report.checkpoint is None
    assert recovered.product.engine.storage.tables() == []


# -- checkpoint chains: cuts between a base and its deltas, torn blobs -------

CHAIN_STATEMENTS = [
    "CREATE TABLE t (id INT PRIMARY KEY, v DECIMAL(8,2))",
    *[f"INSERT INTO t VALUES ({i}, {i}.25)" for i in range(1, 9)],
    "UPDATE t SET v = 0.50 WHERE id = 3",
    "INSERT INTO t VALUES (9, 9.25)",
    "DELETE FROM t WHERE id = 5",
    "UPDATE t SET v = v + 1 WHERE id > 6",
    "INSERT INTO t VALUES (10, 10.25)",
    "DELETE FROM t WHERE id = 1",
    "UPDATE t SET v = 7.75 WHERE id = 2",
    "INSERT INTO t VALUES (11, 11.25)",
    "BEGIN",
    "UPDATE t SET v = 1.00 WHERE id = 4",
    "DELETE FROM t WHERE id = 6",
    "ROLLBACK",
    "INSERT INTO t VALUES (12, 12.25)",
    "UPDATE t SET v = 3.00 WHERE id = 8",
]


def chain_timeline(key):
    """Run ``CHAIN_STATEMENTS`` on ``key`` with a checkpoint every two
    writes; after each statement, the disk image a power cut then
    leaves, the state it must recover to (the last committed one), and
    the checkpoint blob the statement wrote, if any."""
    session = DurableSession(make_server(key), name=key, checkpoint_interval=2)
    moments = []
    committed = state(session.product)
    for statement in CHAIN_STATEMENTS:
        before = set(session.medium.names(f"{key}/ckpt-"))
        session.execute(statement)
        written = sorted(set(session.medium.names(f"{key}/ckpt-")) - before)
        if not session.product.in_transaction:
            committed = state(session.product)
        moments.append((session.power_cut(), committed, written[-1:]))
    return moments


def is_delta(image, name):
    return "parent" in unpack_checkpoint(image.read(name))


@pytest.mark.parametrize("key", PRODUCTS)
def test_a_cut_between_a_base_and_its_deltas_recovers_row_for_row(key):
    """At every statement boundary the recovered tables equal the
    pre-cut ones row for row, in heap order; some of those recoveries
    start from a delta, some from a base with deltas kept beside it."""
    restored_from = []
    for image, expected, _ in chain_timeline(key):
        recovered, report = recover_image(image, key)
        assert state(recovered.product) == expected
        assert report.checkpoints_skipped == 0
        if report.checkpoint is not None:
            restored_from.append(is_delta(image, report.checkpoint))
    assert True in restored_from and False in restored_from


def torn_checkpoint_images(key, positions):
    """Every moment that wrote a checkpoint blob, with that blob cut at
    each of ``positions(size)`` bytes, and whether it is a delta."""
    for image, expected, written in chain_timeline(key):
        for name in written:
            delta = is_delta(image, name)
            for cut in positions(image.size(name)):
                torn = image.clone()
                torn.truncate(name, cut)
                yield torn, expected, name, delta


@pytest.mark.parametrize("key", PRODUCTS)
def test_a_torn_checkpoint_write_falls_back_to_the_chain_before_it(key):
    """A checkpoint cut on its way to the medium, base or delta, is
    skipped; the chain point before it and the log give the pre-cut
    state."""
    kinds = set()
    for torn, expected, name, delta in torn_checkpoint_images(
        key, lambda size: range(0, size, max(1, size // 6))
    ):
        kinds.add(delta)
        recovered, report = recover_image(torn, key)
        assert report.checkpoint != name
        assert state(recovered.product) == expected
    assert kinds == {True, False}


@pytest.mark.soak
@pytest.mark.parametrize("key", PRODUCTS)
def test_soak_every_byte_of_every_checkpoint_write(key):
    """Each checkpoint blob of the timeline cut at every byte and rotted
    at every byte, at the moment it was written: the pre-cut state."""
    for torn, expected, _, _ in torn_checkpoint_images(key, range):
        assert state(recover_image(torn, key)[0].product) == expected
    for image, expected, written in chain_timeline(key):
        for name in written:
            for position in range(image.size(name)):
                rotted = image.clone()
                rotted.corrupt(name, position, xor=0x01)
                assert state(recover_image(rotted, key)[0].product) == expected


# -- hostile checkpoints: CRC-valid payloads the writer never produces -------


def delta_session():
    """An IB session whose newest checkpoint is a delta over a base of
    six rows: ``t`` is two columns wide."""
    session = DurableSession(make_server("IB"))
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, v DECIMAL(8,2))")
    for i in range(1, 7):
        session.execute(f"INSERT INTO t VALUES ({i}, {i}.25)")
    session.store.checkpoint(session.product)
    session.execute("UPDATE t SET v = 0.50 WHERE id = 2")
    session.execute("DELETE FROM t WHERE id = 4")
    session.execute("INSERT INTO t VALUES (7, 7.25)")
    session.store.checkpoint(session.product)
    return session


def with_table(**fields):
    def hostile(payload):
        payload["tables"][0].update(fields)
        return payload

    return hostile


def with_fields(**fields):
    def hostile(payload):
        payload.update(fields)
        return payload

    return hostile


#: The valid newest delta, ``{"lsn": 10, "parent": 0, "tables": [{"name":
#: "t", "columns": 2, "runs": [[0, 1, 1], [2, 1, 0], [4, 2, 1]], "rows":
#: [[2, 0.50], [7, 7.25]]}]}`` (decimals in their envelope), made hostile.
HOSTILE = {
    "run-out-of-range": with_table(runs=[[0, 1, 1], [2, 1, 0], [4, 9, 1]]),
    "run-overlapping": with_table(runs=[[0, 3, 1], [2, 1, 0], [4, 2, 1]]),
    "run-backwards": with_table(runs=[[4, 2, 1], [0, 1, 1]]),
    "run-negative": with_table(runs=[[-1, 1, 1], [2, 1, 0], [4, 2, 1]]),
    "run-too-short": with_table(runs=[[0, 1], [2, 1, 0], [4, 2, 2]]),
    "run-of-text": with_table(runs=[["0", "1", "1"], [2, 1, 0], [4, 2, 1]]),
    "run-of-floats": with_table(runs=[[0, 1.0, 1], [2, 1, 0], [4, 2, 1]]),
    "run-of-booleans": with_table(runs=[[0, True, 1], [2, 1, 0], [4, 2, 1]]),
    "run-not-a-list": with_table(runs=[7]),
    "runs-not-a-list": with_table(runs={"0": 1}),
    "runs-take-too-few-rows": with_table(runs=[[0, 1, 1], [2, 1, 0], [4, 2, 0]]),
    "runs-take-too-many-rows": with_table(runs=[[0, 1, 2], [2, 1, 0], [4, 2, 1]]),
    "row-not-a-list": with_table(rows=[5, [7, 7.25]]),
    "row-of-the-wrong-width": with_table(rows=[[2], [7, 7.25]]),
    "row-too-wide": with_table(rows=[[2, 0.5, 9], [7, 7.25]]),
    "row-value-a-list": with_table(rows=[[2, [0.5]], [7, 7.25]]),
    "row-value-a-bad-envelope": with_table(rows=[[2, {"$": "decimal", "v": "x"}], [7, 7.25]]),
    "table-renamed": with_table(name="u"),
    "table-widened": with_table(columns=3),
    "table-name-not-text": with_table(name=5),
    "tables-missing": with_fields(tables=[]),
    "tables-entry-not-an-object": with_fields(tables=[7]),
    "parent-missing": with_fields(parent=12345),
    "parent-newer": with_fields(parent=2),
    "parent-itself": with_fields(parent=1),
    "parent-not-a-number": with_fields(parent="0"),
    "parent-negative": with_fields(parent=-1),
    "lsn-before-the-parent": with_fields(lsn=3),
    "lsn-negative": with_fields(lsn=-1),
    "tables-not-a-list": with_fields(tables=None),
}


def test_the_hostile_cases_start_from_the_valid_delta():
    session = delta_session()
    (name, payload), (_, base) = session.store.checkpoints.load_all()
    assert name == "IB/ckpt-00000001"
    assert payload["parent"] == 0 and "parent" not in base
    assert payload["tables"][0]["runs"] == [[0, 1, 1], [2, 1, 0], [4, 2, 1]]
    assert payload["tables"][0]["rows"] == [
        [2, {"$": "decimal", "v": "0.50"}],
        [7, {"$": "decimal", "v": "7.25"}],
    ]
    assert payload["lsn"] == 10 and base["lsn"] == 7


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_a_hostile_checkpoint_is_refused_and_recovery_falls_back(case):
    session = delta_session()
    disk = session.power_cut()
    (name, payload), _ = session.store.checkpoints.load_all()
    blob = records.pack(json.dumps(HOSTILE[case](copy.deepcopy(payload))).encode("utf-8"))
    disk.write(name, blob)
    # Only CheckpointInvalid escapes the reader and the applier.
    with pytest.raises(CheckpointInvalid):
        unpack_checkpoint(blob)
        chains = dict(CheckpointStore(disk, "IB").chains())
        apply_checkpoint(make_server("IB"), *chains[name])
    recovered, report = recover_image(disk)
    assert report.checkpoint == "IB/ckpt-00000000"
    assert state(recovered.product) == state(session.product)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["$", "v", "x"]), children, max_size=3),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def hostile_target():
    session = delta_session()
    (name, payload), _ = session.store.checkpoints.load_all()
    return session.power_cut(), name, payload


@settings(max_examples=200, deadline=None)
@given(
    where=st.sampled_from(["lsn", "parent", "tables", "runs", "rows", "name", "columns"]),
    value=JSON,
)
def test_any_checksummed_delta_is_applied_or_refused(hostile_target, where, value):
    """Whatever a field of a CRC-valid delta holds, the reader and the
    applier raise nothing but CheckpointInvalid."""
    disk, name, payload = hostile_target
    payload = copy.deepcopy(payload)
    if where in ("lsn", "parent", "tables"):
        payload[where] = value
    else:
        payload["tables"][0][where] = value
    image = disk.clone()
    blob = records.pack(json.dumps(payload).encode("utf-8"))
    image.write(name, blob)
    try:
        unpack_checkpoint(blob)
        apply_checkpoint(make_server("IB"), *dict(CheckpointStore(image, "IB").chains())[name])
    except CheckpointInvalid:
        pass
