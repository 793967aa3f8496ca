"""The power-cut property: recovery is prefix-consistent everywhere.

The WAL scan discards everything past the first invalid record, so no
matter where a power cut (truncation) or bit rot (corruption) lands in
the log — any byte boundary, including mid-header and mid-payload —
restart recovery must land on a state some *prefix* of the committed
run produces, never a gapped or invented one.  The oracle is exact:
every prefix state is precomputed by pristine replay, recovery's
result must be a member, and running recovery twice must be a fixed
point (idempotence).

The default tests sweep every truncation boundary exhaustively and
sample corruptions with Hypothesis; the ``soak`` test (deselected by
default, run with ``pytest -m soak``) additionally rots every byte of
a longer log with checkpoints in play.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import DurableSession, MemoryMedium, engine_state_signature
from repro.errors import SqlError
from repro.servers import make_server

SCRIPT_STATEMENTS = [
    "CREATE TABLE t (id INT PRIMARY KEY, v DECIMAL(8,2))",
    "INSERT INTO t VALUES (1, 10.00)",
    "INSERT INTO t VALUES (2, 20.00)",
    "UPDATE t SET v = 15.50 WHERE id = 1",
    "INSERT INTO t VALUES (3, 30.00)",
    "DELETE FROM t WHERE id = 2",
]


def build_scenario(statements, checkpoint_interval):
    """One committed run plus the oracle: the signature of every
    prefix of its WAL, by pristine replay."""
    session = DurableSession(
        make_server("IB"), name="IB", checkpoint_interval=checkpoint_interval
    )
    for statement in statements:
        session.execute(statement)
    records = [record.sql for record in session.store.wal.scan().records]
    prefixes = set()
    replay = make_server("IB")
    prefixes.add(engine_state_signature(replay.engine))
    for sql in records:
        try:
            replay.execute(sql)
        except SqlError:
            pass
        prefixes.add(engine_state_signature(replay.engine))
    return session.power_cut(), prefixes


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(SCRIPT_STATEMENTS, checkpoint_interval=3)


def recover_image(image, checkpoint_interval=3):
    recovered, report = DurableSession.resume(
        make_server("IB"), image, name="IB", checkpoint_interval=checkpoint_interval
    )
    return recovered, report


def assert_acceptable(image, prefixes, checkpoint_interval=3):
    """Recovery lands in the prefix set, and is idempotent."""
    recovered, _ = recover_image(image, checkpoint_interval)
    signature = engine_state_signature(recovered.product.engine)
    assert signature in prefixes
    again, report = recover_image(recovered.power_cut(), checkpoint_interval)
    assert engine_state_signature(again.product.engine) == signature
    assert report.stopped is None  # the first pass truncated the damage
    return signature


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
    checkpoints in play — the full power-cut drill."""
    statements = ["CREATE TABLE t (id INT PRIMARY KEY, v DECIMAL(8,2))"]
    statements += [f"INSERT INTO t VALUES ({i}, {i}.50)" for i in range(1, 16)]
    statements += [f"UPDATE t SET v = {i}.75 WHERE id = {i}" for i in range(1, 6)]
    disk, prefixes = build_scenario(statements, checkpoint_interval=5)
    total = disk.size("IB/wal")
    for cut in range(total + 1):
        image = disk.clone()
        image.truncate("IB/wal", cut)
        assert_acceptable(image, prefixes, checkpoint_interval=5)
    for position in range(total):
        image = disk.clone()
        image.corrupt("IB/wal", position, xor=0x01)
        assert_acceptable(image, prefixes, checkpoint_interval=5)


def test_checkpoint_files_rotting_still_recovers(scenario):
    """Damage every checkpoint too: recovery falls back to full redo."""
    disk, prefixes = scenario
    image = disk.clone()
    for name in image.names("IB/ckpt"):
        image.corrupt(name, 10, xor=0x7F)
    recovered, report = recover_image(image)
    assert report.checkpoint is None  # checksum-invalid stores are unreadable
    assert report.redone == report.wal_records  # full-history redo
    assert engine_state_signature(recovered.product.engine) in prefixes


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
