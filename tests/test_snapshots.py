"""Copy-on-write engine snapshots.

``Engine.snapshot`` shares every row object with the live heap and the
heap saves a row's prior values before its first in-place write after
an image (see :mod:`repro.sqlengine.storage`).  The property below
checks that against a deep-copy oracle: any sequence of writes, DDL and
rollbacks, with a second snapshot taken part-way, leaves both snapshots
restorable, repeatedly, to exactly the state they captured.

Mutations it was checked against (each one fails it): no pre-image
save in ``TableData.update_row``; none in ``TableData.add_column``;
none in ``TableData.drop_last_column``; ``TableImage.restore`` reading
only its own ``before`` (no walk to newer images); ``TableImage.restore``
letting older images' entries lose to newer ones; ``TableImage.restore``
handing out the image's unchanged row objects instead of copies.
"""

import copy
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.durability import engine_state_signature
from repro.errors import SqlError
from repro.sqlengine.engine import Engine

SETUP = [
    "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)",
    "CREATE TABLE u (id INTEGER PRIMARY KEY, w VARCHAR(8))",
    *(f"INSERT INTO t VALUES ({i}, {i * 10})" for i in range(6)),
    *(f"INSERT INTO u VALUES ({i}, 'u{i}')" for i in range(3)),
]

KEYS = st.integers(min_value=0, max_value=9)
VALUES = st.integers(min_value=-50, max_value=100)

STATEMENT = st.one_of(
    st.builds("INSERT INTO t (id, v) VALUES ({}, {})".format, KEYS, VALUES),
    st.builds("INSERT INTO u (id, w) VALUES ({}, 'n{}')".format, KEYS, VALUES),
    st.builds("UPDATE t SET v = {} WHERE id = {}".format, VALUES, KEYS),
    st.builds("UPDATE t SET v = v + 1 WHERE v > {}".format, VALUES),
    st.builds("UPDATE u SET w = 'x{}' WHERE id = {}".format, VALUES, KEYS),
    st.builds("UPDATE t SET id = id + 20 WHERE id = {}".format, KEYS),
    st.builds("DELETE FROM t WHERE id = {}".format, KEYS),
    st.builds("DELETE FROM t WHERE v < {}".format, VALUES),
    st.builds("ALTER TABLE t ADD COLUMN c{} INTEGER DEFAULT {}".format, KEYS, VALUES),
    st.just("BEGIN"),
    st.just("COMMIT"),
    st.just("ROLLBACK"),
    st.just("SAVEPOINT s"),
    st.just("ROLLBACK TO SAVEPOINT s"),
    st.just("DROP TABLE u"),
    st.just("CREATE TABLE u (id INTEGER PRIMARY KEY, w VARCHAR(8))"),
)


def run(engine, statements):
    for sql in statements:
        try:
            engine.execute(sql)
        except SqlError:
            pass


def oracle(engine):
    """A deep copy of the engine's durable state, and what it reads."""
    state = SimpleNamespace(
        catalog=copy.deepcopy(engine.catalog),
        storage=copy.deepcopy(engine.storage),
    )
    return observe(state)


def observe(engine):
    rows = {data.name: [list(row) for row in data.rows()] for data in engine.storage.tables()}
    return engine_state_signature(engine), rows


def take(engine):
    """A snapshot, checking that taking it leaves the live state alone."""
    before = observe(engine)
    snapshot = engine.snapshot()
    assert observe(engine) == before
    return snapshot


@settings(max_examples=120, deadline=None)
@given(
    first=st.lists(STATEMENT, max_size=14),
    second=st.lists(STATEMENT, max_size=14),
)
# A snapshot inside a transaction that the rest of the run rolls back
# (the undo journal writes rows in place, after the snapshot).
@example(
    first=[
        "BEGIN",
        "ALTER TABLE t ADD COLUMN c1 INTEGER DEFAULT 5",
        "UPDATE t SET v = 3 WHERE id = 1",
    ],
    second=["ROLLBACK"],
)
@example(
    first=[
        "BEGIN",
        "SAVEPOINT s",
        "UPDATE t SET v = v + 1 WHERE v > 0",
        "DELETE FROM t WHERE id = 2",
    ],
    second=["UPDATE t SET v = 0 WHERE id = 3", "ROLLBACK TO SAVEPOINT s", "COMMIT"],
)
def test_snapshots_restore_what_they_captured(first, second):
    engine = Engine()
    run(engine, SETUP)
    snapshot_a = take(engine)
    expected_a = oracle(engine)
    run(engine, first)
    snapshot_b = take(engine)
    expected_b = oracle(engine)
    run(engine, second)

    engine.restore(snapshot_a)
    assert observe(engine) == expected_a
    run(engine, ["UPDATE t SET v = -1", "DELETE FROM t WHERE id > 2"])
    engine.restore(snapshot_b)
    assert observe(engine) == expected_b
    engine.restore(snapshot_a)
    assert observe(engine) == expected_a
