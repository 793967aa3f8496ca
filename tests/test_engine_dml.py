"""DML execution: INSERT/UPDATE/DELETE, constraints, defaults."""

from decimal import Decimal

import pytest

from repro.errors import CatalogError, ConstraintViolation, ReproError, SqlError, TypeMismatch
from repro.servers import make_server
from tests.reference import reference_server


class TestInsert:
    def test_insert_rowcount(self, seeded_engine):
        result = seeded_engine.execute(
            "INSERT INTO product (id, name) VALUES (10, 'a'), (11, 'b')"
        )
        assert result.rowcount == 2

    def test_insert_without_column_list(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER, b VARCHAR(5))")
        engine.execute("INSERT INTO t VALUES (1, 'x')")
        assert engine.execute("SELECT * FROM t").rows == [(1, "x")]

    def test_missing_columns_get_null(self, seeded_engine):
        seeded_engine.execute("INSERT INTO product (id, name) VALUES (10, 'a')")
        row = seeded_engine.execute("SELECT price, qty FROM product WHERE id = 10").rows[0]
        assert row == (None, None)

    def test_width_mismatch_raises(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        with pytest.raises(SqlError):
            engine.execute("INSERT INTO t (a, b) VALUES (1)")

    def test_values_cast_to_column_type(self, engine):
        engine.execute("CREATE TABLE t (a NUMERIC(6,2))")
        engine.execute("INSERT INTO t VALUES ('3.456')")
        assert engine.execute("SELECT a FROM t").rows[0][0] == Decimal("3.46")

    def test_string_into_int_rejected(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(TypeMismatch):
            engine.execute("INSERT INTO t VALUES ('ABC')")

    def test_insert_select(self, seeded_engine):
        seeded_engine.execute("CREATE TABLE archive (id INTEGER, name VARCHAR(30))")
        result = seeded_engine.execute(
            "INSERT INTO archive (id, name) SELECT id, name FROM product WHERE qty > 50"
        )
        assert result.rowcount == 2

    def test_insert_into_view_rejected(self, seeded_engine):
        seeded_engine.execute("CREATE VIEW v AS SELECT id FROM product")
        with pytest.raises(CatalogError):
            seeded_engine.execute("INSERT INTO v (id) VALUES (99)")

    def test_duplicate_column_in_insert_rejected(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(SqlError):
            engine.execute("INSERT INTO t (a, a) VALUES (1, 2)")

    def test_multi_row_insert_atomic_on_constraint_failure(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (1), (1)")
        assert engine.execute("SELECT COUNT(*) FROM t").rows[0][0] == 0


class TestConstraints:
    def test_primary_key_uniqueness(self, seeded_engine):
        with pytest.raises(ConstraintViolation):
            seeded_engine.execute("INSERT INTO product (id, name) VALUES (1, 'dup')")

    def test_primary_key_not_null(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (NULL)")

    def test_composite_primary_key(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a, b))")
        engine.execute("INSERT INTO t VALUES (1, 1), (1, 2)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (1, 2)")

    def test_not_null(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER NOT NULL)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (NULL)")

    def test_check_constraint_on_column(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER CHECK (a > 0))")
        engine.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (-1)")

    def test_check_constraint_null_passes(self, engine):
        # SQL: CHECK is satisfied unless it evaluates to FALSE.
        engine.execute("CREATE TABLE t (a INTEGER CHECK (a > 0))")
        engine.execute("INSERT INTO t VALUES (NULL)")
        assert engine.execute("SELECT COUNT(*) FROM t").rows[0][0] == 1

    def test_table_level_check(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER, b INTEGER, CHECK (a < b))")
        engine.execute("INSERT INTO t VALUES (1, 2)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (2, 1)")

    def test_unique_column_allows_nulls(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER UNIQUE)")
        engine.execute("INSERT INTO t VALUES (NULL), (NULL)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (1), (1)")

    def test_unique_index_enforced(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER)")
        engine.execute("CREATE UNIQUE INDEX ix_a ON t (a)")
        engine.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintViolation):
            engine.execute("INSERT INTO t VALUES (1)")


class TestDefaults:
    def test_default_applied(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER, b INTEGER DEFAULT 7)")
        engine.execute("INSERT INTO t (a) VALUES (1)")
        assert engine.execute("SELECT b FROM t").rows[0][0] == 7

    def test_default_string(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER, b VARCHAR(5) DEFAULT 'none')")
        engine.execute("INSERT INTO t (a) VALUES (1)")
        assert engine.execute("SELECT b FROM t").rows[0][0] == "none"

    def test_wrong_type_default_rejected_at_create(self, engine):
        # SQL-92 conformant behaviour (bug 217042 is this check skipped).
        with pytest.raises(TypeMismatch):
            engine.execute("CREATE TABLE t (a INTEGER DEFAULT 'ABC')")

    def test_numeric_string_default_allowed(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER DEFAULT '5')")
        engine.execute("INSERT INTO t (a) VALUES (1)")


class TestUpdate:
    def test_update_rowcount_and_values(self, seeded_engine):
        result = seeded_engine.execute("UPDATE product SET qty = qty + 1 WHERE qty > 50")
        assert result.rowcount == 2
        assert seeded_engine.execute(
            "SELECT qty FROM product WHERE id = 3"
        ).rows[0][0] == 101

    def test_update_all_rows(self, seeded_engine):
        assert seeded_engine.execute("UPDATE product SET qty = 0").rowcount == 4

    def test_update_casts_value(self, seeded_engine):
        seeded_engine.execute("UPDATE product SET price = '5.555' WHERE id = 1")
        assert seeded_engine.execute(
            "SELECT price FROM product WHERE id = 1"
        ).rows[0][0] == Decimal("5.56")

    def test_update_respects_pk(self, seeded_engine):
        with pytest.raises(ConstraintViolation):
            seeded_engine.execute("UPDATE product SET id = 2 WHERE id = 1")

    def test_update_respects_not_null(self, engine):
        engine.execute("CREATE TABLE t (a INTEGER NOT NULL)")
        engine.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintViolation):
            engine.execute("UPDATE t SET a = NULL")

    def test_update_uses_old_row_values(self, seeded_engine):
        seeded_engine.execute("UPDATE product SET qty = qty * 2, price = price WHERE id = 2")
        assert seeded_engine.execute("SELECT qty FROM product WHERE id = 2").rows[0][0] == 4

    def test_update_view_rejected(self, seeded_engine):
        seeded_engine.execute("CREATE VIEW v AS SELECT id FROM product")
        with pytest.raises(CatalogError):
            seeded_engine.execute("UPDATE v SET id = 1")


class TestDelete:
    def test_delete_with_where(self, seeded_engine):
        result = seeded_engine.execute("DELETE FROM product WHERE qty < 10")
        assert result.rowcount == 2
        assert seeded_engine.execute("SELECT COUNT(*) FROM product").rows[0][0] == 2

    def test_delete_all(self, seeded_engine):
        assert seeded_engine.execute("DELETE FROM product").rowcount == 4

    def test_delete_nothing(self, seeded_engine):
        assert seeded_engine.execute("DELETE FROM product WHERE id = 99").rowcount == 0

    def test_delete_with_subquery(self, seeded_engine):
        seeded_engine.execute(
            "DELETE FROM product WHERE id IN (SELECT id FROM product WHERE qty > 50)"
        )
        assert seeded_engine.execute("SELECT COUNT(*) FROM product").rows[0][0] == 2


KEYS = ("IB", "PG", "OR", "MS")


def _outcomes(server, calls) -> list[tuple]:
    outcomes = []
    for sql, params in calls:
        try:
            result = server.execute(sql, params)
        except ReproError as error:
            outcomes.append(("error", type(error).__name__, str(error)))
        else:
            outcomes.append((result.rowcount, tuple(result.rows)))
    return outcomes


def _planned_and_walker(key, calls, load=None) -> list[tuple]:
    """The outcome of each call on a compiled product and on the walker
    (which checks every constraint of every row it writes), asserted
    equal; ``load`` bulk-loads rows around the checks first."""
    runs = []
    for make in (make_server, reference_server):
        server = make(key)
        if load is not None:
            server.execute(load[0])
            server.load_rows(*load[1:])
        runs.append(_outcomes(server, calls))
    assert runs[0] == runs[1]
    return runs[0]


ACCOUNTS = (
    "CREATE TABLE acct (id INTEGER PRIMARY KEY, code INTEGER UNIQUE, "
    "lo INTEGER CHECK (lo >= 0), hi INTEGER CHECK (hi < 100), "
    "bal NUMERIC(8,2) NOT NULL DEFAULT 0, CHECK (lo <= hi))"
)
SEEDED = [
    (ACCOUNTS, None),
    ("INSERT INTO acct (id, code, lo, hi) VALUES (1, 10, 1, 5), (2, 20, 2, 6)", None),
]


@pytest.mark.parametrize("key", KEYS)
class TestWriteChecksEqualTheWalker:
    """Each write gives the walker's answer, and its error class and
    message, whatever subset of constraints its plan decided to check."""

    def test_update_of_a_key_to_a_colliding_value(self, key):
        outcomes = _planned_and_walker(key, SEEDED + [
            ("UPDATE acct SET id = ? WHERE id = ?", (2, 1)),
            ("UPDATE acct SET code = 20 WHERE id = 1", None),
        ])
        assert outcomes[-2:] == [
            ("error", "ConstraintViolation", "primary key constraint violated on 'acct'"),
            ("error", "ConstraintViolation", "unique constraint violated on 'acct'"),
        ]

    def test_update_of_a_key_to_itself(self, key):
        outcomes = _planned_and_walker(key, SEEDED + [
            ("UPDATE acct SET id = id, code = ? WHERE lo >= ?", (10, 2)),
            ("UPDATE acct SET id = id WHERE lo >= 0", None),
        ])
        assert outcomes[-2:] == [
            ("error", "ConstraintViolation", "unique constraint violated on 'acct'"),
            (2, ()),
        ]

    def test_null_into_a_not_null_column(self, key):
        outcomes = _planned_and_walker(key, SEEDED + [
            ("UPDATE acct SET bal = ? WHERE id = 1", (None,)),
            ("INSERT INTO acct (id, bal) VALUES (3, NULL)", None),
            ("UPDATE acct SET id = NULL WHERE id = 2", None),
        ])
        message = "column 'bal' of 'acct' may not be NULL"
        assert outcomes[-3:] == [
            ("error", "ConstraintViolation", message),
            ("error", "ConstraintViolation", message),
            ("error", "ConstraintViolation", "column 'id' of 'acct' may not be NULL"),
        ]

    def test_check_beside_an_untouched_check(self, key):
        # `lo` has a CHECK; `hi`'s CHECK and the table CHECK read `hi`.
        outcomes = _planned_and_walker(key, SEEDED + [
            ("UPDATE acct SET lo = ? WHERE id = 1", (-1,)),
            ("UPDATE acct SET hi = 100 WHERE id = 1", None),
            ("UPDATE acct SET lo = 9 WHERE id = 1", None),
            ("UPDATE acct SET bal = ? WHERE id = 1", (Decimal("7.5"),)),
            ("SELECT id, lo, hi, bal FROM acct ORDER BY id", None),
        ])
        assert outcomes[-5:] == [
            ("error", "ConstraintViolation", "CHECK constraint on column 'lo' violated"),
            ("error", "ConstraintViolation", "CHECK constraint on column 'hi' violated"),
            ("error", "ConstraintViolation", "CHECK constraint on table 'acct' violated"),
            (1, ()),
            (2, ((1, 1, 5, Decimal("7.50")), (2, 2, 6, Decimal("0.00")))),
        ]

    @pytest.mark.parametrize("bound", [True, False], ids=["bound", "literal"])
    def test_string_into_numeric_and_integer(self, key, bound):
        def call(sql, value):
            if bound:
                return (sql, (value,))
            return (sql.replace("?", f"'{value}'"), None)

        outcomes = _planned_and_walker(key, SEEDED + [
            call("UPDATE acct SET bal = ? WHERE id = 1", "alpha"),
            call("UPDATE acct SET lo = ? WHERE id = 1", "alpha"),
            call("INSERT INTO acct (id, bal) VALUES (3, ?)", "alpha"),
            call("UPDATE acct SET lo = ? WHERE id = 1", " 3 "),
            ("SELECT lo FROM acct WHERE id = 1", None),
        ])
        assert outcomes[-5:] == [
            ("error", "TypeMismatch", "cannot store string 'alpha' in column of type NUMERIC(8,2)"),
            ("error", "TypeMismatch", "cannot store string 'alpha' in column of type INTEGER"),
            ("error", "TypeMismatch", "cannot store string 'alpha' in column of type NUMERIC(8,2)"),
            (1, ()),
            (1, ((3,),)),
        ]

    def test_bools_and_ints_into_integer(self, key):
        outcomes = _planned_and_walker(key, SEEDED + [
            ("UPDATE acct SET lo = ?, hi = ? WHERE id = 1", (True, 7)),
            ("SELECT lo, hi FROM acct WHERE id = 1", None),
        ])
        assert outcomes[-1] == (1, ((1, 7),))
        assert type(outcomes[-1][1][0][0]) is int

    def test_defaults(self, key):
        outcomes = _planned_and_walker(key, SEEDED + [
            ("INSERT INTO acct (id) VALUES (?)", (3,)),
            ("INSERT INTO acct (id, bal) SELECT id + 10, NULL FROM acct WHERE id > 5", None),
            ("SELECT id, code, bal FROM acct WHERE id = 3", None),
        ])
        assert outcomes[-2:] == [(0, ()), (1, ((3, None, Decimal("0.00")),))]

    def test_alter_table_add_column_then_insert_and_update(self, key):
        outcomes = _planned_and_walker(key, SEEDED + [
            ("INSERT INTO acct VALUES (?, ?, ?, ?, ?)", (3, 30, 3, 7, Decimal("1"))),
            ("UPDATE acct SET bal = ? WHERE id = ?", (Decimal("2"), 3)),
            ("ALTER TABLE acct ADD COLUMN note NUMERIC(8,2) DEFAULT 1 CHECK (note < 10)", None),
            ("INSERT INTO acct VALUES (?, ?, ?, ?, ?)", (4, 40, 4, 8, Decimal("1"))),
            ("INSERT INTO acct VALUES (?, ?, ?, ?, ?, ?)", (4, 40, 4, 8, Decimal("1"), "alpha")),
            ("INSERT INTO acct VALUES (?, ?, ?, ?, ?, ?)", (4, 40, 4, 8, Decimal("1"), 11)),
            ("UPDATE acct SET bal = ? WHERE id = ?", (Decimal("3"), 3)),
            ("UPDATE acct SET note = ? WHERE id = ?", ("alpha", 3)),
            ("UPDATE acct SET note = ? WHERE id = ?", (12, 3)),
            ("ALTER TABLE acct ADD COLUMN flag INTEGER DEFAULT 5 CHECK (flag < 5)", None),
            ("SELECT id, bal, note FROM acct ORDER BY id", None),
        ])
        note_type = "cannot store string 'alpha' in column of type NUMERIC(8,2)"
        note_check = "CHECK constraint on column 'note' violated"
        assert outcomes[2:] == [
            (1, ()),
            (1, ()),
            (0, ()),
            ("error", "SqlError", "INSERT has 5 values for 6 columns"),
            ("error", "TypeMismatch", note_type),
            ("error", "ConstraintViolation", note_check),
            (1, ()),
            ("error", "TypeMismatch", note_type),
            ("error", "ConstraintViolation", note_check),
            ("error", "ConstraintViolation", "CHECK constraint on column 'flag' violated"),
            (3, (
                (1, Decimal("0.00"), Decimal("1.00")),
                (2, Decimal("0.00"), Decimal("1.00")),
                (3, Decimal("3.00"), Decimal("1.00")),
            )),
        ]

    def test_poisoned_index_keeps_the_full_scan(self, key):
        # Two rows with id 1 loaded around the checks poison the
        # primary key's index: an UPDATE of either row, of a column
        # outside the key, still finds the duplicate, as a full check
        # does; the row without a twin updates.
        load = (
            "CREATE TABLE dup (id INTEGER PRIMARY KEY, v INTEGER)",
            "dup", 2, [(1, 10), (1, 20), (2, 30)],
        )
        outcomes = _planned_and_walker(key, [
            ("UPDATE dup SET v = ? WHERE v = ?", (11, 10)),
            ("UPDATE dup SET v = 31 WHERE id = 2", None),
            ("SELECT id, v FROM dup ORDER BY v", None),
        ], load)
        assert outcomes == [
            ("error", "ConstraintViolation", "primary key constraint violated on 'dup'"),
            (1, ()),
            (3, ((1, 10), (1, 20), (2, 31))),
        ]


@pytest.mark.parametrize("key", KEYS)
class TestDdlBindsWhatWritesCheck:
    """A CREATE or ALTER records and binds the constraints the writes
    after it check, on the compiled products and on the walker alike."""

    TWO_ROWS = [
        ("CREATE TABLE t (a INTEGER)", None),
        ("INSERT INTO t (a) VALUES (1), (2)", None),
    ]

    def test_added_unique_column_is_checked(self, key):
        outcomes = _planned_and_walker(key, self.TWO_ROWS + [
            ("ALTER TABLE t ADD COLUMN b INTEGER UNIQUE", None),
            ("UPDATE t SET b = 5 WHERE a = 1", None),
            ("UPDATE t SET b = 5 WHERE a = 2", None),
            ("INSERT INTO t (a, b) VALUES (3, 5)", None),
            ("SELECT a, b FROM t ORDER BY a", None),
        ])
        violated = ("error", "ConstraintViolation", "unique constraint violated on 't'")
        assert outcomes[-5:] == [
            (0, ()),
            (1, ()),
            violated,
            violated,
            (2, ((1, 5), (2, None))),
        ]

    def test_added_key_with_a_default_over_two_rows_is_refused(self, key):
        outcomes = _planned_and_walker(key, self.TWO_ROWS + [
            ("ALTER TABLE t ADD COLUMN b INTEGER DEFAULT 7 UNIQUE", None),
            ("ALTER TABLE t ADD COLUMN c INTEGER DEFAULT 7 PRIMARY KEY", None),
            ("DELETE FROM t WHERE a = 2", None),
            ("ALTER TABLE t ADD COLUMN c INTEGER DEFAULT 7 PRIMARY KEY", None),
            ("INSERT INTO t (a, c) VALUES (2, 7)", None),
            ("ALTER TABLE t ADD COLUMN d INTEGER PRIMARY KEY", None),
            ("SELECT a, c FROM t", None),
        ])
        assert outcomes[-7:] == [
            ("error", "ConstraintViolation", "unique constraint violated on 't'"),
            ("error", "ConstraintViolation", "primary key constraint violated on 't'"),
            (1, ()),
            (0, ()),
            ("error", "ConstraintViolation", "primary key constraint violated on 't'"),
            ("error", "SqlError", "table 't' has two primary keys"),
            (1, ((1, 7),)),
        ]

    def test_check_naming_no_column_of_its_table_is_refused(self, key):
        outcomes = _planned_and_walker(key, [
            ("CREATE TABLE u (a INTEGER CHECK (zz > 1))", None),
            ("CREATE TABLE u (a INTEGER, CHECK (w.a > 1))", None),
            ("CREATE TABLE u (a INTEGER CHECK (u.a > 1), CHECK (a > (SELECT zz FROM u)))", None),
            ("INSERT INTO u (a) VALUES (2)", None),
            ("INSERT INTO u (a) VALUES (3)", None),
            ("ALTER TABLE u ADD COLUMN b INTEGER CHECK (b > zz)", None),
            ("SELECT a FROM u", None),
        ])
        assert outcomes == [
            ("error", "BindError", "unknown column 'zz'"),
            ("error", "BindError", "unknown column 'w.a'"),
            (0, ()),
            (1, ()),
            # A subquery's names are bound on the first row it reads.
            ("error", "BindError", "unknown column 'zz'"),
            ("error", "BindError", "unknown column 'zz'"),
            (1, ((2,),)),
        ]
