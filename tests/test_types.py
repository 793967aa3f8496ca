"""Type system and casting tests."""

import datetime
from decimal import Decimal

import pytest

from repro.errors import TypeMismatch
from repro.sqlengine.typenames import resolve_type
from repro.sqlengine.types import (
    BOOLEAN,
    DATE,
    INTEGER,
    TIMESTAMP,
    cast_value,
    char,
    format_numeric,
    numeric,
    parse_date,
    varchar,
)


class TestResolveType:
    @pytest.mark.parametrize(
        "name,family",
        [
            ("INTEGER", "integer"),
            ("INT", "integer"),
            ("SMALLINT", "integer"),
            ("BIGINT", "integer"),
            ("NUMERIC", "decimal"),
            ("NUMBER", "decimal"),
            ("DECIMAL", "decimal"),
            ("FLOAT", "float"),
            ("REAL", "float"),
            ("DOUBLE PRECISION", "float"),
            ("CHAR", "character"),
            ("VARCHAR", "character"),
            ("VARCHAR2", "character"),
            ("TEXT", "character"),
            ("DATE", "date"),
            ("TIMESTAMP", "timestamp"),
            ("DATETIME", "timestamp"),
            ("BOOLEAN", "boolean"),
        ],
    )
    def test_known_spellings(self, name, family):
        assert resolve_type(name).family.value == family

    def test_case_insensitive(self):
        assert resolve_type("varchar", (20, None)).length == 20

    def test_numeric_precision_scale(self):
        t = resolve_type("NUMERIC", (8, 2))
        assert t.precision == 8 and t.scale == 2

    def test_unknown_type_raises(self):
        with pytest.raises(TypeMismatch):
            resolve_type("BLOBBY")

    def test_render_roundtrip(self):
        assert resolve_type("VARCHAR", (10, None)).render() == "VARCHAR(10)"
        assert resolve_type("NUMERIC", (8, 2)).render() == "NUMERIC(8,2)"


class TestCasts:
    def test_null_passes_any_cast(self):
        assert cast_value(None, INTEGER) is None

    def test_int_from_string(self):
        assert cast_value("42", INTEGER) == 42

    def test_int_from_decimal_truncates(self):
        assert cast_value(Decimal("3.9"), INTEGER) == 3

    def test_int_from_garbage_raises(self):
        with pytest.raises(TypeMismatch):
            cast_value("abc", INTEGER)

    def test_decimal_scale_quantised(self):
        value = cast_value("3.14159", numeric(8, 2))
        assert value == Decimal("3.14")

    def test_char_padding(self):
        assert cast_value("ab", char(5)) == "ab   "

    def test_varchar_overflow_raises(self):
        with pytest.raises(TypeMismatch):
            cast_value("toolongvalue", varchar(4))

    def test_varchar_trailing_spaces_truncated_silently(self):
        assert cast_value("ab   ", varchar(3)) == "ab "

    def test_number_to_string(self):
        assert cast_value(42, varchar(10)) == "42"
        assert cast_value(Decimal("1.50"), varchar(10)) == "1.50"

    def test_boolean_from_strings(self):
        assert cast_value("true", BOOLEAN) is True
        assert cast_value("f", BOOLEAN) is False

    def test_boolean_from_garbage_raises(self):
        with pytest.raises(TypeMismatch):
            cast_value("maybe", BOOLEAN)

    def test_date_from_string(self):
        assert cast_value("2004-06-28", DATE) == datetime.date(2004, 6, 28)

    def test_date_single_digit_components(self):
        assert parse_date("2000-9-6") == datetime.date(2000, 9, 6)

    def test_timestamp_from_date(self):
        value = cast_value(datetime.date(2004, 6, 28), TIMESTAMP)
        assert value == datetime.datetime(2004, 6, 28)

    def test_date_from_timestamp_truncates(self):
        value = cast_value(datetime.datetime(2004, 6, 28, 10, 30), DATE)
        assert value == datetime.date(2004, 6, 28)

    def test_invalid_date_raises(self):
        with pytest.raises(TypeMismatch):
            cast_value("not-a-date", DATE)


class TestImplicitStorageCasts:
    """Stricter rules used when storing into typed columns — the exact
    validation Interbase bug 217042 shows being skipped."""

    def test_numeric_string_allowed(self):
        assert cast_value("9.50", numeric(8, 2), implicit=True) == Decimal("9.50")

    def test_non_numeric_string_rejected(self):
        with pytest.raises(TypeMismatch):
            cast_value("ABC", INTEGER, implicit=True)

    def test_explicit_cast_of_same_string_also_rejected(self):
        with pytest.raises(TypeMismatch):
            cast_value("ABC", INTEGER)


class TestFormatting:
    def test_whole_float_formats_as_int(self):
        assert format_numeric(5.0) == "5"

    def test_fractional_float(self):
        assert format_numeric(2.5) == "2.5"

    def test_decimal_preserves_scale(self):
        assert format_numeric(Decimal("10.00")) == "10.00"
        assert format_numeric(Decimal("10.50")) == "10.50"
        assert format_numeric(Decimal("7")) == "7"
