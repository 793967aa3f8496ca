"""SQL value semantics: three-valued logic, comparison, arithmetic,
and the canonical form that compares results across products.

All row values are plain Python objects; ``None`` is SQL NULL.  Boolean
expressions evaluate to ``True``, ``False``, or ``None`` (UNKNOWN).
"""

from __future__ import annotations

import datetime
import math
import re
from decimal import Decimal
from typing import Any, Callable, Iterable, Optional

from repro.errors import DivisionByZero, NumericOverflow, TypeMismatch
from repro.records import finite_decimal
from repro.sqlengine.types import format_numeric, parse_timestamp

Tribool = Optional[bool]


def tri_and(left: Tribool, right: Tribool) -> Tribool:
    """SQL three-valued AND."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def tri_or(left: Tribool, right: Tribool) -> Tribool:
    """SQL three-valued OR."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def tri_not(value: Tribool) -> Tribool:
    """SQL three-valued NOT."""
    if value is None:
        return None
    return not value


def _comparable(value: Any) -> Any:
    """Normalise a value for cross-type comparison."""
    # Exact-type fast paths (bool, an int subclass, stays below): ints
    # and Decimals need no conversion — Python guarantees equal numerics
    # hash and compare equal across int/Decimal.
    if type(value) is int or type(value) is Decimal:
        return ("n", value)
    if type(value) is str:
        return ("s", value.rstrip())
    if isinstance(value, bool):
        return ("b", int(value))
    if isinstance(value, (int, float, Decimal)):
        return ("n", Decimal(str(value)) if isinstance(value, float) else Decimal(value))
    if isinstance(value, str):
        # CHAR padding is insignificant in comparisons (SQL PAD SPACE).
        return ("s", value.rstrip())
    if isinstance(value, datetime.datetime):
        return ("d", value)
    if isinstance(value, datetime.date):
        return ("d", datetime.datetime(value.year, value.month, value.day))
    raise TypeMismatch(f"value {value!r} is not comparable")


def sql_compare(left: Any, right: Any) -> Optional[int]:
    """Compare two SQL values: -1/0/1, or None when either is NULL.

    Numeric values compare numerically across int/float/Decimal; strings
    compare with trailing-space insensitivity; a string compared with a
    number is parsed as a number when possible (the permissive coercion
    the study's bug scripts rely on, e.g. ``PRICE >= '9.00'``).
    """
    if left is None or right is None:
        return None
    # Same-type fast paths for the overwhelmingly common cases; the
    # exact-type checks keep bool (an int subclass) on the slow path so
    # its distinct comparison kind is preserved.
    if type(left) is type(right):
        if type(left) is int or type(left) is Decimal:
            if left < right:
                return -1
            return 1 if left > right else 0
        if type(left) is str:
            lval = left.rstrip()
            rval = right.rstrip()
            if lval < rval:
                return -1
            return 1 if lval > rval else 0
    lkind, lval = _comparable(left)
    rkind, rval = _comparable(right)
    if lkind != rkind:
        lkind, lval, rkind, rval = _reconcile(lkind, lval, rkind, rval)
    if lval < rval:
        return -1
    if lval > rval:
        return 1
    return 0


def _reconcile(lkind: str, lval: Any, rkind: str, rval: Any) -> tuple:
    """Coerce mismatched comparison operands to a common kind."""
    kinds = {lkind, rkind}
    if kinds == {"n", "s"}:
        # Try string -> number first, then number -> string.
        try:
            if lkind == "s":
                return "n", finite_decimal(lval.strip()), "n", rval
            return "n", lval, "n", finite_decimal(rval.strip())
        except Exception:
            raise TypeMismatch("cannot compare string with number") from None
    if kinds == {"d", "s"}:
        if lkind == "s":
            return "d", parse_timestamp(lval), "d", rval
        return "d", lval, "d", parse_timestamp(rval)
    if kinds == {"n", "b"}:
        if lkind == "b":
            return "n", Decimal(lval), "n", rval
        return "n", lval, "n", Decimal(rval)
    raise TypeMismatch(f"cannot compare {lkind} with {rkind}")


def sql_equal(left: Any, right: Any) -> Tribool:
    """Three-valued equality."""
    cmp = sql_compare(left, right)
    if cmp is None:
        return None
    return cmp == 0


def distinct_key(value: Any) -> Any:
    """A hashable key under which SQL-equal values collide.

    Used by DISTINCT, GROUP BY, UNION, and IN-list hashing.  NULLs are
    grouped together (SQL GROUP BY semantics).
    """
    if value is None:
        return ("null",)
    return _comparable(value)


_EXACT_NUMBERS = {int, Decimal}


def column_keys(values: list, key: Callable[[Any], Any] = distinct_key) -> list:
    """Keys for one column's values, chosen once for the column: the raw
    values when every one is exactly ``int`` or ``Decimal`` (they compare
    and hash exactly across the two), the stripped strings when every one
    is exactly ``str`` (PAD SPACE), else ``key`` per value.  Floats stay
    keyed, because :func:`distinct_key` takes them as ``Decimal(str(f))``
    (so ``0.1`` ties ``Decimal('0.1')``); so do NULLs, booleans, dates and
    mixes."""
    kinds = set(map(type, values))
    if kinds <= _EXACT_NUMBERS:
        return values
    if kinds == {str}:
        return [value.rstrip() for value in values]
    return list(map(key, values))


def row_key(row: tuple) -> tuple:
    """Hashable key for a whole row."""
    return tuple(distinct_key(value) for value in row)


def is_finite(value: Any) -> bool:
    """False for a NaN or infinite float or Decimal: no SQL value is one."""
    return not isinstance(value, (float, Decimal)) or Decimal(value).is_finite()


def sql_add(left: Any, right: Any) -> Any:
    return _arith(left, right, "+")


def sql_sub(left: Any, right: Any) -> Any:
    return _arith(left, right, "-")


def sql_mul(left: Any, right: Any) -> Any:
    return _arith(left, right, "*")


def sql_div(left: Any, right: Any) -> Any:
    return _arith(left, right, "/")


def _numeric_operand(value: Any, op: str) -> Any:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float, Decimal)):
        return value
    if isinstance(value, str):
        try:
            return finite_decimal(value.strip())
        except Exception:
            raise TypeMismatch(
                f"operand {value!r} of {op!r} is not numeric"
            ) from None
    raise TypeMismatch(f"operand {value!r} of {op!r} is not numeric")


def _arith(left: Any, right: Any, op: str) -> Any:
    """Arithmetic with NULL propagation and mixed-type promotion."""
    if left is None or right is None:
        return None
    lval = _numeric_operand(left, op)
    rval = _numeric_operand(right, op)
    uses_float = isinstance(lval, float) or isinstance(rval, float)
    if uses_float:
        try:
            lval, rval = float(lval), float(rval)
        except OverflowError:  # an integer beyond the float range
            raise NumericOverflow(f"{op} overflows the floating-point range") from None
    elif isinstance(lval, Decimal) or isinstance(rval, Decimal):
        lval, rval = Decimal(lval), Decimal(rval)
    if op == "+":
        result = lval + rval
    elif op == "-":
        result = lval - rval
    elif op == "*":
        result = lval * rval
    elif op == "/":
        if rval == 0:
            raise DivisionByZero("division by zero")
        if isinstance(lval, int) and isinstance(rval, int):
            # SQL integer division truncates toward zero.
            quotient = abs(lval) // abs(rval)
            return quotient if (lval >= 0) == (rval >= 0) else -quotient
        result = lval / rval
    else:  # pragma: no cover
        raise TypeMismatch(f"unknown arithmetic operator {op!r}")
    if uses_float and not math.isfinite(result):
        raise NumericOverflow(f"{op} overflows the floating-point range")
    return result


def sql_neg(value: Any) -> Any:
    if value is None:
        return None
    return -_numeric_operand(value, "-")


def sql_concat(left: Any, right: Any) -> Any:
    """String concatenation (``||``) with NULL propagation."""
    if left is None or right is None:
        return None

    def text(value: Any) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, (int, float, Decimal)):
            return format_numeric(value)
        return str(value)

    return text(left) + text(right)


def like_match(value: Any, pattern: Any, escape: Optional[str] = None) -> Tribool:
    """SQL LIKE with ``%``/``_`` wildcards and optional ESCAPE char."""
    if value is None or pattern is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise TypeMismatch("LIKE requires string operands")
    regex = _like_regex(pattern, escape)
    return bool(regex.fullmatch(value))


def _like_regex(pattern: str, escape: Optional[str]) -> "re.Pattern[str]":
    parts: list[str] = []
    index = 0
    while index < len(pattern):
        char = pattern[index]
        if escape and char == escape and index + 1 < len(pattern):
            parts.append(re.escape(pattern[index + 1]))
            index += 2
            continue
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
        index += 1
    return re.compile("".join(parts), re.DOTALL)


# -- cross-product representation normalisation -----------------------------

#: Floats are compared after rounding to this many significant decimal
#: digits: products render floating point with different precision, so
#: the comparison must not be bit-exact — but it must stay fine enough
#: to expose genuine arithmetic bugs (the corpus' smallest injected
#: skew is 1e-7 on O(1) values; 12 significant digits sees it).
FLOAT_SIGNIFICANT_DIGITS = 12


def normalize_value(value: Any) -> Any:
    """Canonical form of one result value."""
    if value is None:
        return None
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, Decimal)):
        dec = Decimal(value)
        return ("num", _canonical_decimal(dec))
    if isinstance(value, float):
        dec = Decimal(f"{value:.{FLOAT_SIGNIFICANT_DIGITS}e}")
        return ("num", _canonical_decimal(dec))
    if isinstance(value, str):
        # CHAR padding is representation, not content.
        return ("str", value.rstrip())
    if isinstance(value, datetime.datetime):
        return ("ts", value.isoformat(sep=" "))
    if isinstance(value, datetime.date):
        # Intentional dialect tolerance: a DATE folds to the midnight
        # timestamp, so a product whose dialect only has a combined
        # date-time type (MS renames TIMESTAMP to DATETIME; InterBase 6
        # DATE carried a time part) agrees with a product returning a
        # plain date for the same value.  A true time-of-day difference
        # still disagrees — only exact midnight collapses.
        return ("ts", value.isoformat() + " 00:00:00")
    return ("other", repr(value))


def _canonical_decimal(value: Decimal) -> str:
    normalized = value.normalize()
    # Decimal('10').normalize() == Decimal('1E+1'); render plainly.
    return format(normalized, "f")


def normalize_row(row: Iterable[Any]) -> tuple:
    return tuple(normalize_value(value) for value in row)


def normalize_result(columns: Iterable[str], rows: Iterable[Iterable[Any]]) -> tuple:
    """Canonical form of a whole result set.

    Column names are compared case-insensitively (products differ in
    name case); row *order* is preserved — ordered queries must agree
    on order, and the middleware issues deterministic ORDER BY probes.
    """
    return (
        tuple(name.lower() for name in columns),
        tuple(normalize_row(row) for row in rows),
    )
