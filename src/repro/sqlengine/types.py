"""SQL type system: type descriptors, coercion, and value casting.

The engine keeps Python values in rows (``int``, ``float``,
``decimal.Decimal``, ``str``, ``datetime.date``, ``bool``, ``None``) and
uses :class:`SqlType` descriptors for column metadata, CAST, DEFAULT
validation, and implicit coercions.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from enum import Enum
from typing import Any, Optional

from repro.errors import TypeMismatch
from repro.records import finite_decimal


class TypeFamily(Enum):
    """Broad family a concrete type belongs to; coercion is per-family."""

    INTEGER = "integer"
    DECIMAL = "decimal"
    FLOAT = "float"
    CHARACTER = "character"
    DATE = "date"
    TIMESTAMP = "timestamp"
    BOOLEAN = "boolean"
    NULL = "null"


_NUMERIC_FAMILIES = {TypeFamily.INTEGER, TypeFamily.DECIMAL, TypeFamily.FLOAT}


@dataclass(frozen=True)
class SqlType:
    """A concrete SQL type as declared in DDL.

    ``name`` preserves the dialect spelling (``INT``, ``NUMBER``,
    ``VARCHAR2``...); semantics depend only on ``family`` plus the
    length/precision attributes.
    """

    name: str
    family: TypeFamily
    length: Optional[int] = None       # CHAR(n) / VARCHAR(n)
    precision: Optional[int] = None    # NUMERIC(p, s)
    scale: Optional[int] = None
    pad_char: bool = False             # CHAR semantics: pad to length

    def render(self) -> str:
        """Render the type as SQL text in its original spelling."""
        if self.length is not None:
            return f"{self.name}({self.length})"
        if self.precision is not None and self.scale is not None:
            return f"{self.name}({self.precision},{self.scale})"
        if self.precision is not None:
            return f"{self.name}({self.precision})"
        return self.name


INTEGER = SqlType("INTEGER", TypeFamily.INTEGER)
SMALLINT = SqlType("SMALLINT", TypeFamily.INTEGER)
BIGINT = SqlType("BIGINT", TypeFamily.INTEGER)
FLOAT = SqlType("FLOAT", TypeFamily.FLOAT)
DOUBLE = SqlType("DOUBLE PRECISION", TypeFamily.FLOAT)
BOOLEAN = SqlType("BOOLEAN", TypeFamily.BOOLEAN)
DATE = SqlType("DATE", TypeFamily.DATE)
TIMESTAMP = SqlType("TIMESTAMP", TypeFamily.TIMESTAMP)
NULL_TYPE = SqlType("NULL", TypeFamily.NULL)


def varchar(length: int = 255, name: str = "VARCHAR") -> SqlType:
    """Build a variable-length character type."""
    return SqlType(name, TypeFamily.CHARACTER, length=length)


def char(length: int = 1, name: str = "CHAR") -> SqlType:
    """Build a fixed-length, blank-padded character type."""
    return SqlType(name, TypeFamily.CHARACTER, length=length, pad_char=True)


def numeric(precision: int = 18, scale: int = 0, name: str = "NUMERIC") -> SqlType:
    """Build an exact decimal type."""
    return SqlType(name, TypeFamily.DECIMAL, precision=precision, scale=scale)


_DATE_FORMATS = ("%Y-%m-%d", "%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M")


def parse_date(text: str) -> datetime.date:
    """Parse an SQL date string, accepting single-digit month/day."""
    for fmt in _DATE_FORMATS:
        try:
            parsed = datetime.datetime.strptime(text.strip(), fmt)
        except ValueError:
            continue
        return parsed.date()
    raise TypeMismatch(f"invalid date literal {text!r}")


def parse_timestamp(text: str) -> datetime.datetime:
    """Parse an SQL timestamp string."""
    for fmt in reversed(_DATE_FORMATS):
        try:
            return datetime.datetime.strptime(text.strip(), fmt)
        except ValueError:
            continue
    raise TypeMismatch(f"invalid timestamp literal {text!r}")


def _cast_to_integer(value: Any) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, (float, Decimal)):
        return int(value)
    if isinstance(value, str):
        stripped = value.strip()
        try:
            return int(stripped)
        except ValueError:
            try:
                return int(finite_decimal(stripped))
            except InvalidOperation:
                raise TypeMismatch(f"cannot convert {value!r} to integer") from None
    raise TypeMismatch(f"cannot convert {value!r} to integer")


def _cast_to_decimal(value: Any, target: SqlType) -> Decimal:
    try:
        if isinstance(value, bool):
            result = Decimal(int(value))
        elif isinstance(value, (int, Decimal)):
            result = Decimal(value)
        elif isinstance(value, float):
            result = Decimal(str(value))
        elif isinstance(value, str):
            result = finite_decimal(value.strip())
        else:
            raise TypeMismatch(f"cannot convert {value!r} to decimal")
        if target.scale is not None:
            result = result.quantize(Decimal(1).scaleb(-target.scale))
    except InvalidOperation:
        raise TypeMismatch(f"cannot convert {value!r} to decimal") from None
    return result


def _cast_to_float(value: Any) -> float:
    try:
        result = float(value.strip() if isinstance(value, str) else value)
    except (TypeError, ValueError, OverflowError):
        result = math.nan
    if not math.isfinite(result):
        raise TypeMismatch(f"cannot convert {value!r} to float")
    return result


def _cast_to_character(value: Any, target: SqlType) -> str:
    if isinstance(value, bool):
        text = "TRUE" if value else "FALSE"
    elif isinstance(value, str):
        text = value
    elif isinstance(value, (int, float, Decimal)):
        text = format_numeric(value)
    elif isinstance(value, (datetime.date, datetime.datetime)):
        text = value.isoformat(sep=" ") if isinstance(value, datetime.datetime) else value.isoformat()
    else:
        raise TypeMismatch(f"cannot convert {value!r} to character")
    if target.length is not None and len(text) > target.length:
        if text[target.length :].strip():
            raise TypeMismatch(
                f"value {text!r} too long for {target.render()}"
            )
        text = text[: target.length]
    if target.pad_char and target.length is not None:
        text = text.ljust(target.length)
    return text


def _cast_to_boolean(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("t", "true", "1", "yes", "y"):
            return True
        if lowered in ("f", "false", "0", "no", "n"):
            return False
    raise TypeMismatch(f"cannot convert {value!r} to boolean")


def cast_value(value: Any, target: SqlType, *, implicit: bool = False) -> Any:
    """Cast ``value`` to ``target``.

    ``implicit=True`` applies the stricter coercion rules used when
    storing values into typed columns (strings are *not* silently parsed
    into numbers — that is exactly the validation the paper's Interbase
    bug 217042 shows being skipped; the fault injector can relax it).
    """
    if value is None:
        return None
    family = target.family
    if implicit and isinstance(value, str) and family in _NUMERIC_FAMILIES:
        # Implicit string->number narrowing must still parse cleanly.
        stripped = value.strip()
        if not _looks_numeric(stripped):
            raise TypeMismatch(
                f"cannot store string {value!r} in column of type {target.render()}"
            )
    if family is TypeFamily.INTEGER:
        return _cast_to_integer(value)
    if family is TypeFamily.DECIMAL:
        return _cast_to_decimal(value, target)
    if family is TypeFamily.FLOAT:
        return _cast_to_float(value)
    if family is TypeFamily.CHARACTER:
        return _cast_to_character(value, target)
    if family is TypeFamily.BOOLEAN:
        return _cast_to_boolean(value)
    if family is TypeFamily.DATE:
        if isinstance(value, datetime.datetime):
            return value.date()
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, str):
            return parse_date(value)
        raise TypeMismatch(f"cannot convert {value!r} to date")
    if family is TypeFamily.TIMESTAMP:
        if isinstance(value, datetime.datetime):
            return value
        if isinstance(value, datetime.date):
            return datetime.datetime(value.year, value.month, value.day)
        if isinstance(value, str):
            return parse_timestamp(value)
        raise TypeMismatch(f"cannot convert {value!r} to timestamp")
    if family is TypeFamily.NULL:
        return None
    raise TypeMismatch(f"unknown type family {family}")  # pragma: no cover


def _looks_numeric(text: str) -> bool:
    if not text:
        return False
    try:
        finite_decimal(text)
    except InvalidOperation:
        return False
    return True


def format_numeric(value: Any) -> str:
    """Render a numeric value the way result sets print it."""
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    if isinstance(value, Decimal):
        # Plain rendering preserving declared scale: NUMERIC(8,2) values
        # print as '10.00', the way products render them.
        return format(value, "f")
    return str(value)
