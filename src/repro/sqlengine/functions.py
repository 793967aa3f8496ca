"""Built-in scalar functions and aggregate accumulators.

Scalar functions receive already-evaluated argument values plus the
:class:`~repro.sqlengine.engine.ExecutionContext`, through which injected
behaviour faults (e.g. the MOD precision bug of Oracle report 1059835)
can distort results.
"""

from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation
from typing import Any, Callable, Optional

from repro.errors import BindError, DivisionByZero, NumericOverflow, TypeMismatch
from repro.records import finite_decimal
from repro.sqlengine.typenames import resolve_type
from repro.sqlengine.types import cast_value, format_numeric
from repro.sqlengine.values import distinct_key, sql_add, sql_compare

ScalarFunction = Callable[..., Any]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise TypeMismatch(message)


def _as_number(value: Any, func: str) -> Any:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float, Decimal)):
        return value
    if isinstance(value, str):
        try:
            return finite_decimal(value.strip())
        except Exception:
            raise TypeMismatch(f"{func} requires a numeric argument") from None
    raise TypeMismatch(f"{func} requires a numeric argument")


def _as_text(value: Any, func: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float, Decimal)):
        return format_numeric(value)
    raise TypeMismatch(f"{func} requires a string argument")


# --------------------------------------------------------------------------
# Scalar functions
# --------------------------------------------------------------------------


def fn_abs(ctx, value):
    if value is None:
        return None
    return abs(_as_number(value, "ABS"))


def fn_mod(ctx, dividend, divisor):
    if dividend is None or divisor is None:
        return None
    lval = _as_number(dividend, "MOD")
    rval = _as_number(divisor, "MOD")
    if rval == 0:
        raise DivisionByZero("MOD by zero")
    if isinstance(lval, float) or isinstance(rval, float):
        try:
            result: Any = math.fmod(float(lval), float(rval))
        except (OverflowError, ValueError):  # an operand beyond the float range
            raise NumericOverflow("MOD operand is beyond the floating-point range") from None
    else:
        lint, rint = Decimal(lval), Decimal(rval)
        result = lint - (lint / rint).to_integral_value(rounding="ROUND_DOWN") * rint
        if isinstance(dividend, int) and isinstance(divisor, int):
            result = int(result)
    if (
        ctx is not None
        and ctx.flag("mod_precision_bug")
        and not (isinstance(dividend, int) and isinstance(divisor, int))
    ):
        # Oracle report 1059835: MOD loses precision for non-integer
        # operands, drifting the result by one ulp-scale quantum.
        return float(result) + 1e-7
    return result


def fn_round(ctx, value, digits=0):
    if value is None:
        return None
    number = _as_number(value, "ROUND")
    places = int(_as_number(digits, "ROUND")) if digits is not None else 0
    if isinstance(number, Decimal):
        try:
            return number.quantize(Decimal(1).scaleb(-places))
        except InvalidOperation:  # more digits than the decimal context holds
            raise NumericOverflow("ROUND exceeds the numeric precision") from None
    return round(float(number), places)


def fn_floor(ctx, value):
    if value is None:
        return None
    return int(math.floor(_as_number(value, "FLOOR")))


def fn_ceil(ctx, value):
    if value is None:
        return None
    return int(math.ceil(_as_number(value, "CEILING")))


def fn_power(ctx, base, exponent):
    if base is None or exponent is None:
        return None
    try:
        result = float(_as_number(base, "POWER")) ** float(_as_number(exponent, "POWER"))
    except (OverflowError, ZeroDivisionError):
        result = math.inf
    if type(result) is not float or not math.isfinite(result):
        raise NumericOverflow("POWER result is not a finite real number")
    return result


def fn_sqrt(ctx, value):
    if value is None:
        return None
    number = float(_as_number(value, "SQRT"))
    _require(number >= 0, "SQRT of a negative number")
    return math.sqrt(number)


def fn_upper(ctx, value):
    if value is None:
        return None
    return _as_text(value, "UPPER").upper()


def fn_lower(ctx, value):
    if value is None:
        return None
    return _as_text(value, "LOWER").lower()


def fn_length(ctx, value):
    if value is None:
        return None
    return len(_as_text(value, "LENGTH"))


def fn_trim(ctx, value):
    if value is None:
        return None
    return _as_text(value, "TRIM").strip()


def fn_ltrim(ctx, value):
    if value is None:
        return None
    return _as_text(value, "LTRIM").lstrip()


def fn_rtrim(ctx, value):
    if value is None:
        return None
    return _as_text(value, "RTRIM").rstrip()


def fn_substring(ctx, value, start, length=None):
    if value is None or start is None:
        return None
    text = _as_text(value, "SUBSTRING")
    begin = int(_as_number(start, "SUBSTRING"))
    # SQL substring is 1-based; positions <= 0 shift the window.
    index = max(begin - 1, 0)
    if length is None:
        return text[index:]
    count = int(_as_number(length, "SUBSTRING"))
    _require(count >= 0, "SUBSTRING length must be non-negative")
    end = max(begin - 1 + count, index)
    return text[index:end]


def fn_replace(ctx, value, search, replacement):
    if value is None or search is None or replacement is None:
        return None
    return _as_text(value, "REPLACE").replace(
        _as_text(search, "REPLACE"), _as_text(replacement, "REPLACE")
    )


def fn_coalesce(ctx, *values):
    for value in values:
        if value is not None:
            return value
    return None


def fn_nullif(ctx, left, right):
    cmp = sql_compare(left, right) if (left is not None and right is not None) else None
    if cmp == 0:
        return None
    return left


# -- product-extension functions --------------------------------------------
#
# Each simulated server product exposes a few vendor extensions (the
# dialect layer controls which server accepts which).  They are
# implemented engine-wide so that any server *granted* the extension by
# its dialect descriptor executes it correctly.


def fn_gen_id(ctx, generator_name, step):
    """Interbase's GEN_ID(generator, step).

    Real generators are stateful; the simulation returns the step value
    deterministically, which preserves the syntax and typing behaviour
    bug scripts exercise without hidden cross-run state.
    """
    if step is None:
        return None
    return int(_as_number(step, "GEN_ID"))


def fn_decode(ctx, value, *pairs):
    """Oracle's DECODE(expr, search1, result1, ..., [default]).

    Unlike CASE, DECODE treats two NULLs as equal — the reason a
    mechanical CASE rewrite is not semantics-preserving.
    """
    if len(pairs) < 2:
        raise TypeMismatch("DECODE needs at least a search and a result")
    index = 0
    while index + 1 < len(pairs):
        search, result = pairs[index], pairs[index + 1]
        if value is None and search is None:
            return result
        if value is not None and search is not None and sql_compare(value, search) == 0:
            return result
        index += 2
    if index < len(pairs):  # odd trailing argument = default
        return pairs[index]
    return None


def fn_getdate(ctx):
    """MSSQL's GETDATE(), pinned to a fixed instant for determinism
    (wall-clock time would make bug-script replay non-reproducible)."""
    import datetime

    return datetime.datetime(2003, 8, 1, 12, 0, 0)


def fn_convert(ctx, value, type_text=None):
    """CONVERT(value [, 'TYPE']) — the MSSQL/Oracle conversion shim.

    The type is given as a string literal (e.g. ``'VARCHAR'``) because
    the superset grammar keeps function arguments expression-shaped.
    """
    if type_text is None:
        return value
    return cast_value(value, resolve_type(_as_text(type_text, "CONVERT")))


SCALAR_FUNCTIONS: dict[str, ScalarFunction] = {
    "GEN_ID": fn_gen_id,
    "DECODE": fn_decode,
    "GETDATE": fn_getdate,
    "CONVERT": fn_convert,
    "ABS": fn_abs,
    "MOD": fn_mod,
    "ROUND": fn_round,
    "FLOOR": fn_floor,
    "CEIL": fn_ceil,
    "CEILING": fn_ceil,
    "POWER": fn_power,
    "SQRT": fn_sqrt,
    "UPPER": fn_upper,
    "LOWER": fn_lower,
    "LENGTH": fn_length,
    "CHAR_LENGTH": fn_length,
    "LEN": fn_length,
    "TRIM": fn_trim,
    "LTRIM": fn_ltrim,
    "RTRIM": fn_rtrim,
    "SUBSTRING": fn_substring,
    "SUBSTR": fn_substring,
    "REPLACE": fn_replace,
    "COALESCE": fn_coalesce,
    "NVL": fn_coalesce,
    "IFNULL": fn_coalesce,
    "NULLIF": fn_nullif,
}


def lookup_scalar(name: str) -> ScalarFunction:
    try:
        return SCALAR_FUNCTIONS[name]
    except KeyError:
        raise BindError(f"unknown function {name!r}") from None


# --------------------------------------------------------------------------
# Aggregates
# --------------------------------------------------------------------------

AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


class Accumulator:
    """One aggregate computation over a group's rows."""

    def __init__(self, name: str, distinct: bool, star: bool) -> None:
        self.name = name
        self.distinct = distinct
        self.star = star
        self._count = 0
        self._sum: Any = None
        self._min: Any = None
        self._max: Any = None
        self._seen: Optional[set] = set() if distinct else None

    def add(self, value: Any) -> None:
        if self.star:
            self._count += 1
            return
        if value is None:
            return  # aggregates skip NULLs
        if self._seen is not None:
            key = distinct_key(value)
            if key in self._seen:
                return
            self._seen.add(key)
        self._count += 1
        if self.name in ("SUM", "AVG"):
            number = _as_number(value, self.name)
            self._sum = number if self._sum is None else sql_add(self._sum, number)
        elif self.name == "MIN" and (
            self._min is None or sql_compare(value, self._min) < 0
        ):
            self._min = value
        elif self.name == "MAX" and (
            self._max is None or sql_compare(value, self._max) > 0
        ):
            self._max = value

    def result(self) -> Any:
        if self.name == "COUNT":
            return self._count
        if self.name == "SUM":
            return self._sum
        if self.name == "AVG":
            if self._sum is None:
                return None
            total = self._sum
            if isinstance(total, int):
                total = Decimal(total)
            return total / self._count
        if self.name == "MIN":
            return self._min
        if self.name == "MAX":
            return self._max
        raise BindError(f"unknown aggregate {self.name!r}")  # pragma: no cover
