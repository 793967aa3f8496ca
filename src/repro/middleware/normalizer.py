"""Result normalisation for cross-server comparison.

The paper (Section 4.3) requires the comparison algorithm to "allow for
possible differences in the representation of correct results, e.g.
different numbers of digits in the representation of floating point
numbers, padding of characters in character strings etc.".  This module
canonicalises values so that representation differences do not count as
disagreement, while real value differences (including the one-ulp skews
of the arithmetic bugs) do.
"""

from __future__ import annotations

import datetime
from decimal import Decimal
from typing import Any, Iterable

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


def normalized_state(engine: Any) -> dict[str, list[tuple]]:
    """One engine's whole database in canonical form: every base table
    (lower-cased name) mapped to its sorted normalised rows.  The
    consistency check and the rebuild admission gate both compare
    replicas through this dump."""
    return {
        data.name.lower(): sorted(normalize_row(row) for row in data.snapshot())
        for data in engine.storage.tables()
    }


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


def normalize_signature(signature: tuple) -> tuple:
    """Canonicalise a ScriptOutcome signature (status, columns, rows,
    rowcount) per statement, for cross-server identicality checks."""
    normalized = []
    for status, columns, rows, rowcount in signature:
        if status != "ok":
            normalized.append((status,))
        else:
            cols, nrows = normalize_result(columns, rows)
            normalized.append((status, cols, nrows, rowcount))
    return tuple(normalized)
