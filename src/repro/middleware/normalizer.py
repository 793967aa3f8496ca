"""Result normalisation for cross-server comparison.

The paper (Section 4.3) requires the comparison algorithm to "allow for
possible differences in the representation of correct results, e.g.
different numbers of digits in the representation of floating point
numbers, padding of characters in character strings etc.".  Values are
canonicalised by :func:`repro.sqlengine.values.normalize_value` (which
the study's cross-server identicality check shares), so representation
differences do not count as disagreement, while real value differences
(including the one-ulp skews of the arithmetic bugs) do, and whole
result sets by :func:`~repro.sqlengine.values.normalize_result`.  This
module applies them to the middleware's comparisons and database states.
"""

from __future__ import annotations

from typing import Any

from repro.sqlengine.values import normalize_result, normalize_row

__all__ = ["normalize_result", "normalized_state"]


def normalized_state(engine: Any) -> dict[str, list[tuple]]:
    """One engine's whole database in canonical form: every base table
    (lower-cased name) mapped to its sorted normalised rows.  The
    consistency check and the rebuild admission gate both compare
    replicas through this dump."""
    return {
        data.name.lower(): sorted(normalize_row(row) for row in data.snapshot())
        for data in engine.storage.tables()
    }
