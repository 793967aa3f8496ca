"""Result normalisation for cross-server comparison.

The paper (Section 4.3) requires the comparison algorithm to "allow for
possible differences in the representation of correct results, e.g.
different numbers of digits in the representation of floating point
numbers, padding of characters in character strings etc.".  Values are
canonicalised by :func:`repro.sqlengine.values.normalize_value` (which
the study's cross-server identicality check shares), so representation
differences do not count as disagreement, while real value differences
(including the one-ulp skews of the arithmetic bugs) do, and whole
result sets by :func:`~repro.sqlengine.values.normalize_result`, which
this module hands to the middleware's comparisons.  A replica's whole
database is compared through
:meth:`~repro.servers.product.ServerProduct.normalized_state`.
"""

from repro.sqlengine.values import normalize_result

__all__ = ["normalize_result"]
