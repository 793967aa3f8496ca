"""Positional parameter (``?`` placeholder) utilities.

The prepared-statement pipeline binds parameters at evaluation time
(see ``ExecutionContext.params``); this module covers the places that
still need *literal* SQL text for a bound statement:

* the middleware's write log (recovery replays plain text);
* equivalence checks — ``prepare(sql).execute(params)`` must match
  executing ``substitute_params(sql, params)``;
* the TPC-C generator, which derives its literal statement text from
  (template, params) pairs.

Substitution is text surgery on the original statement: each ``?``
token is replaced in place, so the bound text is byte-identical to the
template everywhere else.  ``?`` inside string literals is untouched —
the lexer already consumed it as part of the string token.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Any, Sequence

from repro.errors import SqlError
from repro.sqlengine.lexer import tokenize
from repro.sqlengine.tokens import TokenKind
from repro.sqlengine.values import is_finite


def render_param(value: Any) -> str:
    """Render one parameter value as a SQL literal."""
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, (int, float, Decimal)) and is_finite(value):
        return repr(value) if isinstance(value, float) else str(value)
    raise SqlError(f"cannot bind parameter value {value!r}")


def placeholder_positions(sql: str) -> list[int]:
    """Text offsets of each ``?`` placeholder token, in statement order.

    Tokenizing dominates the cost of binding; prepared statements call
    this once per template and splice with :func:`splice_params` on
    every execution.
    """
    return [
        token.position
        for token in tokenize(sql)
        if token.kind is TokenKind.PUNCT and token.value == "?"
    ]


def substitute_params(sql: str, params: Sequence[Any]) -> str:
    """Replace each ``?`` in order with its value rendered as a literal.

    Raises :class:`SqlError` when the number of values does not match
    the number of placeholders.
    """
    return splice_params(sql, placeholder_positions(sql), params)


def splice_params(sql: str, positions: Sequence[int], params: Sequence[Any]) -> str:
    """:func:`substitute_params` against pre-computed placeholder offsets."""
    if len(positions) != len(params):
        raise SqlError(
            f"statement takes {len(positions)} parameter(s), {len(params)} given"
        )
    if not positions:
        return sql
    pieces: list[str] = []
    cursor = 0
    for position, value in zip(positions, params):
        pieces.append(sql[cursor:position])
        pieces.append(render_param(value))
        cursor = position + 1
    pieces.append(sql[cursor:])
    return "".join(pieces)
