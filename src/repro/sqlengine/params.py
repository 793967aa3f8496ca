"""Positional parameter (``?`` placeholder) utilities.

The prepared-statement pipeline binds parameters at evaluation time
(see ``ExecutionContext.params``); this module covers the places that
still need *literal* SQL text for a bound statement, and the one move
that turns literal text into a bound statement:

* the middleware's write log and the replicas' WALs (recovery replays
  plain text; :func:`param_text` is a value as a replica's record
  spells it);
* equivalence checks — ``prepare(sql).execute(params)`` must match
  executing ``substitute_params(sql, params)``;
* the TPC-C generator, which derives its literal statement text from
  (template, params) pairs;
* literal lifting (:func:`lift_literals`): the value literals of a
  SELECT/INSERT/UPDATE/DELETE become parameters, so statements that
  differ only in their values share one parse, translation, analysis
  and compiled plan.

Substitution is text surgery on the original statement: each ``?``
token is replaced in place (:func:`splice_texts`), so the bound text is
byte-identical to the template everywhere else (but for the one space
that keeps a ``-`` before a ``?`` from meeting a negative value's
``-``).  ``?`` inside string literals is untouched — the lexer already
consumed it as part of the string token.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal
from typing import Any, NamedTuple, Optional, Sequence

from repro.errors import SqlError
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.lexer import render_parts, token_text, tokenize
from repro.sqlengine.parser import number_value
from repro.sqlengine.tokens import Token, TokenKind
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


def param_text(value: Any) -> str:
    """:func:`render_param` as the renderer spells it: the text
    ``render_tokens(tokenize(render_param(value)))`` gives, built
    without a scan.  A leading minus is an operator token of its own,
    so ``-5`` is written ``- 5``; every other rendering is one token
    (an exponent's sign belongs to its number)."""
    text = render_param(value)
    return "- " + text[1:] if text[0] == "-" else text


def placeholder_positions(sql: str) -> list[int]:
    """Text offsets of each ``?`` placeholder token, in statement order.

    Tokenizing dominates the cost of binding; prepared statements take
    their offsets from their parse instead and splice with
    :func:`splice_texts` on every execution.
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
    return splice_texts(sql, placeholder_positions(sql), [render_param(v) for v in params])


def splice_texts(sql: str, positions: Sequence[int], texts: Sequence[str]) -> str:
    """Replace the one-character ``?`` at each offset in ``positions``
    with the text at the same index of ``texts``.  A text starting with
    ``-`` after a ``-`` (``-?`` bound to ``-5``) is spliced after a
    space: ``--`` would open a comment that swallows the rest of the
    statement.

    Raises :class:`SqlError` when the two counts differ.
    """
    if len(positions) != len(texts):
        raise SqlError(
            f"statement takes {len(positions)} parameter(s), {len(texts)} given"
        )
    if not positions:
        return sql
    pieces: list[str] = []
    cursor = 0
    for position, text in zip(positions, texts):
        pieces.append(sql[cursor:position])
        if text[:1] == "-" and sql[position - 1 : position] == "-":
            pieces.append(" ")
        pieces.append(text)
        cursor = position + 1
    pieces.append(sql[cursor:])
    return "".join(pieces)


# -- literal lifting ----------------------------------------------------------

#: Statements whose value literals lift, by their first keyword.  DDL
#: and transaction control keep every literal: a DEFAULT or a CHECK is
#: part of the schema, not a value bound per execution.
_LIFTED_KINDS = frozenset({"SELECT", "INSERT", "UPDATE", "DELETE"})


class Lifted(NamedTuple):
    """A literal statement as its shape plus the values lifted out of it.

    ``shape`` is the statement's rendering
    (:func:`~repro.sqlengine.lexer.render_tokens`) with a ``?`` for each
    lifted literal; ``texts`` are those literals'
    spellings and ``values`` the values the parser gives them, both in
    placeholder order.  Splicing ``texts`` into a rendering of the
    shape with renamed identifiers gives the rendering of the literal
    statement with the same renames.
    """

    shape: str
    texts: tuple[str, ...]
    values: tuple


def lift_literals(tokens: list[Token]) -> Optional[tuple[Lifted, list[Token]]]:
    """The shape of one scanned statement with its value literals lifted
    into ``?`` parameters, and the shape's tokens (each ``?`` at its
    offset in the shape); None when nothing lifts.

    Only a SELECT, INSERT, UPDATE or DELETE lifts, and not when its text
    already holds a ``?``.  Numbers and strings lift; a LIMIT count,
    ``NULL``, ``TRUE``, ``FALSE`` and a number too large for a float
    stay as written.  A shape can still fail to stand for the statement
    (``VARCHAR(?)`` does not parse, and see :func:`misreads_literals`);
    the caller checks.
    """
    if not tokens or not tokens[0].is_keyword(*_LIFTED_KINDS):
        return None
    shape: list[Token] = []
    texts: list[str] = []
    values: list[Any] = []
    lifted: list[int] = []
    previous: Optional[Token] = None
    for token in tokens:
        kind = token.kind
        if kind is TokenKind.PUNCT and token.value == "?":
            return None
        if (
            kind is TokenKind.NUMBER or kind is TokenKind.STRING
        ) and not (previous is not None and previous.is_keyword("LIMIT")):
            value = token.value if kind is TokenKind.STRING else number_value(token.value)
            if value != math.inf:
                lifted.append(len(shape))
                texts.append(token_text(token))
                values.append(value)
                token = Token(TokenKind.PUNCT, "?", 0, token.line)
        shape.append(token)
        previous = token
    if not lifted:
        return None
    parts = render_parts(shape)
    offsets = list(itertools.accumulate(map(len, parts)))
    for index in lifted:
        shape[index] = shape[index]._replace(position=offsets[index] - 1)
    text = "".join(parts)
    shape[-1] = shape[-1]._replace(position=len(text))
    return Lifted(text, tuple(texts), tuple(values)), shape


def misreads_literals(node: Any, clause: bool = False) -> bool:
    """Whether the shape ``node`` (an AST, subqueries included) would
    read one of its parameters otherwise than its literal statements
    read the literal: a parameter in an ORDER BY or GROUP BY clause, or
    in an operator over literals and parameters only.

    ``ORDER BY 1`` is an ordinal, and a grouped select item matches its
    GROUP BY expression (and the order verdict an ORDER BY item) by the
    literals they spell, while two lifted literals are two distinct
    parameters.  Constant folding folds ``-1`` or ``1 + NULL`` in the
    literal statement but not over a parameter, and the folded plan
    consults different fault flags.
    """
    if isinstance(node, ast.Parameter):
        return clause
    if isinstance(node, (ast.BinaryOp, ast.UnaryOp)) and _folds(node):
        return any(isinstance(sub, ast.Parameter) for sub in ast.walk_expressions(node))
    if isinstance(node, (list, tuple)):
        return any(misreads_literals(item, clause) for item in node)
    if not hasattr(node, "__dataclass_fields__"):
        return False
    for name, value in vars(node).items():
        inside = clause or (
            name == "order_by" if isinstance(node, ast.SelectStatement)
            else name == "group_by" and isinstance(node, ast.SelectCore)
        )
        if misreads_literals(value, inside):
            return True
    return False


def _folds(expr: ast.Expression) -> bool:
    """Whether ``expr`` is built of operators over literals and
    parameters only: what constant folding evaluates at plan time."""
    if isinstance(expr, (ast.Literal, ast.Parameter)):
        return True
    if isinstance(expr, (ast.BinaryOp, ast.UnaryOp)):
        return all(map(_folds, expr.children()))
    return False
