"""SQL text <-> tokens: the scanner, the renderer and the splitter.

:func:`tokenize` is one compiled master pattern plus a dispatch on the
group that matched.  It handles identifiers, double-quoted identifiers,
single-quoted string literals with ``''`` escaping, ASCII-digit
integer/decimal/scientific numbers, ``--`` line comments, ``/* */``
block comments, and the operator and punctuation sets in
:mod:`repro.sqlengine.tokens`.

:func:`render_tokens` is the inverse every layer shares (translated
text, and therefore WAL, checkpoint and wire bytes, is whatever it
renders).  :func:`split_tokens` cuts a scan at its top-level semicolons,
and :func:`split_statements` renders each piece it cuts from a script.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from repro.errors import LexError
from repro.sqlengine.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    PUNCTUATION,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenKind,
)


def _any_of(spellings: Iterable[str]) -> str:
    return "|".join(re.escape(spelling) for spelling in spellings)


#: The pattern table, tried in order at each position.  Comments come
#: before the operators that share their first character and numbers
#: before the ``.`` punctuation; ``unterminated`` is reached only when
#: the complete form of a comment, string or quoted identifier failed.
_MASTER = re.compile(
    "|".join(
        f"(?P<{group}>{pattern})"
        for group, pattern in (
            ("space", r"\s+"),
            ("comment", r"--[^\n]*|/\*[\s\S]*?\*/"),
            # ``[^\W\d]`` also admits digits that are not decimal
            # (superscripts, circled and Roman numerals); the dispatch
            # refuses a word that starts with one.
            ("word", r"[^\W\d]\w*"),
            ("number", r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"),
            # The lookahead stops a backtrack from closing the literal
            # on the first quote of an escaped pair.
            ("string", r"'[^']*(?:''[^']*)*'(?!')"),
            ("quoted", r'"[^"]*"'),
            ("unterminated", r"/\*|'|\""),
            ("operator", _any_of((*MULTI_CHAR_OPERATORS, *sorted(SINGLE_CHAR_OPERATORS)))),
            ("punct", _any_of(sorted(PUNCTUATION))),
            ("unexpected", r"[\s\S]"),
        )
    )
)

#: Groups whose token value is the matched text itself (keyed like
#: ``Match.lastgroup``, which is typed optional).
_VERBATIM: dict[Optional[str], TokenKind] = {
    "number": TokenKind.NUMBER,
    "operator": TokenKind.OPERATOR,
    "punct": TokenKind.PUNCT,
}

_UNTERMINATED = {
    "/": "block comment",
    "'": "string literal",
    '"': "quoted identifier",
}


def tokenize(text: str) -> list[Token]:
    """Tokenise ``text`` into a list of tokens ending with an EOF token.

    Every token carries the offset and the line of its first character.
    """
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    for match in _MASTER.finditer(text):
        group = match.lastgroup
        value = match.group()
        if group == "word":
            upper = value.upper()
            if upper in KEYWORDS:
                append(Token(TokenKind.KEYWORD, upper, match.start(), line))
            elif value[0].isalpha() or value[0] == "_":
                append(Token(TokenKind.IDENTIFIER, value, match.start(), line))
            else:
                raise LexError(f"unexpected character {value[0]!r} at line {line}")
            continue
        kind = _VERBATIM.get(group)
        if kind is not None:
            append(Token(kind, value, match.start(), line))
            continue
        if group == "string":
            decoded = value[1:-1].replace("''", "'")
            append(Token(TokenKind.STRING, decoded, match.start(), line))
        elif group == "quoted":
            append(Token(TokenKind.QUOTED_IDENTIFIER, value[1:-1], match.start(), line))
        elif group == "unterminated":
            raise LexError(f"unterminated {_UNTERMINATED[value[0]]} at line {line}")
        elif group == "unexpected":
            raise LexError(f"unexpected character {value!r} at line {line}")
        # Only spaces, comments, strings and quoted identifiers can
        # span lines.
        line += value.count("\n")
    append(Token(TokenKind.EOF, "", len(text), line))
    return tokens


_NO_SPACE_BEFORE = {",", ")", ";", "."}
_NO_SPACE_AFTER = {"(", "."}


def render_tokens(tokens: list[Token]) -> str:
    """Render a token list back to SQL text."""
    return "".join(render_parts(tokens))


def render_parts(tokens: list[Token]) -> list[str]:
    """:func:`render_tokens` one piece per token before EOF: the
    token's text, after the blank that separates it from the previous
    one, if any."""
    parts: list[str] = []
    previous: Token | None = None
    for token in tokens:
        if token.kind is TokenKind.EOF:
            break
        text = token_text(token)
        if parts and not (
            (token.kind is TokenKind.PUNCT and token.value in _NO_SPACE_BEFORE)
            or (
                previous is not None
                and previous.kind is TokenKind.PUNCT
                and previous.value in _NO_SPACE_AFTER
            )
        ):
            text = " " + text
        parts.append(text)
        previous = token
    return parts


def token_text(token: Token) -> str:
    """The SQL spelling of one token: a string literal quoted with its
    quotes doubled, a quoted identifier in double quotes."""
    if token.kind is TokenKind.STRING:
        escaped = token.value.replace("'", "''")
        return f"'{escaped}'"
    if token.kind is TokenKind.QUOTED_IDENTIFIER:
        return f'"{token.value}"'
    return token.value


def split_tokens(tokens: list[Token]) -> list[list[Token]]:
    """Cut a scan at its top-level semicolons: the non-empty pieces,
    without the semicolons and the EOF token."""
    pieces: list[list[Token]] = []
    current: list[Token] = []
    for token in tokens:
        if token.kind is TokenKind.EOF:
            break
        if token.kind is TokenKind.PUNCT and token.value == ";":
            if current:
                pieces.append(current)
                current = []
            continue
        current.append(token)
    if current:
        pieces.append(current)
    return pieces


def split_statements(sql: str) -> list[str]:
    """Split a script into individual statements at top-level semicolons."""
    return [render_tokens(piece) for piece in split_tokens(tokenize(sql))]
