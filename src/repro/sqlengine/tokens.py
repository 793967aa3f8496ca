"""Token definitions for the SQL lexer."""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple


class TokenKind(Enum):
    """Lexical category of a token."""

    KEYWORD = auto()
    IDENTIFIER = auto()
    QUOTED_IDENTIFIER = auto()
    STRING = auto()
    NUMBER = auto()
    OPERATOR = auto()
    PUNCT = auto()
    EOF = auto()


#: Reserved words recognised by the engine.  Product-specific words
#: (``CLUSTERED``, ``PRECISION``, ...) stay identifiers; the parser
#: recognises them by spelling where its grammar allows them.
KEYWORDS = frozenset(
    {
        "ADD", "ALL", "ALTER", "AND", "AS", "ASC", "AVG", "BEGIN", "BETWEEN",
        "BY", "CASCADE", "CASE", "CAST", "CHECK", "COLUMN", "COMMIT",
        "CONSTRAINT", "COUNT", "CREATE", "CROSS", "DEFAULT", "DELETE",
        "DESC", "DISTINCT", "DROP", "ELSE", "END", "ESCAPE", "EXCEPT",
        "EXISTS", "FALSE", "FROM", "FULL", "GROUP", "HAVING", "IN", "INDEX",
        "INNER", "INSERT", "INTERSECT", "INTO", "IS", "JOIN", "KEY", "LEFT",
        "LIKE", "LIMIT", "MAX", "MIN", "NOT", "NULL", "ON", "OR", "ORDER",
        "OUTER", "PRIMARY", "REFERENCES", "RESTRICT", "RIGHT", "ROLLBACK",
        "SAVEPOINT", "SELECT", "SET", "SUM", "TABLE", "THEN", "TO",
        "TRANSACTION", "TRUE", "UNION", "UNIQUE", "UPDATE", "VALUES",
        "VIEW", "WHEN", "WHERE", "WORK",
    }
)

#: Multi-character operators, longest first so the lexer can greedily match.
MULTI_CHAR_OPERATORS = ("<>", "<=", ">=", "!=", "||")

SINGLE_CHAR_OPERATORS = frozenset("+-*/%<>=")

PUNCTUATION = frozenset("(),.;?")


class Token(NamedTuple):
    """One lexical token.

    ``value`` holds the uppercased text for keywords, the literal text
    for identifiers and operators, and the *decoded* value for string
    literals (quote-escapes resolved).  ``position`` is the offset of
    the token's first character and ``line`` the line that character
    is on.
    """

    kind: TokenKind
    value: str
    position: int
    line: int

    def is_keyword(self, *words: str) -> bool:
        """Return True if this token is one of the given keywords."""
        return self.kind is TokenKind.KEYWORD and self.value in words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.value!r} @{self.line})"
