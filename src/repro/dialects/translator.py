"""Mechanical script translation between server dialects.

``translate_script`` does what the study's authors did by hand:

1. scan the script once, parse the tokens and extract its feature
   traits;
2. if the target dialect lacks a *gated* feature the script needs,
   give up — the script is dialect-specific for that server
   (:class:`~repro.errors.FeatureNotSupported`);
3. otherwise rewrite synonym-level spellings (type names, function
   names) in the same tokens and render them
   (:func:`repro.sqlengine.lexer.render_tokens`).

Steps 2 and 3 are :func:`translate_tokens`, which the middleware's
pipeline calls on the one scan it already holds.

:class:`ScriptPieces` is the one parsed form of a script: scanned once,
cut at its top-level semicolons once, each piece parsed once, and
translated per target on that scan.  The study runs it on every server
and every whole-script analysis reads it.
The rewrite works on the token stream, so comments vanish and spacing
normalises, but string literals and quoted identifiers survive exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from repro.dialects.features import DialectDescriptor, dialect
from repro.errors import FeatureNotSupported, SqlError
from repro.sqlengine.analysis import StatementTraits, script_traits, union_traits
from repro.sqlengine.engine import Executable, ParsedStatement, executable_text, parse_once
from repro.sqlengine.lexer import render_tokens, split_tokens, tokenize
from repro.sqlengine.parser import parse_script
from repro.sqlengine.tokens import Token, TokenKind


def translate_script(sql: str, target: str | DialectDescriptor) -> str:
    """Translate ``sql`` into the dialect of server ``target``.

    Raises
    ------
    FeatureNotSupported
        When the script uses a gated feature the target lacks — the
        study's "bug script cannot be run (functionality missing)".
    ParseError / LexError
        When the script is not valid superset SQL.
    """
    descriptor = target if isinstance(target, DialectDescriptor) else dialect(target)
    tokens = tokenize(sql)
    return translate_tokens(tokens, script_traits(parse_script(tokens)), descriptor)[0]


def translate_tokens(
    tokens: list[Token], traits: StatementTraits, descriptor: DialectDescriptor
) -> tuple[str, bool]:
    """Gate, rewrite and render one scan in ``descriptor``'s dialect.

    ``traits`` are those of what ``tokens`` parse to.  Returns the
    translated text and whether the rewrite renamed a token; when it
    did not, the text parses to what ``tokens`` parse to, so the
    middleware's pipeline and :class:`ScriptPieces` hand a server their
    own parse.  Raises
    :class:`FeatureNotSupported` like :func:`translate_script`.
    """
    descriptor.validate(None, traits)
    rewritten = _rewrite(tokens, descriptor)
    return render_tokens(rewritten), rewritten != tokens


class ScriptPieces:
    """A script scanned once, cut at its top-level semicolons once and
    each piece parsed once: what every server runs of it and what every
    whole-script analysis reads.

    ``pieces[i]`` is :func:`~repro.sqlengine.engine.parse_once` of the
    i-th text :func:`~repro.sqlengine.lexer.split_statements` cuts, so
    an engine handed it sees what it would have seen of the text.  Its
    trees are shared by every reader: nothing may change them.
    """

    def __init__(self, script: str) -> None:
        tokens = tokenize(script)
        cuts = split_tokens(tokens)
        pieces = [parse_once(render_tokens(cut), [*cut, tokens[-1]]) for cut in cuts]
        self._hold(script, tokens, cuts, pieces)

    def _hold(
        self, script: str, tokens: list[Token], cuts: list[list[Token]], pieces: list[Executable]
    ) -> None:
        self.script = script
        self._tokens = tokens
        self._cuts = cuts
        #: Each piece parsed, or its text when it is not exactly one statement.
        self.pieces = pieces
        #: Target key -> its translation; None, not a cycle back to this
        #: instance, when it is this script, so its trees die with it.
        self._translations: dict[str, Optional[ScriptPieces]] = {}

    @cached_property
    def traits(self) -> StatementTraits:
        """``script_traits(parse_script(script))``, the dialect gate's
        input, raising like it: the union of the pieces' traits when
        every piece is one statement."""
        parsed = [piece.traits for piece in self.pieces if isinstance(piece, ParsedStatement)]
        if len(parsed) < len(self.pieces):
            return script_traits(parse_script(self._tokens))
        return union_traits(parsed)

    def statements(self) -> list[ParsedStatement]:
        """The pieces as statements: a piece that is not exactly one
        raises what parsing its text raises."""
        return [
            piece if isinstance(piece, ParsedStatement) else ParsedStatement.parse(piece)
            for piece in self.pieces
        ]

    def translation(self, target: str) -> "ScriptPieces":
        """This script in server ``target``'s dialect, raising like
        :func:`translate_script`: this script itself when the rewrite
        renames nothing, else the translated text scanned and parsed."""
        text, renamed = translate_tokens(self._tokens, self.traits, dialect(target))
        return ScriptPieces(text) if renamed else self

    def translated(self, target: str) -> "ScriptPieces":
        """:meth:`translation`, memoised per target on this instance."""
        if target not in self._translations:
            translation = self.translation(target)
            self._translations[target] = None if translation is self else translation
        return self._translations[target] or self

    def sliced(self, kept: Sequence[int]) -> "ScriptPieces":
        """The script of the pieces at ``kept`` (ascending indices), each
        ended by a semicolon, from this scan and these parses."""
        pieces = [self.pieces[index] for index in kept]
        cuts = [self._cuts[index] for index in kept]
        semicolon = Token(TokenKind.PUNCT, ";", 0, 0)
        tokens = [token for cut in cuts for token in (*cut, semicolon)]
        script = ";\n".join(map(executable_text, pieces)) + (";" if pieces else "")
        sliced = object.__new__(ScriptPieces)
        sliced._hold(script, [*tokens, self._tokens[-1]], cuts, pieces)
        return sliced


@dataclass(frozen=True)
class TranslationOutcome:
    """The dynamic translation result, in a shape the static analyzer
    can cross-check.

    ``ok`` mirrors the study's can-run/cannot-run decision; ``missing``
    carries the gate feature that refused translation; ``reparse_ok``
    reports whether the translated text parses *and* revalidates in the
    target dialect — the self-check that catches token-rewrite bugs the
    trait gate cannot see.
    """

    target: str
    ok: bool
    missing: tuple[str, ...] = ()
    reparse_ok: bool = True


def translation_verdict(
    script: ScriptPieces, target: str | DialectDescriptor
) -> TranslationOutcome:
    """Attempt a translation and audit its own output.

    Never raises ``FeatureNotSupported`` — refusal is data here, so the
    lint (:mod:`repro.analysis.lint`) can compare it against the static
    portability prediction.  Only a translation that renamed a token is
    parsed again (see :func:`translate_tokens`).
    """
    descriptor = target if isinstance(target, DialectDescriptor) else dialect(target)
    try:
        translated = script.translated(descriptor.key)
    except FeatureNotSupported as refusal:
        return TranslationOutcome(
            target=descriptor.key, ok=False, missing=(refusal.feature,)
        )
    try:
        reparse_ok = not descriptor.missing_tags(translated.traits)
    except SqlError:
        reparse_ok = False
    return TranslationOutcome(target=descriptor.key, ok=True, reparse_ok=reparse_ok)


def _rewrite(tokens: list[Token], descriptor: DialectDescriptor) -> list[Token]:
    result: list[Token] = []
    index = 0
    while index < len(tokens):
        token = tokens[index]
        if token.kind is TokenKind.IDENTIFIER:
            upper = token.value.upper()
            nxt = tokens[index + 1] if index + 1 < len(tokens) else None
            # Two-word type spellings (DOUBLE PRECISION, CHARACTER VARYING).
            if nxt is not None and nxt.kind is TokenKind.IDENTIFIER:
                two_word = f"{upper} {nxt.value.upper()}"
                if two_word in descriptor.type_renames:
                    result.append(token._replace(value=descriptor.type_renames[two_word]))
                    index += 2
                    continue
            is_call = (
                nxt is not None and nxt.kind is TokenKind.PUNCT and nxt.value == "("
            )
            if is_call and upper in descriptor.function_renames:
                result.append(token._replace(value=descriptor.function_renames[upper]))
                index += 1
                continue
            # Type spellings may be parenthesised (VARCHAR2(10)), so the
            # rename applies whether or not a '(' follows.
            if upper in descriptor.type_renames:
                result.append(token._replace(value=descriptor.type_renames[upper]))
                index += 1
                continue
        result.append(token)
        index += 1
    return result
