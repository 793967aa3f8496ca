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
pipeline and the study (for a bug script) call on the one scan they
already hold.
The rewrite works on the token stream, so comments vanish and spacing
normalises, but string literals and quoted identifiers survive exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dialects.features import DialectDescriptor, dialect
from repro.errors import FeatureNotSupported, SqlError
from repro.sqlengine.analysis import StatementTraits, script_traits
from repro.sqlengine.lexer import render_tokens, tokenize
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
    middleware's pipeline and the study hand a server their own parse.  Raises
    :class:`FeatureNotSupported` like :func:`translate_script`.
    """
    descriptor.validate(None, traits)
    rewritten = _rewrite(tokens, descriptor)
    return render_tokens(rewritten), rewritten != tokens


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
    sql: Optional[str] = None
    reparse_ok: bool = True


def translation_verdict(sql: str, target: str | DialectDescriptor) -> TranslationOutcome:
    """Attempt a translation and audit its own output.

    Never raises ``FeatureNotSupported`` — refusal is data here, so the
    lint (:mod:`repro.analysis.lint`) can compare it against the static
    portability prediction.
    """
    descriptor = target if isinstance(target, DialectDescriptor) else dialect(target)
    try:
        translated = translate_script(sql, descriptor)
    except FeatureNotSupported as refusal:
        return TranslationOutcome(
            target=descriptor.key, ok=False, missing=(refusal.feature,)
        )
    try:
        traits = script_traits(parse_script(translated))
        reparse_ok = not descriptor.missing_tags(traits)
    except SqlError:
        reparse_ok = False
    return TranslationOutcome(
        target=descriptor.key, ok=True, sql=translated, reparse_ok=reparse_ok
    )


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
