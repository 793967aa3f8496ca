"""Tokeniser unit tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexError, ParseError
from repro.sqlengine.lexer import tokenize
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.tokens import TokenKind


def kinds(sql):
    return [t.kind for t in tokenize(sql)][:-1]  # drop EOF


def values(sql):
    return [t.value for t in tokenize(sql)][:-1]


class TestBasicTokens:
    def test_keywords_uppercased(self):
        tokens = tokenize("select From WHERE")
        assert [t.value for t in tokens[:3]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.kind is TokenKind.KEYWORD for t in tokens[:3])

    def test_identifiers_preserve_case(self):
        token = tokenize("MyTable")[0]
        assert token.kind is TokenKind.IDENTIFIER
        assert token.value == "MyTable"

    def test_identifier_with_underscore_and_digits(self):
        token = tokenize("t_1_x2")[0]
        assert token.kind is TokenKind.IDENTIFIER
        assert token.value == "t_1_x2"

    def test_eof_token_always_present(self):
        assert tokenize("")[-1].kind is TokenKind.EOF
        assert tokenize("SELECT")[-1].kind is TokenKind.EOF

    def test_punctuation(self):
        assert kinds("(),.;") == [TokenKind.PUNCT] * 5

    def test_keyword_check_helper(self):
        token = tokenize("SELECT")[0]
        assert token.is_keyword("SELECT")
        assert token.is_keyword("SELECT", "INSERT")
        assert not token.is_keyword("INSERT")


class TestStrings:
    def test_simple_string(self):
        token = tokenize("'hello'")[0]
        assert token.kind is TokenKind.STRING
        assert token.value == "hello"

    def test_quote_escape_doubling(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_empty_string(self):
        assert tokenize("''")[0].value == ""

    def test_string_with_special_chars(self):
        assert tokenize("'a-b c.d;'")[0].value == "a-b c.d;"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("'abc")

    def test_quoted_identifier(self):
        token = tokenize('"Mixed Case"')[0]
        assert token.kind is TokenKind.QUOTED_IDENTIFIER
        assert token.value == "Mixed Case"

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(LexError):
            tokenize('"abc')


class TestNumbers:
    @pytest.mark.parametrize("text", ["0", "42", "123456789"])
    def test_integers(self, text):
        token = tokenize(text)[0]
        assert token.kind is TokenKind.NUMBER
        assert token.value == text

    @pytest.mark.parametrize("text", ["1.5", "0.25", "10.00"])
    def test_decimals(self, text):
        assert tokenize(text)[0].value == text

    def test_leading_dot(self):
        assert tokenize(".5")[0].value == ".5"

    @pytest.mark.parametrize("text", ["1e5", "1.5E-3", "2e+10"])
    def test_scientific(self, text):
        assert tokenize(text)[0].value == text

    def test_number_then_dot_identifier(self):
        # "1.e" is number "1." followed by identifier (not scientific).
        tokens = tokenize("1.x")
        assert tokens[0].value == "1."
        assert tokens[1].value == "x"


class TestOperators:
    @pytest.mark.parametrize("op", ["<>", "<=", ">=", "!=", "||"])
    def test_multi_char(self, op):
        token = tokenize(op)[0]
        assert token.kind is TokenKind.OPERATOR
        assert token.value == op

    def test_greedy_matching(self):
        assert values("a<=b") == ["a", "<=", "b"]

    def test_single_char_operators(self):
        assert values("1+2-3*4/5%6") == ["1", "+", "2", "-", "3", "*", "4", "/", "5", "%", "6"]

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("SELECT @")


class TestCommentsAndWhitespace:
    def test_line_comment(self):
        assert values("SELECT -- comment\n 1") == ["SELECT", "1"]

    def test_line_comment_at_eof(self):
        assert values("SELECT 1 -- done") == ["SELECT", "1"]

    def test_block_comment(self):
        assert values("SELECT /* multi\nline */ 1") == ["SELECT", "1"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("SELECT /* oops")

    def test_line_numbers_tracked(self):
        tokens = tokenize("SELECT\n\n1")
        assert tokens[0].line == 1
        assert tokens[1].line == 3

    def test_quoted_identifier_spanning_lines_advances_the_counter(self):
        tokens = tokenize('SELECT "a\n\n\nb" FROM')
        assert [t.line for t in tokens] == [1, 1, 4, 4]
        with pytest.raises(ParseError, match="line 4"):
            parse_statement('SELECT "a\n\n\nb" FROM FROM')

    def test_multi_line_string_carries_the_line_it_starts_on(self):
        tokens = tokenize("SELECT\n'a\nb\nc' x")
        assert [(t.value, t.line) for t in tokens[:3]] == [
            ("SELECT", 1), ("a\nb\nc", 2), ("x", 4),
        ]

    def test_every_error_names_the_line_it_is_on(self):
        for text, message in (
            ("\n'abc", "unterminated string literal at line 2"),
            ('\n\n"abc', "unterminated quoted identifier at line 3"),
            ("'\n' /* x", "unterminated block comment at line 2"),
            ("/*\n*/ @", "unexpected character '@' at line 2"),
        ):
            with pytest.raises(LexError) as caught:
                tokenize(text)
            assert str(caught.value) == message


class TestNonAsciiDigits:
    """``str.isdigit`` is true of characters ``int()`` rejects, so a
    number is ASCII digits only and any other digit cannot start a
    token."""

    @pytest.mark.parametrize("text", ["²", "1 + ①", "1²", ".²", "٣", "1.٣", "½", "Ⅷ"])
    def test_cannot_start_a_token(self, text):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(text)

    def test_allowed_inside_a_word_as_before(self):
        assert values("x² a٣") == ["x²", "a٣"]


#: Text dense in the characters the scanner branches on.
_SQLISH = st.lists(
    st.sampled_from(
        list("'\"-/*\n \t.;,()?<>=!|+%eE_aZ019")
        + ["''", "--", "/*", "*/", "select", "²", "٣", "½", "é", "\r", "\x1c", "\u2003"]
    ),
    max_size=30,
).map("".join)


class TestScannerProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), _SQLISH))
    def test_any_text_tokenizes_or_raises_lex_error(self, text):
        try:
            tokens = tokenize(text)
        except LexError:
            return
        assert tokens[-1].kind is TokenKind.EOF
        assert tokens[-1].position == len(text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), _SQLISH))
    def test_every_token_starts_a_spelling_that_rescans_to_it(self, text):
        try:
            tokens = tokenize(text)
        except LexError:
            return
        for token in tokens:
            again = tokenize(text[token.position :])[0]
            assert (again.kind, again.value, again.position) == (
                token.kind, token.value, 0,
            )
            assert token.line == 1 + text.count("\n", 0, token.position)
