"""Lexer unit tests, and a differential check against a character lexer."""

import ast as python_ast
import pathlib
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.isdl import LexError, SourceLocation, parse_expr, tokenize
from repro.isdl.lexer import Lexer
from repro.isdl.tokens import KEYWORDS, Token, TokenKind


def kinds(text):
    return [token.kind for token in tokenize(text)]


def values(text):
    return [token.value for token in tokenize(text)[:-1]]


class TestBasics:
    def test_empty_input_yields_eof(self):
        assert kinds("") == [TokenKind.EOF]

    def test_whitespace_only(self):
        assert kinds("   \n\t  ") == [TokenKind.EOF]

    def test_identifier(self):
        tokens = tokenize("di")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].value == "di"

    def test_dotted_identifier(self):
        tokens = tokenize("Src.Base")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].value == "Src.Base"

    def test_trailing_dot_not_part_of_identifier(self):
        # A dotted name must end with a name segment: the trailing dot
        # is backed off the identifier (and then rejected as stray
        # punctuation, since '.' alone is not a token).
        with pytest.raises(LexError):
            tokenize("name. next")

    def test_number(self):
        tokens = tokenize("32767")
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].value == 32767

    def test_character_literal(self):
        tokens = tokenize("'a'")
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].value == "a"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("'abc")

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestOperators:
    def test_assign_arrow(self):
        assert TokenKind.ASSIGN in kinds("a <- b")

    def test_unicode_arrow(self):
        assert TokenKind.ASSIGN in kinds("a ← b")

    def test_define(self):
        assert TokenKind.DEFINE in kinds("a := b")

    def test_banner(self):
        assert kinds("** STATE **")[:3] == [
            TokenKind.BANNER,
            TokenKind.IDENT,
            TokenKind.BANNER,
        ]

    def test_comparisons(self):
        text = "a = b <> c < d <= e > f >= g"
        for kind in (
            TokenKind.EQ,
            TokenKind.NEQ,
            TokenKind.LANGLE,
            TokenKind.LE,
            TokenKind.RANGLE,
            TokenKind.GE,
        ):
            assert kind in kinds(text)

    def test_arithmetic(self):
        for kind in (TokenKind.PLUS, TokenKind.MINUS, TokenKind.STAR):
            assert kind in kinds("a + b - c * d")


class TestKeywords:
    @pytest.mark.parametrize(
        "word,kind",
        [
            ("begin", TokenKind.BEGIN),
            ("end", TokenKind.END),
            ("if", TokenKind.IF),
            ("then", TokenKind.THEN),
            ("else", TokenKind.ELSE),
            ("end_if", TokenKind.END_IF),
            ("repeat", TokenKind.REPEAT),
            ("end_repeat", TokenKind.END_REPEAT),
            ("exit_when", TokenKind.EXIT_WHEN),
            ("input", TokenKind.INPUT),
            ("output", TokenKind.OUTPUT),
            ("and", TokenKind.AND),
            ("or", TokenKind.OR),
            ("not", TokenKind.NOT),
            ("assert", TokenKind.ASSERT),
        ],
    )
    def test_keyword(self, word, kind):
        assert kinds(word)[0] is kind

    def test_keywords_case_insensitive(self):
        assert kinds("BEGIN End_If REPEAT")[:3] == [
            TokenKind.BEGIN,
            TokenKind.END_IF,
            TokenKind.REPEAT,
        ]

    def test_ident_is_not_keyword(self):
        tokens = tokenize("ending")
        assert tokens[0].kind is TokenKind.IDENT


class TestComments:
    def test_comment_skipped(self):
        assert kinds("a ! this is a comment")[:1] == [TokenKind.IDENT]

    def test_comment_recorded_with_line(self):
        lexer = Lexer("a <- b; ! note\n")
        lexer.tokens()
        assert lexer.comments == {1: "note"}

    def test_standalone_comment_line(self):
        lexer = Lexer("! header\na <- b;\n")
        lexer.tokens()
        assert lexer.comments == {1: "header"}
        assert 1 not in lexer.token_lines
        assert 2 in lexer.token_lines

    def test_locations(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3


class TestDigits:
    def test_unicode_decimal_digits_are_numbers(self):
        tokens = tokenize("\u0663\u0664")  # Arabic-Indic 3 and 4
        assert (tokens[0].kind, tokens[0].value) == (TokenKind.NUMBER, 34)

    def test_superscript_digit_is_a_located_lex_error(self):
        with pytest.raises(LexError) as raised:
            parse_expr("x + \u00b2")
        assert raised.value.location == SourceLocation(1, 5)
        assert "unexpected character" in raised.value.message

    def test_superscript_after_digits_ends_the_number(self):
        with pytest.raises(LexError) as raised:
            tokenize("x <- 3\u00b2")
        assert raised.value.location == SourceLocation(1, 7)


# ---------------------------------------------------------------------------
# The character lexer the master-expression lexer replaced, kept as the
# oracle: it reads one character per call.


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789.")


class CharLexer:
    def __init__(self, text):
        self._text = text
        self._pos = 0
        self._line = 1
        self._col = 1
        self.comments = {}
        self.token_lines = set()

    def tokens(self):
        return list(self._iter_tokens())

    def _location(self):
        return SourceLocation(self._line, self._col)

    def _peek(self, offset=0):
        index = self._pos + offset
        if index >= len(self._text):
            return ""
        return self._text[index]

    def _advance(self, count=1):
        for _ in range(count):
            if self._pos >= len(self._text):
                return
            if self._text[self._pos] == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
            self._pos += 1

    def _skip_trivia(self):
        while True:
            ch = self._peek()
            if ch and ch in " \t\r\n":
                self._advance()
            elif ch == "!":
                comment_line = self._line
                start = self._pos + 1
                while self._peek() and self._peek() != "\n":
                    self._advance()
                text = self._text[start:self._pos].strip()
                if text:
                    existing = self.comments.get(comment_line)
                    self.comments[comment_line] = (
                        f"{existing}; {text}" if existing else text
                    )
            else:
                return

    def _iter_tokens(self):
        while True:
            self._skip_trivia()
            loc = self._location()
            ch = self._peek()
            if not ch:
                yield Token(TokenKind.EOF, "", loc)
                return
            self.token_lines.add(loc.line)
            if ch in _IDENT_START:
                yield self._lex_ident(loc)
            elif ch.isdigit():
                yield self._lex_number(loc)
            elif ch in "'\"":
                yield self._lex_string(loc, ch)
            else:
                yield self._lex_punct(loc)

    def _lex_ident(self, loc):
        start = self._pos
        while self._peek() in _IDENT_CONT and self._peek():
            self._advance()
        text = self._text[start:self._pos]
        while text.endswith("."):
            text = text[:-1]
            self._pos -= 1
            self._col -= 1
        kind = KEYWORDS.get(text.lower(), TokenKind.IDENT)
        value = text.lower() if kind is not TokenKind.IDENT else text
        return Token(kind, value, loc)

    def _lex_number(self, loc):
        start = self._pos
        while self._peek().isdigit():
            self._advance()
        return Token(TokenKind.NUMBER, int(self._text[start:self._pos]), loc)

    def _lex_string(self, loc, quote):
        self._advance()
        start = self._pos
        while self._peek() and self._peek() != quote:
            if self._peek() == "\n":
                raise LexError("unterminated string literal", loc)
            self._advance()
        if not self._peek():
            raise LexError("unterminated string literal", loc)
        text = self._text[start:self._pos]
        self._advance()
        return Token(TokenKind.STRING, text, loc)

    def _lex_punct(self, loc):
        two = self._peek() + self._peek(1)
        for spelling, kind in (
            ("**", TokenKind.BANNER),
            (":=", TokenKind.DEFINE),
            ("<-", TokenKind.ASSIGN),
            ("<>", TokenKind.NEQ),
            ("<=", TokenKind.LE),
            (">=", TokenKind.GE),
        ):
            if two == spelling:
                self._advance(2)
                return Token(kind, spelling, loc)
        ch = self._peek()
        if ch == "\u2190":
            self._advance()
            return Token(TokenKind.ASSIGN, "<-", loc)
        singles = {
            "<": TokenKind.LANGLE,
            ">": TokenKind.RANGLE,
            "[": TokenKind.LBRACKET,
            "]": TokenKind.RBRACKET,
            "(": TokenKind.LPAREN,
            ")": TokenKind.RPAREN,
            ",": TokenKind.COMMA,
            ";": TokenKind.SEMI,
            ":": TokenKind.COLON,
            "+": TokenKind.PLUS,
            "-": TokenKind.MINUS,
            "*": TokenKind.STAR,
            "=": TokenKind.EQ,
        }
        if ch in singles:
            self._advance()
            return Token(singles[ch], ch, loc)
        raise LexError(f"unexpected character {ch!r}", loc)


def lexing(lexer_class, text):
    """What a lexer reports on ``text``: its tokens or its error, and the
    comments and token lines it recorded."""
    lexer = lexer_class(text)
    try:
        outcome = [
            (token.kind, token.value, token.location.line, token.location.column)
            for token in lexer.tokens()
        ]
    except (LexError, ValueError) as error:
        outcome = (type(error).__name__, str(error))
    return outcome, lexer.comments, lexer.token_lines


def assert_lexes_like_the_oracle(text):
    expected = lexing(CharLexer, text)
    actual = lexing(Lexer, text)
    if expected[0][0] == "ValueError":
        # The oracle's crash (``int`` refusing a digit ``str.isdigit``
        # accepts) is a located LexError now.
        assert actual[0][0] == "LexError", text
        return
    assert actual == expected, text


def _source_string_literals():
    """Every distinct string literal in the project's Python sources."""
    root = pathlib.Path(__file__).resolve().parents[2]
    literals = set()
    for folder in ("src", "tests"):
        for path in sorted((root / folder).rglob("*.py")):
            tree = python_ast.parse(path.read_text(encoding="utf-8"))
            for node in python_ast.walk(tree):
                if isinstance(node, python_ast.Constant) and isinstance(node.value, str):
                    literals.add(node.value)
    return sorted(literals)


#: Characters the generated texts are drawn from: ASCII identifier
#: characters, digits, every punctuation mark, whitespace, the paper's
#: arrow, a non-ASCII letter, a non-ASCII decimal digit and a superscript
#: digit (a digit to ``str.isdigit``, not to ``int``).
ALPHABET = (
    string.ascii_letters + string.digits + string.punctuation
    + " \t\n\r" + "\u2190\u00e9\u0663\u00b2"
)

#: Lexeme-shaped pieces, so generated texts reach every token class.
PIECES = (
    "a", "Src.Base", "x.", "x..y", "_t1", "end_if", "BEGIN", "Output",
    "0", "42", "\u0663", "\u00b2", "'c'", "''", '"s"', "'", '"',
    "! note\n", "!\n", "!", "\n", " ", "\t", "\r",
    "<-", "\u2190", "<", ">", "<>", "<=", ">=", "=", "**", "*", ":=", ":",
    "[", "]", "(", ")", ",", ";", "+", "-", "\u00e9", "@", ".", "?",
)


class TestMatchesCharacterLexer:
    def test_source_string_literals(self):
        literals = _source_string_literals()
        assert len(literals) > 1000
        for text in literals:
            assert_lexes_like_the_oracle(text)

    @given(st.text(alphabet=ALPHABET, max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_random_characters(self, text):
        assert_lexes_like_the_oracle(text)

    @given(st.lists(st.sampled_from(PIECES), max_size=24).map("".join))
    @settings(max_examples=500, deadline=None)
    def test_random_lexemes(self, text):
        assert_lexes_like_the_oracle(text)
