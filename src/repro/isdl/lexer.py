"""Lexer for the ISDL description language.

The lexer understands the notational conventions of the paper's figures:

* ``!`` starts a comment that runs to end of line,
* ``** NAME **`` banners introduce description sections,
* ``<-`` (or the Unicode arrow ``←``) is the assignment arrow,
* identifiers may contain dots (``Src.Base``, ``scasb.execute``),
* ``<hi:lo>`` width suffixes reuse ``<``/``>`` tokens; disambiguation from
  comparison operators is the parser's job.

One compiled master expression, with one named alternative per lexeme
class, scans the text; a position it cannot match raises a located
:class:`~repro.isdl.errors.LexError`.
"""

from __future__ import annotations

import re
from typing import List

from .errors import LexError, SourceLocation
from .tokens import KEYWORDS, Token, TokenKind

#: One alternative per lexeme class, tried in order at each position.  An
#: identifier is ASCII and may contain dots but not end with one (a
#: trailing dot is a typo like ``zf <-.0`` in the paper's OCR); a number
#: is a run of Unicode decimal digits, the digits ``int`` reads.
_MASTER = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|!(?P<comment>[^\n]*)"
    r"|(?P<ident>[A-Za-z_](?:[A-Za-z0-9_.]*[A-Za-z0-9_])?)"
    r"|(?P<number>\d+)"
    r"|'(?P<squote>[^'\n]*)'"
    r'|"(?P<dquote>[^"\n]*)"'
    r"|(?P<punct>\*\*|:=|<-|<>|<=|>=|[<>\[\](),;:+\-*=←])"
)

#: Punctuation spelling -> (kind, token value).  A punctuation kind's
#: value is its spelling; the paper's arrow ``←`` lexes as ``<-``.
_PUNCT = {
    kind.value: (kind, kind.value)
    for kind in TokenKind
    if not kind.value[0].isalpha()
}
_PUNCT["←"] = (TokenKind.ASSIGN, "<-")


class Lexer:
    """Converts ISDL source text into a token stream.

    Comments are not tokens, but they are not discarded either: the lexer
    records each ``!`` comment's line and text in :attr:`comments`, and the
    set of lines that carry real tokens in :attr:`token_lines`.  The parser
    uses both to re-attach comments to the declarations and statements they
    annotate, so pretty-printed descriptions keep the paper's annotations.
    """

    def __init__(self, text: str):
        self._text = text
        #: line number -> comment text (without the leading ``!``).
        self.comments: dict = {}
        #: lines on which at least one token starts.
        self.token_lines: set = set()

    def tokens(self) -> List[Token]:
        """Lex the whole input and return all tokens including EOF."""
        text = self._text
        comments = self.comments
        token_lines = self.token_lines
        result: List[Token] = []
        match_at = _MASTER.match
        pos = 0
        line = 1
        line_start = 0  # index of the current line's first character
        end = len(text)
        while pos < end:
            match = match_at(text, pos)
            if match is None:
                location = SourceLocation(line, pos - line_start + 1)
                token_lines.add(line)
                if text[pos] in "'\"":
                    raise LexError("unterminated string literal", location)
                raise LexError(f"unexpected character {text[pos]!r}", location)
            group = match.lastgroup
            lexeme = match.group(group)
            if group == "space":
                newlines = lexeme.count("\n")
                if newlines:
                    line += newlines
                    line_start = pos + lexeme.rindex("\n") + 1
            elif group == "comment":
                comment = lexeme.strip()
                if comment:
                    existing = comments.get(line)
                    comments[line] = f"{existing}; {comment}" if existing else comment
            else:
                location = SourceLocation(line, pos - line_start + 1)
                token_lines.add(line)
                if group == "ident":
                    kind = KEYWORDS.get(lexeme.lower(), TokenKind.IDENT)
                    value = lexeme if kind is TokenKind.IDENT else lexeme.lower()
                    result.append(Token(kind, value, location))
                elif group == "punct":
                    kind, value = _PUNCT[lexeme]
                    result.append(Token(kind, value, location))
                elif group == "number":
                    try:
                        value = int(lexeme)
                    except ValueError:  # past Python's integer string limit
                        raise LexError(
                            f"number literal of {len(lexeme)} digits is too long",
                            location,
                        ) from None
                    result.append(Token(TokenKind.NUMBER, value, location))
                else:
                    result.append(Token(TokenKind.STRING, lexeme, location))
            pos = match.end()
        result.append(Token(TokenKind.EOF, "", SourceLocation(line, pos - line_start + 1)))
        return result


def tokenize(text: str) -> List[Token]:
    """Convenience wrapper: lex ``text`` into a token list."""
    return Lexer(text).tokens()
