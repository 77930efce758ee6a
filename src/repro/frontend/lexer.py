"""Lexer for the EARTH-C dialect: one compiled pattern, one scan.

Produces a list of :class:`Token`.  EARTH-C extensions over the C subset:

* ``{^`` and ``^}`` delimit parallel statement sequences (the two
  characters must be adjacent, as in the paper's examples),
* ``@`` introduces a call placement annotation,
* the keywords ``forall``, ``shared`` and ``local``.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexError, SourceLocation

KEYWORDS = frozenset({
    "int", "double", "float", "char", "void", "struct",
    "if", "else", "while", "do", "for", "forall",
    "switch", "case", "default",
    "return", "break", "continue", "goto",
    "sizeof", "shared", "local", "NULL",
})

# Multi-character operators, longest first so maximal munch works.
_MULTI_OPS = [
    "{^", "^}",
    "<<=", ">>=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
]

_SINGLE_OPS = "+-*/%<>=!&|^~?:;,.(){}[]@"


class Token:
    """A lexical token.

    ``kind`` is one of ``"id"``, ``"keyword"``, ``"int"``, ``"float"``,
    ``"char"``, ``"string"``, ``"op"`` or ``"eof"``; ``text`` is the
    source spelling and ``value`` the decoded literal value where
    applicable.
    """

    __slots__ = ("kind", "text", "value", "loc")

    def __init__(self, kind: str, text: str, loc: SourceLocation,
                 value: object = None):
        self.kind = kind
        self.text = text
        self.value = value
        self.loc = loc

    def is_op(self, text: str) -> bool:
        return self.kind == "op" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r} @ {self.loc})"


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0",
            "\\": "\\", "'": "'", '"': '"'}
_ESCAPE = r"\\[%s]" % "".join(map(re.escape, _ESCAPES))
_STRING_BODY = r'(?:[^"\\\n]|%s)*' % _ESCAPE

# One match is the trivia before a token (blanks, comments, and
# preprocessor lines, which are skipped whole: the dialect has no
# preprocessor but benchmark sources may keep decorative directives)
# followed by the token, whose kind is the name of the group that
# matched.  No token group matches at the end of input, at a malformed
# literal or comment, or at a character the dialect does not have:
# :func:`_lex_error` says which.
_TOKEN = re.compile("".join((
    r"(?P<trivia>(?:[ \t\r\n]+|//[^\n]*|#[^\n]*|/\*.*?\*/)*)",
    r"(?:(?P<word>[^\W\d]\w*)",
    r"|(?P<hex>0[xX][0-9a-fA-F]*)",
    r"|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)",
    r"|(?P<char>'(?:[^'\\]|%s)')" % _ESCAPE,
    r'|(?P<string>"%s")' % _STRING_BODY,
    r"|(?P<op>(?!/\*)(?:%s|[%s]))" % (
        "|".join(map(re.escape, _MULTI_OPS)), re.escape(_SINGLE_OPS)),
    r")?")), re.DOTALL)
_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPED = re.compile(r"\\(.)", re.DOTALL)


def _unquote(literal: str) -> str:
    """The decoded value of a quoted char or string literal."""
    body = literal[1:-1]
    if "\\" in body:
        return _ESCAPED.sub(lambda match: _ESCAPES[match.group(1)], body)
    return body


def _lex_error(source: str, pos: int, loc: SourceLocation) -> LexError:
    """Why no token starts at ``source[pos]`` (which is not the end)."""
    ch = source[pos]
    if source.startswith("/*", pos):
        return LexError("unterminated block comment", loc)
    if ch == "'":
        body = source[pos + 1:pos + 2]
        if body == "\\":
            esc = source[pos + 2:pos + 3]
            if esc not in _ESCAPES:
                return LexError(f"bad escape \\{esc}", loc)
        elif body in ("", "'"):
            return LexError("empty character literal", loc)
        return LexError("unterminated character literal", loc)
    if ch == '"':
        # The longest well-formed body ends where the literal goes wrong:
        # at a bad escape, or at the end of the line or of the input.
        end = _STRING_PREFIX.match(source, pos + 1).end()
        if source.startswith("\\", end):
            return LexError(f"bad escape \\{source[end + 1:end + 2]}", loc)
        return LexError("unterminated string literal", loc)
    return LexError(f"unexpected character {ch!r}", loc)


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``source``, returning a list ending with an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    pos, line, line_start = 0, 1, 0
    while True:
        found = match(source, pos)
        start = found.end("trivia")
        if start != pos:
            newlines = source.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", pos, start) + 1
        loc = SourceLocation(filename, line, start - line_start + 1)
        kind = found.lastgroup
        if kind == "trivia":
            if start < len(source):
                raise _lex_error(source, start, loc)
            append(Token("eof", "", loc))
            return tokens
        pos = found.end()
        text = source[start:pos]
        if kind == "word":
            append(Token("keyword" if text in KEYWORDS else "id", text, loc))
        elif kind == "op":
            append(Token("op", text, loc))
        elif kind == "number":
            if "." in text or "e" in text or "E" in text:
                append(Token("float", text, loc, value=float(text)))
                continue
            try:
                value = int(text)
            except ValueError:
                # Longer than the interpreter's int/str conversion limit.
                raise LexError("integer literal too long", loc) from None
            append(Token("int", text, loc, value=value))
        elif kind == "hex":
            if len(text) == 2:
                raise LexError(
                    f"hexadecimal literal {text!r} has no digits", loc)
            append(Token("int", text, loc, value=int(text, 16)))
        else:
            # The token's text is its canonical spelling: the decoded
            # value between the quotes.
            value = _unquote(text)
            quote = text[0]
            append(Token(kind, f"{quote}{value}{quote}", loc, value=value))
            if text[1] == "\n":
                # A raw newline is a legal character literal.
                line += 1
                line_start = pos - 1
