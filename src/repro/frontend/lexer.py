"""Lexer for the EARTH-C dialect: one compiled pattern, one scan.

Produces :class:`Tokens`: parallel arrays of kind, spelling, decoded
value and source offset, one entry per token, the last one ``eof``.  A
token is its index into them; no object is built per token.  Line and
column are not stored: the parser derives them from the offset for the
tokens an AST node or an error cites (``Parser._loc``), and only an
error here computes one itself.

Kinds are ``"id"``, ``"keyword"``, ``"int"``, ``"float"``, ``"char"``,
``"string"``, ``"op"`` and ``"eof"``.  A spelling names its token
unambiguously: no operator spelling is also an identifier, number or
quoted literal, and no identifier spells a keyword (a word in
:data:`KEYWORDS` is lexed as a keyword), so a parser tests for an
operator or keyword by comparing spellings alone.

EARTH-C extensions over the C subset:

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


class Tokens:
    """A tokenized source: index ``i`` is one token, read from the
    parallel arrays ``kinds[i]``, ``texts[i]`` (the source spelling;
    a quoted literal's canonical one), ``values[i]`` (the decoded
    literal, else ``None``) and ``offsets[i]`` (where it starts in the
    source).  The last token is ``eof``, at the end of the source."""

    __slots__ = ("kinds", "texts", "values", "offsets")

    def __init__(self, kinds: List[str], texts: List[str],
                 values: List[object], offsets: List[int]) -> None:
        self.kinds = kinds
        self.texts = texts
        self.values = values
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.kinds)


def _unquote(literal: str) -> str:
    """The decoded value of a quoted char or string literal."""
    body = literal[1:-1]
    if "\\" in body:
        return _ESCAPED.sub(lambda match: _ESCAPES[match.group(1)], body)
    return body


def _location(source: str, filename: str, pos: int) -> SourceLocation:
    """The line and column of ``source[pos]``."""
    return SourceLocation(filename, source.count("\n", 0, pos) + 1,
                          pos - source.rfind("\n", 0, pos))


def _lex_error(source: str, pos: int, filename: str) -> LexError:
    """Why no token starts at ``source[pos]`` (which is not the end)."""
    loc = _location(source, filename, pos)
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


def tokenize(source: str, filename: str = "<input>") -> Tokens:
    """Tokenize ``source``; the last token is ``eof``."""
    # Filled in place: no call per token.
    kinds: List[str] = []
    texts: List[str] = []
    values: List[object] = []
    offsets: List[int] = []
    # Each match starts where the previous one ended: the pattern
    # matches (trivia at least) at every position.
    for found in _TOKEN.finditer(source):
        kind = found.lastgroup
        if kind == "trivia":
            break
        start = found.start(kind)
        text = found[kind]
        offsets.append(start)
        if kind == "word":
            kinds.append("keyword" if text in KEYWORDS else "id")
            texts.append(text)
            values.append(None)
        elif kind == "op":
            kinds.append(kind)
            texts.append(text)
            values.append(None)
        elif kind == "number":
            if "." in text or "e" in text or "E" in text:
                kinds.append("float")
                values.append(float(text))
            else:
                try:
                    values.append(int(text))
                except ValueError:
                    # Longer than the interpreter's int/str conversion
                    # limit.
                    raise LexError("integer literal too long", _location(
                        source, filename, start)) from None
                kinds.append("int")
            texts.append(text)
        elif kind == "hex":
            if len(text) == 2:
                raise LexError(
                    f"hexadecimal literal {text!r} has no digits",
                    _location(source, filename, start))
            kinds.append("int")
            texts.append(text)
            values.append(int(text, 16))
        else:
            # The token's text is its canonical spelling: the decoded
            # value between the quotes.
            value = _unquote(text)
            quote = text[0]
            kinds.append(kind)
            texts.append(f"{quote}{value}{quote}")
            values.append(value)
    end = found.end()  # of the trivia before the end or a bad character
    if end < len(source):
        raise _lex_error(source, end, filename)
    kinds.append("eof")
    texts.append("")
    values.append(None)
    offsets.append(end)
    return Tokens(kinds, texts, values, offsets)
