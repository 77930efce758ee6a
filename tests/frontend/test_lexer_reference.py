"""The token-array lexer against the ``Token``-object lexer it replaced.

``reference_tokenize`` is the lexer as it was before tokens became
arrays: one ``Token`` and one ``SourceLocation`` per token, the line
and column tracked as the scan goes.  The product lexer must give every
token the same kind, spelling and value, the parser must cite it at the
same line and column, and a refused source must be refused with the
same ``LexError`` text -- over the ten Olden programs, sixty generated
ones, and every source of the mutation-fuzz corpus.

``ParseError`` texts are held to ``mutant_refusals.json``: what parsing
each mutant of that corpus came to under the ``Token``-object parser.
Re-record it (only when a change means to move a message) with
``PYTHONPATH=src:. python tests/frontend/test_lexer_reference.py``.
"""

import json
import random
import re
from pathlib import Path

import pytest

from repro.errors import LexError, ParseError, SourceLocation
from repro.frontend.lexer import _ESCAPES, _STRING_PREFIX, _TOKEN, KEYWORDS
from repro.frontend.lexer import tokenize
from repro.frontend.parser import Parser, parse_program
from repro.olden.loader import catalog
from repro.workload import MIXES, SHAPES, generate_source
from tests.property.test_mutation_fuzz import MUTANTS, corpus, mutate

PIN = Path(__file__).with_name("mutant_refusals.json")


# -- the reference ------------------------------------------------------------


class Token:
    __slots__ = ("kind", "text", "value", "loc")

    def __init__(self, kind, text, loc, value=None):
        self.kind = kind
        self.text = text
        self.value = value
        self.loc = loc


_ESCAPED = re.compile(r"\\(.)", re.DOTALL)


def _unquote(literal):
    body = literal[1:-1]
    if "\\" in body:
        return _ESCAPED.sub(lambda match: _ESCAPES[match.group(1)], body)
    return body


def _lex_error(source, pos, loc):
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
        end = _STRING_PREFIX.match(source, pos + 1).end()
        if source.startswith("\\", end):
            return LexError(f"bad escape \\{source[end + 1:end + 2]}", loc)
        return LexError("unterminated string literal", loc)
    return LexError(f"unexpected character {ch!r}", loc)


def reference_tokenize(source, filename="<input>"):
    tokens = []
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
                raise LexError("integer literal too long", loc) from None
            append(Token("int", text, loc, value=value))
        elif kind == "hex":
            if len(text) == 2:
                raise LexError(
                    f"hexadecimal literal {text!r} has no digits", loc)
            append(Token("int", text, loc, value=int(text, 16)))
        else:
            value = _unquote(text)
            quote = text[0]
            append(Token(kind, f"{quote}{value}{quote}", loc, value=value))
            if text[1] == "\n":
                line += 1
                line_start = pos - 1


# -- the comparison -----------------------------------------------------------


def lexed(source):
    """Every token as (kind, text, value, line, column), or the
    refusal's text."""
    try:
        parser = Parser(source, "lex.ec")
    except LexError as error:
        return ("LexError", str(error))
    locations = [parser._loc(index) for index in range(len(parser.tokens))]
    return [(kind, text, value, loc.line, loc.column)
            for kind, text, value, loc in zip(
                parser.kinds, parser.texts, parser.values, locations)]


def reference_lexed(source):
    try:
        tokens = reference_tokenize(source, "lex.ec")
    except LexError as error:
        return ("LexError", str(error))
    return [(t.kind, t.text, t.value, t.loc.line, t.loc.column)
            for t in tokens]


def assert_same_tokens(source):
    got = lexed(source)
    assert got == reference_lexed(source)
    return got


def generated(seed):
    rng = random.Random(f"lexer-reference-{seed}")
    shape = SHAPES[seed % len(SHAPES)]
    mix = sorted(MIXES)[(seed // len(SHAPES)) % len(MIXES)]
    return generate_source(rng, shape, mix)


def mutants():
    """The mutation-fuzz corpus: its programs, then its mutants, in
    the order that test draws them."""
    rng, programs = corpus()
    sources = ["".join(pieces) for pieces in programs]
    sources += [mutate(rng, programs[number % len(programs)])
                for number in range(MUTANTS)]
    return sources


def parsed(source, number):
    """What parsing mutant ``number`` comes to."""
    try:
        parse_program(source, f"mutant{number}.ec")
    except (LexError, ParseError) as error:
        return f"{type(error).__name__}: {error}"
    return "parsed"


@pytest.mark.parametrize("spec", catalog(), ids=lambda spec: spec.name)
def test_olden_tokens_are_the_reference_tokens(spec):
    assert isinstance(assert_same_tokens(spec.source()), list)


@pytest.mark.parametrize("seed", range(60))
def test_generated_tokens_are_the_reference_tokens(seed):
    assert isinstance(assert_same_tokens(generated(seed)), list)


def test_every_mutant_lexes_like_the_reference():
    refused = 0
    for source in mutants():
        refused += isinstance(assert_same_tokens(source), tuple)
    assert refused, "the corpus reaches the lexer's refusals"


def test_every_mutant_parses_or_is_refused_as_pinned():
    pinned = json.loads(PIN.read_text())
    outcomes = [parsed(source, number)
                for number, source in enumerate(mutants())]
    assert len(outcomes) == len(pinned)
    for number, (got, want) in enumerate(zip(outcomes, pinned)):
        assert got == want, number
    assert sum(text.startswith("ParseError") for text in pinned) > 100


@pytest.mark.parametrize("source", [
    "a\n'\n'\n  b", "x /* a\n\n */ y\n#if\n\tz", "", "\n\n", "int\r\nx;",
    '"a\\n\\t\\"" \'\\\\\' q', "p->q.r[3] += 0x1f * 1.5e-3;",
    "'\n", "x\n  $", '\n"a\\q"', "x = 1" + "0" * 5000 + ";",
])
def test_hand_written_sources_lex_like_the_reference(source):
    assert_same_tokens(source)


def test_the_tokens_are_the_counted_tokens():
    """``frontend.tokens`` counts ``len(tokenize(...))``, eof included."""
    for spec in catalog():
        source = spec.source()
        assert len(tokenize(source)) == len(reference_tokenize(source))


if __name__ == "__main__":
    PIN.write_text(json.dumps(
        [parsed(source, number) for number, source in enumerate(mutants())],
        indent=0) + "\n")
    print(f"wrote {PIN}")
