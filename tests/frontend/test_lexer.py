"""Lexer unit tests."""

from typing import NamedTuple

import pytest

from repro.errors import LexError
from repro.frontend.lexer import _MULTI_OPS, _SINGLE_OPS, KEYWORDS, tokenize
from repro.frontend.parser import Parser


class Tok(NamedTuple):
    """One token read back from the arrays."""

    kind: str
    text: str
    value: object


def rows(source):
    """Every token but ``eof``."""
    tokens = tokenize(source)
    return [Tok(*row) for row in zip(tokens.kinds, tokens.texts,
                                     tokens.values)][:-1]


def kinds(source):
    return tokenize(source).kinds[:-1]


def texts(source):
    return tokenize(source).texts[:-1]


def located(source):
    """Every token, ``eof`` included, as ``(text, line, column)``: the
    location the parser cites it at."""
    parser = Parser(source)
    return [(text, parser._loc(index).line, parser._loc(index).column)
            for index, text in enumerate(parser.texts)]


class TestBasics:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens.kinds == ["eof"]
        assert tokens.offsets == [0]

    def test_identifier(self):
        (tok,) = rows("hello")
        assert tok.kind == "id"
        assert tok.text == "hello"

    def test_identifier_with_underscore_and_digits(self):
        (tok,) = rows("_my_var2")
        assert tok.kind == "id"

    def test_keywords_recognized(self):
        for word in ("int", "double", "while", "forall", "shared",
                     "local", "struct", "sizeof", "NULL"):
            (tok,) = rows(word)
            assert tok.kind == "keyword", word

    def test_keyword_prefix_is_identifier(self):
        (tok,) = rows("integer")
        assert tok.kind == "id"

    def test_whitespace_and_newlines_skipped(self):
        assert kinds("a \t\n b") == ["id", "id"]


class TestNumbers:
    def test_decimal_int(self):
        (tok,) = rows("42")
        assert tok.kind == "int"
        assert tok.value == 42

    def test_hex_int(self):
        (tok,) = rows("0x1F")
        assert tok.value == 31

    def test_float_with_dot(self):
        (tok,) = rows("3.25")
        assert tok.kind == "float"
        assert tok.value == 3.25

    def test_float_with_exponent(self):
        (tok,) = rows("1e3")
        assert tok.kind == "float"
        assert tok.value == 1000.0

    def test_float_with_negative_exponent(self):
        (tok,) = rows("2.5e-2")
        assert tok.value == 0.025

    def test_leading_dot_float(self):
        (tok,) = rows(".5")
        assert tok.kind == "float"
        assert tok.value == 0.5

    def test_int_then_member_access_not_float(self):
        # `x.y` after ident: dot is an operator
        assert kinds("s.f") == ["id", "op", "id"]


class TestOperators:
    def test_arrow(self):
        assert texts("p->next") == ["p", "->", "next"]

    def test_parallel_sequence_delimiters(self):
        assert texts("{^ ^}") == ["{^", "^}"]

    def test_caret_alone_is_xor(self):
        assert texts("a ^ b") == ["a", "^", "b"]

    def test_shift_operators(self):
        assert texts("a << b >> c") == ["a", "<<", "b", ">>", "c"]

    def test_relational_operators(self):
        assert texts("a <= b >= c == d != e") == \
            ["a", "<=", "b", ">=", "c", "==", "d", "!=", "e"]

    def test_logical_operators(self):
        assert texts("a && b || !c") == ["a", "&&", "b", "||", "!", "c"]

    def test_compound_assignment(self):
        assert texts("a += 1") == ["a", "+=", "1"]

    def test_increment_decrement(self):
        assert texts("a++ --b") == ["a", "++", "--", "b"]

    def test_at_sign(self):
        assert texts("f(x) @ 3") == ["f", "(", "x", ")", "@", "3"]

    def test_maximal_munch_prefers_longest(self):
        # `<<=` is one token, not `<<` `=`.
        assert texts("a <<= 2") == ["a", "<<=", "2"]


class TestLiteralsAndComments:
    def test_char_literal(self):
        (tok,) = rows("'x'")
        assert tok.kind == "char"
        assert tok.value == "x"

    def test_char_escape(self):
        (tok,) = rows(r"'\n'")
        assert tok.value == "\n"

    def test_string_literal(self):
        (tok,) = rows('"hi there"')
        assert tok.kind == "string"
        assert tok.value == "hi there"

    def test_string_with_escapes(self):
        (tok,) = rows(r'"a\tb"')
        assert tok.value == "a\tb"

    def test_line_comment_skipped(self):
        assert kinds("a // comment\n b") == ["id", "id"]

    def test_block_comment_skipped(self):
        assert kinds("a /* x\n y */ b") == ["id", "id"]

    def test_preprocessor_line_skipped(self):
        assert kinds("#include <stdio.h>\nint") == ["keyword"]


class TestErrorsAndLocations:
    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"open')

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'ab")

    def test_bad_escape(self):
        with pytest.raises(LexError):
            tokenize(r"'\q'")

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_line_and_column_tracking(self):
        (a, b, _) = located("a\n  b")
        assert a[1] == 1
        assert b[1] == 2
        assert b[2] == 3

    def test_offsets_are_where_tokens_start(self):
        tokens = tokenize("a\n  b")
        assert tokens.offsets == [0, 4, 5]

    def test_a_spelling_names_its_token(self):
        """What lets the parser test for an operator or a keyword by
        its spelling alone."""
        tokens = tokenize("while")
        assert (tokens.kinds[0], tokens.texts[0]) == ("keyword", "while")
        ops = set(_MULTI_OPS) | set(_SINGLE_OPS)
        assert "while" not in ops
        assert not ops & KEYWORDS
        for op in ops:
            assert tokenize(op).kinds[:-1] == ["op"], op


class TestMalformedLiterals:
    """Every refusal is a LexError carrying the literal's location."""

    @pytest.mark.parametrize("source, message", [
        ("x = 0x;", "hexadecimal literal '0x' has no digits"),
        ("x = 0XZ;", "hexadecimal literal '0X' has no digits"),
        pytest.param("x = " + "9" * 5000 + ";", "integer literal too long",
                     id="int-beyond-the-conversion-limit"),
        ("x = /* never ends", "unterminated block comment"),
        ("x = 'ab';", "unterminated character literal"),
        ("x = '';", "empty character literal"),
        ("x = '", "empty character literal"),
        (r"x = '\q';", r"bad escape \q"),
        ("x = '\\", "bad escape \\"),
        ('x = "open', "unterminated string literal"),
        ('x = "open\n";', "unterminated string literal"),
        (r'x = "a\q" "', r"bad escape \q"),
        ("x = $;", "unexpected character '$'"),
        ("x = \f;", "unexpected character '\\x0c'"),
    ])
    def test_message_and_location(self, source, message):
        with pytest.raises(LexError) as info:
            tokenize("\n  " + source, "bad.ec")
        assert str(info.value) == f"bad.ec:2:7: {message}"

    def test_hex_digits_stop_at_the_first_non_hex_character(self):
        assert rows("0x1G") == [("int", "0x1", 1), ("id", "G", None)]

    def test_number_forms(self):
        assert [(t.kind, t.text) for t in rows("1. 1.e2 1e+ 1..2 007")] \
            == [("float", "1."), ("float", "1.e2"), ("int", "1"),
                ("id", "e"), ("op", "+"), ("float", "1."), ("float", ".2"),
                ("int", "007")]

    def test_literal_text_is_the_decoded_spelling(self):
        string, char = rows(r'"a\tb" ' + r"'\n'")
        assert (string.text, string.value) == ('"a\tb"', "a\tb")
        assert (char.text, char.value) == ("'\n'", "\n")

    def test_locations_after_comments_and_a_raw_newline_character(self):
        assert located("a /* x\n y */ b // z\n#pragma\n '\n' c") == [
            ("a", 1, 1), ("b", 2, 7), ("'\n'", 4, 2), ("c", 5, 3),
            ("", 5, 4)]
