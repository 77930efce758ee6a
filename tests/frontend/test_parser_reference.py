"""The precedence-climbing expression parser against the ten-level
descent it replaced.

``ReferenceParser`` keeps the old ``_parse_binary_expr`` -- one call per
precedence level per operand, the grammar written as a recursion, each
operator tested by kind and spelling -- on the token arrays the product
parser reads; the product parser must build the same AST, node for node
and location for location, and refuse the same inputs with the same
``ParseError`` text.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FrontendError, ParseError
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import Parser
from repro.harness.pipeline import compile_earthc
from repro.olden.loader import catalog
from repro.simple.printer import print_program
from repro.workload import MIXES, SHAPES, generate_source


class ReferenceParser(Parser):
    """The expression parser as it was at ``84436ca``."""

    def _parse_binary_expr(self, level):
        if level >= len(self._PRECEDENCE):
            return self._parse_unary_expr()
        left = self._parse_binary_expr(level + 1)
        ops = self._PRECEDENCE[level]
        while self.kinds[self.index] == "op" and \
                self.texts[self.index] in ops:
            index = self._next()
            right = self._parse_binary_expr(level + 1)
            left = ast.BinOp(self.texts[index], left, right,
                             self._loc(index))
        return left


def dump(value):
    """A node as nested plain data: class, every slot, locations and
    types by their text."""
    if isinstance(value, (ast.Node, ast.SwitchCase, ast.Param)):
        slots = [name for cls in type(value).__mro__
                 for name in getattr(cls, "__slots__", ())]
        return (type(value).__name__,
                [(name, dump(getattr(value, name))) for name in slots])
    if isinstance(value, (list, tuple)):
        return [dump(item) for item in value]
    if isinstance(value, (int, float, str, bool, type(None))):
        return value
    return str(value)       # SourceLocation, Type


def outcome(parser_class, source):
    """What parsing ``source`` comes to: the AST, or the refusal."""
    try:
        return dump(parser_class(source, "ref.ec").parse_program())
    except ParseError as error:
        return ("ParseError", str(error))


def assert_same_parse(source):
    assert outcome(Parser, source) == outcome(ReferenceParser, source)


# -- whole programs ---------------------------------------------------------


@pytest.mark.parametrize("spec", catalog(), ids=lambda spec: spec.name)
def test_olden_source_parses_to_the_reference_ast(spec):
    assert_same_parse(spec.source())


@pytest.mark.parametrize("seed", range(60))
def test_generated_source_parses_to_the_reference_ast(seed):
    rng = random.Random(f"parser-reference-{seed}")
    shape = SHAPES[seed % len(SHAPES)]
    mix = sorted(MIXES)[(seed // len(SHAPES)) % len(MIXES)]
    assert_same_parse(generate_source(rng, shape, mix))


def test_the_dump_sees_operators_and_locations():
    """The equality above is not vacuous."""
    base = "int f() { return a + b * c; }"
    assert outcome(Parser, base) != outcome(
        Parser, "int f() { return a * b + c; }")
    assert outcome(Parser, base) != outcome(
        Parser, "int f() { return  a + b * c; }")


# -- expressions --------------------------------------------------------------

BINARY_OPS = [op for level in Parser._PRECEDENCE for op in level]

_atoms = st.sampled_from(["a", "b", "p", "7", "0", "2.5", "'c'", "NULL",
                          "p->f", "s.g", "a[i]", "f(a, b)", "g()"])


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(BINARY_OPS), inner).map(" ".join),
        st.tuples(inner, inner, inner).map(
            lambda t: f"{t[0]} ? {t[1]} : {t[2]}"),
        st.tuples(st.sampled_from(["-", "!", "~", "+", "*", "&",
                                   "++", "--", "(int)", "(struct t *)"]),
                  inner).map(" ".join),
        st.tuples(inner, st.sampled_from(["++", "--", "->f", ".g"])
                  ).map(" ".join),
        st.tuples(inner, inner).map(lambda t: f"{t[0]} [ {t[1]} ]"),
        st.tuples(inner, st.sampled_from(["=", "+=", "<<="]), inner
                  ).map(" ".join),
        inner.map(lambda text: f"( {text} )"),
    )


expressions = st.recursive(_atoms, _grow, max_leaves=12)


def test_the_generator_draws_from_all_eighteen_binary_operators():
    assert len(BINARY_OPS) == 18 and len(set(BINARY_OPS)) == 18


@given(expressions)
def test_expression_parses_to_the_reference_ast(text):
    assert_same_parse(f"int main() {{ x = {text}; }}")


@given(expressions, st.integers(min_value=0, max_value=200))
def test_truncated_expression_is_refused_like_the_reference(text, cut):
    """Same ``ParseError`` text and location wherever the input stops
    making sense (or the same AST where it still does)."""
    tokens = text.split()
    broken = " ".join(tokens[:cut % (len(tokens) + 1)]
                      + tokens[cut % (len(tokens) + 1) + 1:])
    assert_same_parse(f"int main() {{ x = {broken}; }}")
    assert_same_parse(f"int main() {{ x = {broken}")


@pytest.mark.parametrize("body", [
    "x = 1 + ;", "x = * ;", "x = a ? b ;", "x = (a + b;", "x = a b;",
    "x = a + + ;", "x = a || ;", "x = a << >> b;", "x = ;", "x = a ? : b;",
])
def test_parse_error_text_and_location_are_the_reference(body):
    source = f"int main() {{\n  {body}\n}}"
    result = outcome(Parser, source)
    assert result[0] == "ParseError" and "ref.ec:2:" in result[1]
    assert result == outcome(ReferenceParser, source)


@pytest.mark.parametrize("text,shape", [
    ("a - b - c", "((a - b) - c)"),
    ("a + b * c", "(a + (b * c))"),
    ("a * b + c", "((a * b) + c)"),
    ("a || b && c | d ^ e & f == g < h << i + j * k",
     "(a || (b && (c | (d ^ (e & (f == (g < (h << (i + (j * k))))))))))"),
    ("a * b + c << d < e == f & g ^ h | i && j || k",
     "((((((((((a * b) + c) << d) < e) == f) & g) ^ h) | i) && j) || k)"),
    ("a < b == c > d != e", "(((a < b) == (c > d)) != e)"),
    ("a / b % c * d", "(((a / b) % c) * d)"),
])
def test_precedence_and_left_associativity(text, shape):
    def show(expr):
        if isinstance(expr, ast.BinOp):
            return f"({show(expr.left)} {expr.op} {show(expr.right)})"
        return expr.name
    program = Parser(f"int f() {{ return {text}; }}").parse_program()
    assert show(program.functions[0].body.stmts[0].value) == shape


# -- how much work an expression is ----------------------------------------


def _binary_calls(parser_class, source):
    calls = []

    class Counting(parser_class):
        def _parse_binary_expr(self, level):
            calls.append(level)
            return super()._parse_binary_expr(level)

    Counting(source).parse_program()
    return len(calls)


def test_one_binary_call_per_operand():
    source = "int f() { return 1 + 2 * 3; }"
    assert _binary_calls(Parser, source) == 3
    assert _binary_calls(ReferenceParser, source) == 14


@given(expressions)
def test_binary_calls_never_exceed_operands(text):
    source = f"int main() {{ x = {text}; }}"
    unary = []

    class Counting(Parser):
        def _parse_unary_expr(self):
            unary.append(1)
            return super()._parse_unary_expr()

    try:
        Counting(source).parse_program()
    except ParseError:
        return
    assert _binary_calls(Parser, source) <= len(unary)


def _nested(depth):
    return "int main() { return " + "(" * depth + "1" + ")" * depth + "; }\n"


def test_a_hundred_nested_parentheses_compile():
    """Seven host frames per level, where the descent took eighteen and
    gave up past 55."""
    compiled = compile_earthc(_nested(100), "deep.ec")
    assert "return 1;" in print_program(compiled.simple)
    with pytest.raises(RecursionError):
        ReferenceParser(_nested(100)).parse_program()


def test_three_thousand_are_still_the_structured_refusal():
    with pytest.raises(FrontendError, match="nest too deeply"):
        compile_earthc(_nested(3000), "deep.ec")
