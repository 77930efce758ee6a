"""Goto elimination and inlining against the walks they replaced.

``reference_eliminate_gotos`` decides whether a function needs the
rewrite with one scan and then always runs the backward-goto check, a
second walk, and its sequence rewrite slices the tail after every
statement.  ``ReferenceInliner`` probes each expression node for eleven
attribute names.  The product passes must leave the same AST, node for
node and location for location (or refuse with the same text), over
the ten Olden programs, sixty generated ones, and every program in
``test_goto_elim.py`` and ``test_inline.py``.
"""

import ast as pyast
import itertools
import random
from pathlib import Path

import pytest

from repro.errors import TransformError
from repro.frontend import ast_nodes as ast
from repro.frontend.goto_elim import _FunctionRewriter, eliminate_gotos
from repro.frontend.inline import _EXPR_SLOTS, Inliner, inline_functions
from repro.frontend.parser import parse_program
from repro.olden.loader import catalog
from repro.workload import MIXES, SHAPES, generate_source
from tests.frontend.test_parser_reference import dump

# -- the references -----------------------------------------------------------


class ReferenceRewriter(_FunctionRewriter):

    def run(self, has_goto):
        self._check_no_backward_goto(self.func.body)
        super().run(has_goto=False)

    def _rewrite_seq(self, stmts, break_flag, cont_flag):
        result = []
        index = 0
        while index < len(stmts):
            stmt = stmts[index]
            rest = stmts[index + 1:]
            rewritten, escaped = self._rewrite_stmt(stmt, break_flag,
                                                    cont_flag)
            result.extend(rewritten)
            if escaped and rest:
                tail, still = self._guard_tail(rest, break_flag,
                                               cont_flag, escaped)
                result.extend(tail)
                return result, still
            if escaped:
                return result, escaped
            index += 1
        return result, set()


def reference_eliminate_gotos(program):
    serials = itertools.count(1)
    for func in program.functions:
        needs_rewrite = any(
            isinstance(node, (ast.Break, ast.Continue, ast.Goto, ast.For,
                              ast.While, ast.DoWhile))
            for node in ast.walk(func.body))
        if needs_rewrite:
            ReferenceRewriter(func, serials).run(has_goto=True)
    return program


class ReferenceInliner(Inliner):

    def _process_expr(self, expr, host, prelude):
        for name in ("left", "right", "operand", "pointer", "base",
                     "index", "cond", "then_value", "else_value",
                     "lhs", "rhs"):
            child = getattr(expr, name, None)
            if isinstance(child, ast.Expr):
                setattr(expr, name, self._process_expr(child, host,
                                                       prelude))
        if isinstance(expr, ast.Call):
            expr.args = [self._process_expr(arg, host, prelude)
                         for arg in expr.args]
            target = self.inlinable.get(expr.name)
            if target is not None and expr.placement is None \
                    and target.name != host:
                return self._inline_call(expr, target, prelude)
        return expr


def reference_inline_functions(program, only=None):
    inliner = ReferenceInliner(program, only=only)
    for _ in range(3):
        if inliner.run() == 0:
            break
    return inliner.inlined_calls


# -- the comparison -----------------------------------------------------------


def front(source, inline, goto_pass, inline_pass):
    """The AST after goto elimination and inlining, or the refusal."""
    program = parse_program(source, "front.ec")
    try:
        goto_pass(program)
    except TransformError as error:
        return ("TransformError", str(error))
    inlined = None
    if inline:
        inlined = inline_pass(
            program, only=inline if isinstance(inline, set) else None)
    return inlined, dump(program)


def assert_same_front(source, inline):
    got = front(source, inline, eliminate_gotos, inline_functions)
    assert got == front(source, inline, reference_eliminate_gotos,
                        reference_inline_functions)
    return got


def programs_in(module):
    """Every EARTH-C program spelled out whole in a test module (an
    f-string's pieces are not)."""
    tree = pyast.parse(Path(__file__).with_name(module).read_text())
    pieces = {id(piece) for node in pyast.walk(tree)
              if isinstance(node, pyast.JoinedStr) for piece in node.values}
    return [node.value for node in pyast.walk(tree)
            if isinstance(node, pyast.Constant) and id(node) not in pieces
            and isinstance(node.value, str) and "main(" in node.value]


@pytest.mark.parametrize("spec", catalog(), ids=lambda spec: spec.name)
def test_olden_front_end_is_the_reference(spec):
    assert_same_front(spec.source(), spec.inline or True)


@pytest.mark.parametrize("seed", range(60))
def test_generated_front_end_is_the_reference(seed):
    rng = random.Random(f"front-reference-{seed}")
    shape = SHAPES[seed % len(SHAPES)]
    mix = sorted(MIXES)[(seed // len(SHAPES)) % len(MIXES)]
    assert_same_front(generate_source(rng, shape, mix), True)


@pytest.mark.parametrize("module", ["test_goto_elim.py", "test_inline.py"])
def test_unit_test_programs_are_rewritten_like_the_reference(module):
    programs = programs_in(module)
    assert len(programs) > 15
    outcomes = [assert_same_front(source, True) for source in programs]
    if module == "test_goto_elim.py":
        assert any(out[0] == "TransformError" for out in outcomes)
    else:
        assert any(out[0] for out in outcomes), "something was inlined"


# -- the inliner's slot table ---------------------------------------------------


EVERY_EXPRESSION = """
struct t { int f; struct t *next; };
int g(int a, int b) { return a + b; }
int main() {
    int x; int a[4]; struct t s; struct t *p; double d; char c;
    x = -x + (x ? 1 : 2) * a[x] / sizeof(int);
    p = (struct t *) 0; x = *&x; x += s.f + p->f; d = 1.5; c = 'c';
    x++; ++x; printf("%d", g(x, 2) @ 1);
    return NULL;
}
"""


def expression_nodes(program):
    return [node for node in ast.walk(program)
            if isinstance(node, ast.Expr)]


def test_the_table_names_every_expression_class():
    classes = set()
    stack = [ast.Expr]
    while stack:
        for sub in stack.pop().__subclasses__():
            classes.add(sub)
            stack.append(sub)
    assert set(_EXPR_SLOTS) == classes


def test_every_sub_expression_slot_is_in_the_table():
    """Over every expression node of the programs above: a slot holding
    an expression is in its class's row, and a row's slot holds one."""
    sources = [EVERY_EXPRESSION] + [spec.source() for spec in catalog()]
    seen = set()
    for source in sources:
        for node in expression_nodes(parse_program(source)):
            cls = type(node)
            seen.add(cls)
            slots = [name for klass in cls.__mro__
                     for name in getattr(klass, "__slots__", ())
                     if hasattr(node, name)]
            holding = tuple(name for name in slots
                            if isinstance(getattr(node, name), ast.Expr))
            assert _EXPR_SLOTS[cls] == holding, cls.__name__
    assert seen == set(_EXPR_SLOTS), set(_EXPR_SLOTS) - seen
