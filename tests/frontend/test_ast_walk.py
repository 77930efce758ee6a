"""``ast_nodes.walk`` is one generator frame with an explicit stack; the
recursive definition it replaced lives here as the reference."""

import random
import sys

import pytest

from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse_program
from repro.olden.loader import catalog
from repro.workload import MIXES, SHAPES, generate_source


def reference_walk(node):
    """``walk`` as it was: one generator per node, every descendant
    re-yielded through each enclosing frame."""
    yield node
    for child in node.children():
        yield from reference_walk(child)


def _assert_reference_sequence(program):
    walked = list(ast.walk(program))
    assert [id(node) for node in walked] == \
        [id(node) for node in reference_walk(program)]
    assert any(isinstance(node, ast.Stmt) for node in walked)


@pytest.mark.parametrize("spec", catalog(), ids=lambda spec: spec.name)
def test_olden_asts(spec):
    _assert_reference_sequence(parse_program(spec.source(), spec.filename))


@pytest.mark.parametrize("seed", range(60))
def test_generated_asts(seed):
    rng = random.Random(f"ast-walk-{seed}")
    shape = SHAPES[seed % len(SHAPES)]
    mix = sorted(MIXES)[(seed // len(SHAPES)) % len(MIXES)]
    _assert_reference_sequence(parse_program(generate_source(rng, shape,
                                                             mix)))


def _nest(depth):
    """``depth`` negations around one literal, built bottom-up."""
    expr = ast.IntLit(1)
    for _ in range(depth):
        expr = ast.UnOp("-", expr)
    return expr


def test_a_walk_is_one_generator_frame():
    def frames(walk, tree):
        seen = set()

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code.co_name in (
                    "walk", "reference_walk"):
                seen.add(id(frame))
        sys.setprofile(profiler)
        try:
            for _ in walk(tree):
                pass
        finally:
            sys.setprofile(None)
        return len(seen)

    tree = _nest(40)
    assert frames(ast.walk, tree) == 1
    assert frames(reference_walk, tree) > 40


def test_walk_outlives_the_host_stack():
    depth = sys.getrecursionlimit() * 2
    assert sum(1 for _ in ast.walk(_nest(depth))) == depth + 1
    with pytest.raises(RecursionError):
        sum(1 for _ in reference_walk(_nest(depth)))


@pytest.mark.parametrize("walk", [ast.walk, reference_walk])
def test_children_are_read_after_the_parent_is_yielded(walk):
    """What the recursive form did, and what a caller that rewrites the
    node it was just handed relies on (goto elimination, inlining)."""
    first, second, extra = (ast.ExprStmt(ast.IntLit(n)) for n in (1, 2, 3))
    block = ast.Block([first, second])
    seen = []
    for node in walk(block):
        if node is block:
            block.stmts.append(extra)     # before any child is visited
        if node is first:
            block.stmts.remove(second)    # after the snapshot was taken
        seen.append(node)
    assert [node for node in seen if isinstance(node, ast.ExprStmt)] \
        == [first, second, extra]
