"""``Stmt.walk`` is one generator frame with an explicit stack; the
recursive definition it replaced lives here as the reference."""

import sys

import pytest

from repro.comm.optconfig import OPT_PRESETS
from repro.comm.optimizer import CommConfig
from repro.harness.pipeline import compile_earthc
from repro.olden.loader import catalog
from repro.simple import nodes as s


def reference_walk(stmt):
    """``walk`` as it was at ``84436ca``: one generator per statement,
    every descendant re-yielded through each enclosing frame."""
    yield stmt
    for child in stmt.children():
        yield from reference_walk(child)


@pytest.mark.parametrize("preset", OPT_PRESETS)
@pytest.mark.parametrize("spec", catalog(), ids=lambda spec: spec.name)
def test_walk_yields_the_reference_sequence(spec, preset):
    program = compile_earthc(spec.source(), spec.filename, optimize=True,
                             inline=spec.inline,
                             config=CommConfig(opt=preset)).simple
    compound = 0
    for function in program.functions.values():
        walked = list(function.body.walk())
        assert [id(stmt) for stmt in walked] == \
            [id(stmt) for stmt in reference_walk(function.body)]
        assert list(function.body.basic_stmts()) == \
            [stmt for stmt in walked if isinstance(stmt, s.BasicStmt)]
        compound += sum(not isinstance(stmt, (s.BasicStmt, s.SeqStmt))
                        for stmt in walked)
    assert compound    # every program nests something


def _nest(depth):
    """``depth`` whiles around one statement, built bottom-up."""
    seq = s.SeqStmt([s.NopStmt()])
    for _ in range(depth):
        seq = s.SeqStmt([s.WhileStmt(s.CondExpr(s.Const(1)), seq)])
    return seq


def test_a_walk_is_one_generator_frame():
    """However deep the tree, the only `walk` frame a profiler sees is
    the one the caller holds (the reference has one per level)."""
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

    tree = _nest(40)       # the reference's 80 frames are live at once
    assert frames(s.Stmt.walk, tree) == 1
    assert frames(reference_walk, tree) > 40


def test_walk_outlives_the_host_stack():
    """A side effect of having no recursion: depth costs nothing."""
    depth = sys.getrecursionlimit() * 2
    assert sum(1 for _ in _nest(depth).walk()) == 2 * depth + 2
    with pytest.raises(RecursionError):
        sum(1 for _ in reference_walk(_nest(depth)))


@pytest.mark.parametrize("walk", [s.Stmt.walk, reference_walk])
def test_children_are_read_after_the_parent_is_yielded(walk):
    """What the recursive form did, and what a caller that rewrites the
    statement it was just handed relies on."""
    first, second, extra = s.NopStmt(), s.NopStmt(), s.NopStmt()
    seq = s.SeqStmt([first, second])
    seen = []
    for stmt in walk(seq):
        if stmt is seq:
            seq.stmts.append(extra)     # before any child is visited
        if stmt is first:
            seq.stmts.remove(second)    # after the snapshot was taken
        seen.append(stmt)
    assert seen == [seq, first, second, extra]
