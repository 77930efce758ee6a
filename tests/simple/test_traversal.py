"""Traversal/rewriting utility tests."""

import pytest

from repro.errors import TransformError
from repro.frontend.types import INT, FieldPath
from repro.simple import nodes as s
from repro.simple.traversal import (
    basic_defs,
    basic_uses,
    clone_stmt,
    insert_after,
    insert_before,
)


def assign(dst, src):
    return s.AssignStmt(s.VarLV(dst), s.OperandRhs(s.VarUse(src)))


class TestUseDef:
    def test_assign_uses_and_defs(self):
        stmt = s.AssignStmt(s.VarLV("x"),
                            s.BinaryRhs("+", s.VarUse("a"), s.VarUse("b")))
        assert basic_uses(stmt) == {"a", "b"}
        assert basic_defs(stmt) == {"x"}

    def test_store_uses_base_pointer(self):
        stmt = s.AssignStmt(s.FieldWriteLV("p", FieldPath.single("v"),
                                           True),
                            s.OperandRhs(s.VarUse("y")))
        assert basic_uses(stmt) == {"p", "y"}
        assert basic_defs(stmt) == set()

    def test_struct_field_write_partially_defines(self):
        stmt = s.AssignStmt(s.StructFieldWriteLV("buf",
                                                 FieldPath.single("x")),
                            s.OperandRhs(s.Const(1)))
        assert "buf" in basic_defs(stmt)

    def test_call_uses_args_and_placement(self):
        stmt = s.CallStmt("r", "f", [s.VarUse("a")],
                          placement=("owner_of", "p"))
        assert basic_uses(stmt) == {"a", "p"}
        assert basic_defs(stmt) == {"r"}

    def test_blkmov_uses_and_defs(self):
        stmt = s.BlkmovStmt(("ptr", "p", 0), ("local", "buf", 0), 4)
        assert "p" in basic_uses(stmt)
        assert basic_defs(stmt) == {"buf"}

    def test_return_uses_value(self):
        assert basic_uses(s.ReturnStmt(s.VarUse("x"))) == {"x"}
        assert basic_uses(s.ReturnStmt(None)) == set()


class TestSplicing:
    def test_insert_before_and_after(self):
        a, b = assign("a", "z"), assign("b", "z")
        seq = s.SeqStmt([a, b])
        new = assign("m", "z")
        insert_before(seq, b, [new])
        assert seq.stmts == [a, new, b]
        new2 = assign("n", "z")
        insert_after(seq, b, [new2])
        assert seq.stmts == [a, new, b, new2]

    def test_missing_target_raises(self):
        seq = s.SeqStmt([assign("a", "z")])
        with pytest.raises(TransformError):
            insert_before(seq, assign("b", "z"), [])


class TestClone:
    def test_clone_gets_fresh_labels(self):
        original = s.SeqStmt([assign("a", "z")])
        mapping = {}
        copy = clone_stmt(original, mapping)
        assert copy is not original
        assert copy.label != original.label
        assert mapping[original.label] == copy.label
        assert mapping[original.stmts[0].label] == copy.stmts[0].label

    def test_clone_is_deep(self):
        inner = assign("a", "z")
        original = s.SeqStmt([inner])
        copy = clone_stmt(original)
        copy.stmts[0].lhs = s.VarLV("changed")
        assert inner.lhs.name == "a"

    def test_clone_preserves_split_phase(self):
        stmt = s.AssignStmt(s.VarLV("x"),
                            s.FieldReadRhs("p", FieldPath.single("v"),
                                           True),
                            split_phase=True)
        copy = clone_stmt(stmt)
        assert copy.split_phase

    def test_clone_compound(self):
        loop = s.DoStmt(s.SeqStmt([assign("a", "b")]),
                        s.CondExpr(s.VarUse("a"), "<", s.Const(3)))
        copy = clone_stmt(loop)
        assert isinstance(copy, s.DoStmt)
        assert copy.cond.op == "<"
        assert copy.body.stmts[0].lhs.name == "a"

    def test_clone_forall_and_par(self):
        forall = s.ForallStmt(s.SeqStmt([]), s.CondExpr(s.Const(1)),
                              s.SeqStmt([]), s.SeqStmt([assign("x", "y")]))
        par = s.ParStmt([s.SeqStmt([assign("a", "b")]),
                         s.SeqStmt([assign("c", "d")])])
        assert isinstance(clone_stmt(forall), s.ForallStmt)
        cloned_par = clone_stmt(par)
        assert isinstance(cloned_par, s.ParStmt)
        assert len(cloned_par.branches) == 2
