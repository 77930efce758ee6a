"""Type system unit tests."""

import pytest

from repro.errors import TypeError_
from repro.frontend.types import (
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    VOID,
    ArrayType,
    FieldPath,
    FunctionType,
    PointerType,
    ScalarType,
    StructType,
    common_numeric_type,
    is_assignable,
)


class TestScalars:
    def test_word_sizes(self):
        assert INT.size_words() == 1
        assert CHAR.size_words() == 1
        assert FLOAT.size_words() == 1
        assert DOUBLE.size_words() == 2
        assert VOID.size_words() == 0

    def test_predicates(self):
        assert INT.is_integral
        assert not DOUBLE.is_integral
        assert VOID.is_void and not VOID.is_numeric
        assert INT.is_numeric

    def test_equality_and_hash(self):
        assert ScalarType("int") == INT
        assert hash(ScalarType("int")) == hash(INT)
        assert INT != DOUBLE

    def test_unknown_kind_rejected(self):
        with pytest.raises(TypeError_):
            ScalarType("quux")


class TestPointers:
    def test_pointer_is_one_word(self):
        assert PointerType(DOUBLE).size_words() == 1

    def test_local_qualifier(self):
        p = PointerType(INT)
        assert not p.is_local
        assert p.as_local().is_local

    def test_locality_does_not_affect_assignability(self):
        struct = StructType("s")
        struct.define([("x", INT)])
        plain = PointerType(struct)
        local = plain.as_local()
        assert is_assignable(plain, local)
        assert is_assignable(local, plain)

    def test_null_assignable(self):
        assert is_assignable(PointerType(INT), INT)

    def test_void_star_wildcard_both_ways(self):
        struct = StructType("t")
        struct.define([("x", INT)])
        void_ptr = PointerType(VOID)
        typed = PointerType(struct)
        assert is_assignable(typed, void_ptr)
        assert is_assignable(void_ptr, typed)


class TestStructs:
    def test_layout(self):
        struct = StructType("mix")
        struct.define([("a", INT), ("b", DOUBLE), ("c", CHAR)])
        assert struct.field("a").offset_words == 0
        assert struct.field("b").offset_words == 1
        assert struct.field("c").offset_words == 3
        assert struct.size_words() == 4

    def test_incomplete_struct_sizeof_rejected(self):
        struct = StructType("later")
        with pytest.raises(TypeError_):
            struct.size_words()

    def test_redefinition_rejected(self):
        struct = StructType("once")
        struct.define([("x", INT)])
        with pytest.raises(TypeError_):
            struct.define([("y", INT)])

    def test_duplicate_field_rejected(self):
        struct = StructType("dup")
        with pytest.raises(TypeError_):
            struct.define([("x", INT), ("x", INT)])

    def test_nested_struct_field(self):
        inner = StructType("inner")
        inner.define([("a", DOUBLE)])
        outer = StructType("outer")
        outer.define([("tag", INT), ("payload", inner)])
        assert outer.size_words() == 3
        offset, ftype = FieldPath.parse("payload.a").resolve(outer)
        assert offset == 1
        assert ftype is DOUBLE

    def test_incomplete_field_rejected(self):
        pending = StructType("pending")
        outer = StructType("holder")
        with pytest.raises(TypeError_):
            outer.define([("inner", pending)])

    def test_identity_by_name(self):
        a = StructType("same")
        b = StructType("same")
        assert a == b


class TestArraysAndFunctions:
    def test_array_size(self):
        assert ArrayType(DOUBLE, 4).size_words() == 8

    def test_array_of_pointers(self):
        assert ArrayType(PointerType(INT), 5).size_words() == 5

    def test_nonpositive_length_rejected(self):
        with pytest.raises(TypeError_):
            ArrayType(INT, 0)

    def test_function_type_equality(self):
        f = FunctionType(INT, [DOUBLE])
        g = FunctionType(INT, [DOUBLE])
        assert f == g
        with pytest.raises(TypeError_):
            f.size_words()


class TestConversions:
    @pytest.mark.parametrize("left,right,expected", [
        (INT, INT, "int"),
        (INT, DOUBLE, "double"),
        (FLOAT, INT, "float"),
        (CHAR, CHAR, "int"),  # chars promote
        (DOUBLE, FLOAT, "double"),
    ])
    def test_common_numeric(self, left, right, expected):
        assert common_numeric_type(left, right).kind == expected

    def test_common_numeric_rejects_pointers(self):
        with pytest.raises(TypeError_):
            common_numeric_type(INT, PointerType(INT))

    def test_field_path_parse_and_str(self):
        path = FieldPath.parse("a.b.c")
        assert list(path) == ["a", "b", "c"]
        assert str(path) == "a.b.c"
        assert path == FieldPath(("a", "b", "c"))

    def test_empty_field_path_rejected(self):
        with pytest.raises(TypeError_):
            FieldPath(())
