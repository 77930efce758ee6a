"""Property-based tests on core data structures and small algorithms."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.tuples import CommSet, CommTuple
from repro.earth.interpreter import _c_div, _c_mod
from repro.earth.memory import GlobalMemory, node_of, offset_of
from repro.analysis.rw_sets import keys_overlap
from repro.frontend.lexer import tokenize
from repro.frontend.types import DOUBLE, INT, FieldPath, StructType

FAST = settings(max_examples=200, deadline=None)

# ---------------------------------------------------------------------------
# C integer division / modulo
# ---------------------------------------------------------------------------

nonzero = st.integers(-1000, 1000).filter(lambda x: x != 0)


@FAST
@given(st.integers(-1000, 1000), nonzero)
def test_c_division_identity(a, b):
    assert _c_div(a, b) * b + _c_mod(a, b) == a


@FAST
@given(st.integers(-1000, 1000), nonzero)
def test_c_division_truncates_toward_zero(a, b):
    q = _c_div(a, b)
    assert abs(q) == abs(a) // abs(b)


@FAST
@given(st.integers(-1000, 1000), nonzero)
def test_c_mod_sign_follows_dividend(a, b):
    r = _c_mod(a, b)
    assert r == 0 or (r > 0) == (a > 0)
    assert abs(r) < abs(b)


# ---------------------------------------------------------------------------
# CommSet algebra
# ---------------------------------------------------------------------------

tuples = st.builds(
    CommTuple,
    base=st.sampled_from(["p", "q", "t"]),
    path=st.sampled_from([FieldPath.single("x"), FieldPath.single("y"),
                          None]),
    freq=st.floats(0.25, 16.0),
    dlist=st.frozensets(st.integers(1, 20), min_size=1, max_size=3),
)


@FAST
@given(st.lists(tuples, max_size=8))
def test_commset_insertion_order_independent_content(items):
    forward = CommSet(items)
    backward = CommSet(reversed(items))
    assert set(forward.keys()) == set(backward.keys())
    for key in forward.keys():
        a, b = forward.get(key), backward.get(key)
        assert a.dlist == b.dlist
        assert abs(a.freq - b.freq) < 1e-9


@FAST
@given(st.lists(tuples, max_size=8))
def test_commset_totals_preserved(items):
    merged = CommSet(items)
    total_in = sum(t.freq for t in items)
    total_out = sum(t.freq for t in merged)
    assert abs(total_in - total_out) < 1e-9
    labels_in = set().union(*[t.dlist for t in items]) if items else set()
    labels_out = set().union(*[t.dlist for t in merged]) if items \
        else set()
    assert labels_in == labels_out


@FAST
@given(tuples, st.floats(0.1, 10.0))
def test_scaling_preserves_dlist(tup, factor):
    scaled = tup.scaled(factor)
    assert scaled.dlist == tup.dlist
    assert scaled.key == tup.key


# ---------------------------------------------------------------------------
# Field-key overlap
# ---------------------------------------------------------------------------

keys = st.one_of(
    st.just(("*",)),
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
             max_size=3).map(tuple),
)


@FAST
@given(keys, keys)
def test_overlap_symmetric(a, b):
    assert keys_overlap(a, b) == keys_overlap(b, a)


@FAST
@given(keys)
def test_overlap_reflexive(a):
    assert keys_overlap(a, a)


@FAST
@given(keys, keys)
def test_prefix_implies_overlap(a, b):
    if len(a) <= len(b) and b[:len(a)] == a:
        assert keys_overlap(a, b)


# ---------------------------------------------------------------------------
# Memory allocator
# ---------------------------------------------------------------------------


@FAST
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 16)),
                min_size=1, max_size=30))
def test_allocations_disjoint_and_node_correct(requests):
    memory = GlobalMemory(4)
    ranges = []
    for node, words in requests:
        address = memory.allocate(node, words)
        assert node_of(address) == node
        assert address != 0
        ranges.append((node, offset_of(address), words))
    by_node = {}
    for node, offset, words in ranges:
        for existing_offset, existing_words in by_node.get(node, []):
            assert offset + words <= existing_offset \
                or existing_offset + existing_words <= offset
        by_node.setdefault(node, []).append((offset, words))


# ---------------------------------------------------------------------------
# Lexer round-trip
# ---------------------------------------------------------------------------

identifier = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda text: text not in {
        "int", "double", "float", "char", "void", "struct", "if", "else",
        "while", "do", "for", "forall", "switch", "case", "default",
        "return", "break", "continue", "goto", "sizeof", "shared",
        "local",
    })


@FAST
@given(st.lists(st.one_of(identifier,
                          st.integers(0, 10**6).map(str)),
                min_size=1, max_size=10))
def test_lexer_roundtrips_token_spellings(parts):
    source = " ".join(parts)
    tokens = tokenize(source)
    assert tokens.texts[:-1] == parts
    assert tokens.kinds[:-1] == [
        "int" if part[0].isdigit() else "id" for part in parts]


# ---------------------------------------------------------------------------
# Struct layout
# ---------------------------------------------------------------------------


@FAST
@given(st.lists(st.sampled_from([INT, DOUBLE]), min_size=1, max_size=8))
def test_struct_layout_offsets_monotone_and_total(field_types):
    struct = StructType("s")
    struct.define([(f"f{i}", t) for i, t in enumerate(field_types)])
    offsets = [struct.field(f"f{i}").offset_words
               for i in range(len(field_types))]
    assert offsets == sorted(offsets)
    assert struct.size_words() == sum(t.size_words() for t in field_types)
    # Offsets and widths tile the struct exactly.
    covered = sum(struct.field(f"f{i}").type.size_words()
                  for i in range(len(field_types)))
    assert covered == struct.size_words()
