"""Tuple algebra and blocking-decision tests."""

from repro.comm.optconfig import OptConfig
from repro.comm.tuples import CommSet, CommTuple
from repro.frontend.types import FieldPath


def t(base, field, freq, *labels):
    path = FieldPath.single(field) if field else None
    return CommTuple(base, path, freq, frozenset(labels))


class TestCommTuple:
    def test_single_constructor(self):
        tup = CommTuple.single("p", FieldPath.single("x"), 7)
        assert tup.freq == 1.0
        assert tup.dlist == frozenset({7})

    def test_key_distinguishes_fields(self):
        assert t("p", "x", 1, 1).key != t("p", "y", 1, 1).key
        assert t("p", "x", 1, 1).key == t("p", "x", 2, 9).key

    def test_deref_key(self):
        assert t("p", None, 1, 1).key == ("p", None)

    def test_merge_sums_and_unions(self):
        merged = t("p", "x", 1, 4).merged_with(t("p", "x", 10, 11))
        assert merged.freq == 11
        assert merged.dlist == frozenset({4, 11})

    def test_scaled(self):
        assert t("p", "x", 4, 1).scaled(0.5).freq == 2.0

    def test_repr_matches_paper_style(self):
        assert repr(t("t", "x", 11, 11, 4)) == "(t->x, 11, S4:S11)"


class TestCommSet:
    def test_add_merges_same_location(self):
        cs = CommSet()
        cs.add(t("p", "x", 1, 1))
        cs.add(t("p", "x", 1, 2))
        assert len(cs) == 1
        assert cs.get(("p", ("x",))).freq == 2

    def test_add_keeps_distinct_locations(self):
        cs = CommSet([t("p", "x", 1, 1), t("p", "y", 1, 2),
                      t("q", "x", 1, 3)])
        assert len(cs) == 3

    def test_copy_is_independent(self):
        cs = CommSet([t("p", "x", 1, 1)])
        copy = cs.copy()
        copy.add(t("p", "y", 1, 2))
        assert len(cs) == 1
        assert len(copy) == 2

    def test_contains_and_remove(self):
        cs = CommSet([t("p", "x", 1, 1)])
        assert ("p", ("x",)) in cs
        cs.remove(("p", ("x",)))
        assert ("p", ("x",)) not in cs


class TestCostModel:
    def test_threshold_of_three_accesses(self):
        model = OptConfig()
        # Two accesses pipeline (paper Fig 8's t group)...
        assert not model.should_block(2, 2.0, 4, 4, certain=True)
        # ...three block (Fig 8's p group).
        assert model.should_block(3, 3.0, 5, 5, certain=True)

    def test_expected_frequency_floor(self):
        model = OptConfig()
        # Five syntactic accesses but expected below the floor: the
        # block move would rarely pay for itself.
        assert not model.should_block(5, 1.5, 5, 7, certain=True)
        # The paper's sum_adjacent shape: 5 fields, expectation 2.0.
        assert model.should_block(5, 2.0, 5, 7, certain=True)

    def test_spurious_field_correction(self):
        model = OptConfig()
        # 3 needed words inside a giant 100-word struct: pipeline.
        assert not model.should_block(3, 3.0, 3, 100, certain=True)
        assert model.should_block(3, 3.0, 3, 12, certain=True)

    def test_zero_words_never_blocks(self):
        model = OptConfig()
        assert not model.should_block(5, 5.0, 0, 8, certain=True)

    def test_probabilistic_threshold_of_two(self):
        model = OptConfig(probabilistic=True)
        assert model.should_block(2, 2.0, 4, 4, certain=True)
        # Its expected-access floor is one, not two.
        assert model.should_block(2, 1.0, 4, 4, certain=True)
        assert not OptConfig().should_block(2, 2.0, 4, 4, certain=True)

    def test_only_probabilistic_blocks_uncertain_accesses(self):
        # Four half-likely branch arms: legacy needs a certain access,
        # the probabilistic floor of one expected access does not.
        assert OptConfig().should_block(4, 2.0, 4, 4, certain=True)
        assert not OptConfig().should_block(4, 2.0, 4, 4, certain=False)
        model = OptConfig(probabilistic=True)
        assert model.should_block(4, 2.0, 4, 4, certain=False)
        assert model.should_block(3, 1.5, 3, 3, certain=False)
        assert not model.should_block(3, 0.75, 3, 3, certain=False)
