from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oseq import macaulay
from oseq.macaulay import binomial, expand, growth_bound, is_o_sequence

from helpers import (
    all_decreasing_top_expansions,
    extension_bound,
    is_oseq_by_extension,
)


class TestBinomial:
    def test_conventions(self):
        assert binomial(3, 5) == 0
        assert binomial(5, -1) == 0
        assert binomial(0, 0) == 1
        assert binomial(7, 0) == 1
        assert binomial(5, 2) == 10
        assert binomial(-1, 0) == 0  # n < m under the convention

    def test_saturation(self):
        assert binomial(100, 50, cap=10) == 11
        assert binomial(5, 2, cap=10) == 10
        assert binomial(5, 2, cap=9) == 10  # exactly cap + 1 signals overflow
        assert binomial(5, 2, cap=100) == 10
        assert binomial(3, 5, cap=4) == 0

    # n <= 200 reaches both sides of the one-comb rule m * n.bit_length() <= 64
    @given(st.integers(0, 200), st.integers(0, 200), st.integers(0, 5000))
    def test_saturated_agrees_with_exact_below_cap(self, n, m, cap):
        got = binomial(n, m, cap=cap)
        exact = comb(n, m) if 0 <= m <= n else 0
        if exact <= cap:
            assert got == exact
        else:
            assert got == cap + 1

    def test_saturated_huge_arguments_never_form_the_coefficient(self, monkeypatch):
        def refuse(n, m):
            raise AssertionError(f"comb({n}, {m}) formed")

        monkeypatch.setattr(macaulay, "comb", refuse)
        assert binomial(10**6, 5 * 10**5, cap=10) == 11


class TestExpand:
    def test_examples(self):
        assert expand(4, 2) == (3, 1)
        assert expand(5, 1) == (5,)
        for t in range(1, 8):
            assert expand(1, t) == (t,)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            expand(0, 2)
        with pytest.raises(ValueError):
            expand(3, 0)

    @given(st.integers(1, 400), st.integers(1, 8))
    def test_reconstructs_value(self, a, t):
        tops = expand(a, t)
        total = sum(comb(top, t - i) for i, top in enumerate(tops))
        assert total == a
        assert list(tops) == sorted(tops, reverse=True)
        assert len(set(tops)) == len(tops)
        # lowest index stays >= 1
        assert t - (len(tops) - 1) >= 1

    def test_representation_is_unique(self):
        # exhaustive search over strictly-decreasing-tops representations
        for a in range(1, 60):
            for t in range(1, 7):
                reps = all_decreasing_top_expansions(a, t)
                assert len(reps) == 1, (a, t, reps)
                assert tuple(reps[0]) == expand(a, t)


class TestGrowthBound:
    def test_examples(self):
        assert growth_bound(4, 2) == 5
        assert growth_bound(2, 1) == 3
        for t in range(1, 9):
            assert growth_bound(1, t) == 1

    def test_matches_extension_oracle(self):
        for a in range(1, 8):
            for t in range(1, 5):
                assert growth_bound(a, t) == extension_bound(a, t), (a, t)

    def test_no_growth_at_or_below_the_degree(self):
        # Macaulay: a value a <= t at degree t can grow to at most a, which
        # is why iter_text keys a block by min(t, a_t) in place of t
        for t in range(1, 201):
            for a in range(1, t + 1):
                assert growth_bound(a, t) == a, (a, t)

    @given(st.integers(1, 200), st.integers(1, 8))
    def test_monotone_in_value(self, a, t):
        assert growth_bound(a, t) <= growth_bound(a + 1, t)


class TestIsOSequence:
    def test_accepted(self):
        assert is_o_sequence((1,))
        assert is_o_sequence((1, 1, 1, 1))
        assert is_o_sequence((1, 2, 2, 1))
        assert is_o_sequence((1, 3, 4, 5))
        assert is_o_sequence((1, 7))  # first step is unconstrained
        assert is_o_sequence([1, 2, 3])  # any sequence type
        assert is_o_sequence((1, True))  # a bool is an int

    def test_rejected(self):
        assert not is_o_sequence(())
        assert not is_o_sequence((2, 1))
        assert not is_o_sequence((1, 0))
        assert not is_o_sequence((1, 2, 4))  # 4 > growth_bound(2, 1) = 3
        assert not is_o_sequence((1, 2, 2, 4))  # 4 > growth_bound(2, 2) = 2 at the tail
        assert not is_o_sequence((1, 1.0, 1))  # non-integer entries
        assert not is_o_sequence((1, False))

    @given(st.lists(st.integers(1, 6), min_size=0, max_size=5))
    def test_agrees_with_extension_oracle(self, tail):
        seq = (1,) + tuple(tail)
        assert is_o_sequence(seq) == is_oseq_by_extension(seq)

    @given(st.lists(st.integers(1, 6), min_size=0, max_size=5))
    def test_prefix_closed(self, tail):
        seq = (1,) + tuple(tail)
        if is_o_sequence(seq):
            for cut in range(1, len(seq)):
                assert is_o_sequence(seq[:cut])
