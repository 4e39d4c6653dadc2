import pytest
from hypothesis import given
from hypothesis import strategies as st

from oseq.analysis import check_count_identities, check_sub_fibonacci
from oseq.enumerator import can_increment, count_table, iter_stems, iter_text
from oseq.macaulay import growth_bound, is_o_sequence

from helpers import brute_sequences, flat_window, stem_walk

# Computed three ways (window construction, recursion, composition filter
# with an extension-oracle bound); frozen here.
EXPECTED_O_1_20 = [1, 1, 2, 3, 5, 8, 12, 18, 27, 40,
                   57, 82, 116, 163, 227, 313, 428, 583, 788, 1059]
EXPECTED_A_1_6 = [0, 0, 1, 1, 2, 3]


def lines(d, last_gt_1=False):
    return "".join(iter_text(d, last_gt_1)).splitlines()


class TestSuccessors:
    """The two moves of count_table on a last-entry-above-1 sequence ending
    (..., a_{s-1}, a_s): append 2 always, increment a_s when
    ``can_increment(s, a_{s-1}, a_s)``."""

    def test_both_moves(self):
        assert can_increment(1, 1, 2)  # (1, 2) -> (1, 3)
        assert can_increment(2, 2, 2)  # (1, 2, 2) -> (1, 2, 3)

    def test_blocked_increment(self):
        # 3 at position 2 already saturates growth_bound(2, 1) = 3
        assert not can_increment(2, 2, 3)  # (1, 2, 3)
        # the growth bound out of value 2 at degree 2 is 2, so no increment
        assert not can_increment(3, 2, 2)  # (1, 2, 2, 2)

    def test_length_two_is_unconstrained(self):
        assert can_increment(1, 1, 9)  # (1, 9) -> (1, 10)

    @given(st.sampled_from([seq for d in range(3, 13)
                            for seq in brute_sequences(d) if seq[-1] > 1]))
    def test_children_are_valid(self, seq):
        children = [seq + (2,)]
        if can_increment(len(seq) - 1, seq[-2], seq[-1]):
            children.append(seq[:-1] + (seq[-1] + 1,))
        for delta, child in zip((2, 1), children):
            assert is_o_sequence(child)
            assert sum(child) == sum(seq) + delta
            assert child[-1] > 1

    @pytest.mark.parametrize("d", range(1, 13))
    def test_increment_matches_brute_force(self, d):
        # the oracle bounds growth by extension counting, not growth_bound
        above = set(brute_sequences(d + 1))
        for seq in brute_sequences(d):
            if len(seq) < 2:
                continue
            grown = seq[:-1] + (seq[-1] + 1,)
            assert can_increment(len(seq) - 1, seq[-2], seq[-1]) == (grown in above), seq


class TestIterNodes:
    """The depth-first stem walk: ``iter_stems``."""

    def test_d6(self):
        # 1,1,1,1,1,1 / 1,2,1,1,1 / 1,2,2,1 / 1,2,3 / 1,3,1,1 / 1,3,2 / 1,4,1 / 1,5
        assert list(iter_stems(6)) == [
            ((1,), 5), ((1, 2), 3), ((1, 2, 2), 1), ((1, 2, 3), 0),
            ((1, 3), 2), ((1, 3, 2), 0), ((1, 4), 1), ((1, 5), 0)]

    @pytest.mark.parametrize("d", range(1, 27))
    def test_stems_match_tuple_walk(self, d):
        assert list(iter_stems(d)) == list(stem_walk(d))

    @pytest.mark.parametrize("leaf_rest", [1, 2, 3, 5, 26])
    def test_leaf_rest_prunes_descendants(self, leaf_rest):
        # a stem keeps its place when no proper ancestor but the root has
        # rest <= leaf_rest; leaf_rest 1 is the default, which prunes nothing
        for d in range(1, 27):
            kept = [(stem, rest) for stem, rest in stem_walk(d)
                    if all(d - sum(stem[:j]) > leaf_rest for j in range(2, len(stem)))]
            assert list(iter_stems(d, leaf_rest)) == kept, d

    @pytest.mark.parametrize("d", [24, 32])
    def test_no_lookup_at_leaves(self, d):
        # a stem with rest < 2 has no child, so only the stems of mass at
        # most d - 2 other than the root look up their growth bound
        growth_bound.cache_clear()
        for _ in iter_stems(d):
            pass
        info = growth_bound.cache_info()
        assert info.hits + info.misses == count_table(d).O[d - 2] - 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next(iter_stems(0))


class TestIterLastGt1:
    """The listing of ``enumerate d --last-gt-1``: ``iter_text(d, True)``."""

    def test_small_buckets(self):
        assert lines(1, True) == []
        assert lines(2, True) == []
        assert lines(3, True) == ["1,2"]
        assert lines(4, True) == ["1,3"]
        assert lines(5, True) == ["1,2,2", "1,4"]

    @pytest.mark.parametrize("d", range(1, 13))
    def test_matches_brute_filter(self, d):
        expected = [",".join(map(str, seq)) for seq in brute_sequences(d) if seq[-1] > 1]
        assert lines(d, True) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            list(iter_text(0, True))


class TestIterAll:
    """The listing of ``enumerate d --all``: ``iter_text(d)``."""

    def test_d4(self):
        assert lines(4) == ["1,1,1,1", "1,2,1", "1,3"]

    def test_d6(self):
        assert lines(6) == [
            "1,1,1,1,1,1",
            "1,2,1,1,1",
            "1,2,2,1",
            "1,2,3",
            "1,3,1,1",
            "1,3,2",
            "1,4,1",
            "1,5",
        ]

    @pytest.mark.parametrize("d", range(1, 13))
    def test_matches_brute_filter(self, d):
        got = [tuple(map(int, line.split(","))) for line in lines(d)]
        assert got == list(brute_sequences(d))
        assert got == sorted(got)
        assert len(set(got)) == len(got)

    @pytest.mark.parametrize("d", [40, 200])
    def test_lazy(self, d):
        # the root line comes out before any block is built
        growth_bound.cache_clear()
        stream = iter_text(d)
        assert next(stream) == ",".join(["1"] * d) + "\n"
        info = growth_bound.cache_info()
        assert info.hits + info.misses == 0


class TestCountTable:
    def test_frozen_values(self):
        t = count_table(20)
        assert t.O[1:] == EXPECTED_O_1_20
        assert t.A[1:7] == EXPECTED_A_1_6

    def test_recurrence_and_consistency(self, table60):
        t = table60
        for d in range(2, 61):
            assert t.O[d] == t.O[d - 1] + t.A[d]
        # state counts against the depth-first listing: two separate paths
        for d in range(1, 23):
            assert t.A[d] == len(lines(d, True))
            assert t.O[d] == len(lines(d))

    def test_beyond_sixty(self, table60):
        t = count_table(100)
        assert check_count_identities(t).passed
        assert check_sub_fibonacci(t).passed
        assert t.O[:61] == table60.O
        assert t.A[:61] == table60.A

    def test_matches_flat_window(self):
        t = count_table(100)
        assert (t.O, t.A) == flat_window(100)

    def test_one_lookup_per_group(self):
        # the cap is looked up once per group (s, a_{s-1}) with s >= 2 and
        # step, not once per state (8 438 over the steps up to d = 42)
        growth_bound.cache_clear()
        count_table(42)
        info = growth_bound.cache_info()
        assert info.hits + info.misses == 2227

    def test_rows(self):
        t = count_table(3)
        assert list(t.rows()) == [(1, 1, 0), (2, 1, 0), (3, 2, 1)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_table(0)
