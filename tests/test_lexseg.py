from itertools import islice

import pytest

from oseq.analysis import check_oracle_grid
from oseq.counting import count_restricted
from oseq.lexseg import (
    OrderIdeal,
    ParameterTooLargeError,
    _admissible,
    _cells,
    decompose,
    exhaustive_count,
    sous_escalier,
    term_str,
    terms_of_degree,
)
from oseq.macaulay import binomial

from helpers import (
    Classification,
    brute_sequences,
    cellwise_exhaustive_count,
    classify,
    first_lex_terms,
    is_closed,
)


class TestTermOrder:
    def test_degree_terms_in_two_vars(self):
        assert list(terms_of_degree(2, 2)) == [(2, 0), (1, 1), (0, 2)]

    def test_degree_terms_in_one_var(self):
        assert list(terms_of_degree(3, 1)) == [(3,)]

    @pytest.mark.parametrize("t,p", [(t, p) for t in range(0, 6) for p in range(1, 5)])
    def test_generation_order_and_count(self, t, p):
        terms = list(terms_of_degree(t, p))
        assert len(terms) == binomial(p - 1 + t, t)
        assert len(set(terms)) == len(terms)
        assert terms == sorted(terms, key=lambda m: m[::-1])
        assert terms == first_lex_terms(t, p, len(terms))

    def test_no_variable_raises_and_negative_degree_is_empty(self):
        with pytest.raises(ValueError, match="p=0"):
            next(terms_of_degree(2, 0))
        assert list(terms_of_degree(-1, 2)) == []

    def test_smallest_term_is_first_variable_power(self):
        for t in range(1, 5):
            assert next(terms_of_degree(t, 3)) == (t, 0, 0)

    def test_many_variables_without_recursion(self):
        # p is far beyond the interpreter's recursion limit; only three of
        # the C(1501, 2) terms are generated
        rest = (0,) * 1498
        assert list(islice(terms_of_degree(2, 1500), 3)) == [
            (2, 0) + rest, (1, 1) + rest, (0, 2) + rest,
        ]

    def test_term_str(self):
        assert term_str((0, 0)) == "1"
        assert term_str((2, 1)) == "x1^2*x2"
        assert term_str((0, 1)) == "x2"


class TestSousEscalier:
    def test_small_examples(self):
        assert sous_escalier((1, 2), 2).terms == {(0, 0), (1, 0), (0, 1)}
        assert sous_escalier((1, 2, 1), 2).terms == {(0, 0), (1, 0), (0, 1), (2, 0)}
        assert sous_escalier((1, 2, 2), 2).terms == {
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
        }

    def test_rejects_non_o_sequence(self):
        with pytest.raises(ValueError):
            sous_escalier((1, 2, 4), 2)

    def test_rejects_unrealizable_entry(self):
        with pytest.raises(ValueError):
            sous_escalier((1, 3), 2)

    def test_degree_counts_round_trip_and_closure(self):
        # every O-sequence of multiplicity <= 10, seen in a_1 and a_1 + 1 vars
        for d in range(1, 11):
            for h in brute_sequences(d):
                a1 = h[1] if len(h) > 1 else 1
                for p in (a1, a1 + 1):
                    ideal = sous_escalier(h, p)
                    assert ideal.degree_counts == h
                    assert ideal.multiplicity == d
                    assert is_closed(ideal), (h, p)

    def test_is_closed_detects_gaps(self):
        broken = OrderIdeal(p=2, terms=frozenset({(0, 0), (2, 0)}))
        assert not is_closed(broken)

    def test_order_ideal_validation(self):
        with pytest.raises(ValueError):
            OrderIdeal(p=2, terms=frozenset({(1, 0, 0)}))
        with pytest.raises(ValueError):
            OrderIdeal(p=2, terms=frozenset({(-1, 0)}))

    def test_empty_ideal_has_no_degree_counts(self):
        assert OrderIdeal(p=2, terms=frozenset()).degree_counts == ()


class TestClassify:
    def test_examples(self):
        assert classify(sous_escalier((1, 2, 2), 2)) == Classification(2, 1, 5)
        assert classify(sous_escalier((1, 1, 1), 1)) == Classification(2, 2, 3)
        assert classify(sous_escalier((1, 2, 1), 2)) == Classification(2, 1, 4)

    def test_prefix_zero_when_degree_one_is_short(self):
        assert classify(sous_escalier((1, 1), 2)).max_prefix == 0

    def test_classify_rejects_empty(self):
        with pytest.raises(ValueError):
            classify(OrderIdeal(p=2, terms=frozenset()))


class TestDecompose:
    def test_example(self):
        m1, m2 = decompose(sous_escalier((1, 2, 2), 2))
        assert m1.p == 1 and m1.terms == {(0,), (1,), (2,)}
        assert m2.p == 2 and m2.terms == {(0, 0), (1, 0)}

    def test_needs_two_variables(self):
        with pytest.raises(ValueError):
            decompose(sous_escalier((1, 1, 1), 1))

    def test_multiplicity_additivity(self):
        for d in range(1, 10):
            for h in brute_sequences(d):
                a1 = h[1] if len(h) > 1 else 1
                p = max(a1, 2)
                ideal = sous_escalier(h, p)
                m1, m2 = decompose(ideal)
                assert m1.multiplicity + m2.multiplicity == d
                assert is_closed(m1) and is_closed(m2)

    def test_split_structure_and_recomposition(self):
        # for every class with prefix k >= 1: the two parts are again
        # lex-segment sous-escaliers with the expected classification, and
        # reassembling them restores the original term set exactly
        for p in (2, 3):
            for d in range(1, 9):
                for h in brute_sequences(d):
                    if len(h) > 1 and h[1] > p:
                        continue
                    ideal = sous_escalier(h, p)
                    s, k, mult = classify(ideal)
                    if k < 1:
                        continue
                    m1, m2 = decompose(ideal)
                    c1 = classify(m1)
                    c2 = classify(m2)
                    j = m2.multiplicity
                    assert 1 <= j <= d - 1
                    assert c1.multiplicity == d - j
                    assert c1.max_prefix >= k
                    assert c1.socle_degree <= s
                    assert c2.max_prefix == k - 1
                    assert c2.socle_degree <= c1.max_prefix - 1
                    # the parts are themselves lex segments for their counts
                    assert sous_escalier(m1.degree_counts, m1.p).terms == m1.terms
                    assert sous_escalier(m2.degree_counts, m2.p).terms == m2.terms
                    rebuilt = {t + (0,) for t in m1.terms} | {
                        t[:-1] + (t[-1] + 1,) for t in m2.terms
                    }
                    assert rebuilt == ideal.terms

    def test_class_sizes_match_recursive_counts(self):
        # objects grouped by prefix length against the recursion, socle free
        for p in (2, 3):
            for d in range(1, 9):
                by_k: dict[int, int] = {}
                for h in brute_sequences(d):
                    if len(h) > 1 and h[1] > p:
                        continue
                    k = classify(sous_escalier(h, p)).max_prefix
                    by_k[k] = by_k.get(k, 0) + 1
                for k in range(0, d):
                    assert by_k.get(k, 0) == count_restricted(p, d - 1, k, d), (p, d, k)


class TestExhaustiveCount:
    def test_examples(self):
        assert exhaustive_count(3, 2, 0, 3) == 2
        assert exhaustive_count(1, 5, 2, 3) == 1
        assert exhaustive_count(2, 2, 1, 3) == 1
        assert exhaustive_count(2, 1, 1, 4) == 0

    def test_degenerate(self):
        assert exhaustive_count(2, 0, 0, 1) == 1
        assert exhaustive_count(2, 3, 1, 0) == 0

    @pytest.mark.parametrize("d", range(-1, 13))
    def test_matches_cellwise_filter(self, d):
        # the whole allowed grid, with p, n and k below their domains too,
        # and k past the grid's last column, where no prefix fits
        for p in range(-1, 5):
            for n in range(-1, 9):
                for k in [*range(-1, 10), 12]:
                    assert exhaustive_count(p, n, k, d) == cellwise_exhaustive_count(
                        p, n, k, d), (p, n, k, d)
                for k in (9, 12):
                    assert exhaustive_count(p, n, k, d) == 0, (p, n, k, d)

    def test_one_classification_per_p_d(self):
        _admissible.cache_clear()
        _cells.cache_clear()
        assert check_oracle_grid(10).passed
        info = _cells.cache_info()
        # 4 values of p times 10 of d, each with 45 (n, k) cells
        assert (info.misses, info.hits) == (40, 1760)

    def test_guard(self):
        with pytest.raises(ParameterTooLargeError):
            exhaustive_count(5, 2, 0, 3)
        with pytest.raises(ParameterTooLargeError):
            exhaustive_count(2, 9, 0, 3)
        with pytest.raises(ParameterTooLargeError):
            exhaustive_count(2, 2, 0, 13)
