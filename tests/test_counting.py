import json
import re
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseq import counting
from oseq.counting import (
    CacheFormatError,
    CountCache,
    count_restricted,
    count_via_formula,
    load_cache,
    save_cache,
)
from oseq.enumerator import count_table
from oseq.lexseg import exhaustive_count

from helpers import (
    brute_sequences,
    emptiness_rule,
    full_grid_summands,
    normal,
    reference_count,
    strict_line_loop,
    two_variable_count,
)

DATA = Path(__file__).parent / "data"
HEADER = "# oseq-memo v1\n"


def memo_start_cache() -> CountCache:
    """The keys of the memo benchmark's starting file: every
    count_restricted(p, d - 1, k, d) for d = 4..30, p = 2..5, k = 0..2."""
    cache = CountCache()
    for d in range(4, 31):
        for p in range(2, 6):
            for k in range(3):
                count_restricted(p, d - 1, k, d, cache)
    return cache


# the recursion's two-variable count summed over prefix lengths, for
# d = 1..12, frozen from the constrained enumeration oracle (all
# O-sequences with a_1 <= 2)
EXPECTED_TWO_VAR = [1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15]


class TestCountRestricted:
    def test_single_variable_cases(self):
        assert count_restricted(1, 5, 2, 3) == 1
        assert count_restricted(1, 1, 2, 3) == 0  # socle bound excludes (1,1,1)

    def test_prefix_split_cases(self):
        assert count_restricted(3, 2, 0, 3) == 2
        assert count_restricted(2, 2, 1, 3) == 1
        # was tentatively 1 upstream; the exhaustive oracle settles it as 0
        assert count_restricted(2, 1, 1, 4) == 0

    def test_out_of_domain_is_zero(self):
        assert count_restricted(2, 3, 4, 5) == 0  # k > n
        assert count_restricted(2, 1, 2, 9) == 0  # k > n
        assert count_restricted(2, 3, 1, 0) == 0
        assert count_restricted(0, 3, 1, 4) == 0
        assert count_restricted(2, -1, 0, 4) == 0
        assert count_restricted(2, 3, -1, 4) == 0

    def test_forced_prefix_mass_guard(self):
        # prefix of length 2 in 3 variables already sums 1 + 3 + 6 = 10 > 9
        assert count_restricted(3, 5, 2, 9) == 0
        assert count_restricted(3, 5, 2, 10) > 0

    def test_oracle_grid(self):
        cache = CountCache()
        for p in range(1, 4):
            for n in range(0, 7):
                for k in range(0, 4):
                    for d in range(1, 9):
                        assert count_restricted(p, n, k, d, cache) == \
                            exhaustive_count(p, n, k, d), (p, n, k, d)

    def test_normalized_keys_are_true_facts(self):
        # n beyond d - 1 never matters; p beyond d never matters when k = 0
        for d in range(1, 9):
            for p in range(1, 5):
                for k in range(0, d):
                    assert count_restricted(p, d - 1, k, d) == \
                        count_restricted(p, d + 7, k, d)
            assert count_restricted(d, d - 1, 0, d) == \
                count_restricted(d + 5, d - 1, 0, d)

    def test_count_depends_on_the_mass_past_the_prefix(self):
        # cells, not totals: every nonempty key with d <= 24 counts as its
        # normal form, which lowers p for 3 249 of the 8 559 keys
        cache = CountCache()
        keys = {counting._resolve(p, n, k, d) for d in range(1, 25)
                for p in range(2, d + 1) for n in range(d) for k in range(n + 1)}
        keys = {key for key in keys if isinstance(key, tuple)}
        lowered = 0
        for key in keys:
            short = normal(*key)
            assert count_restricted(*key, cache) == count_restricted(*short, cache), key
            lowered += short[0] < key[0]
        assert (len(keys), lowered) == (8559, 3249)

    def test_all_ones_base_case(self):
        for d in range(1, 10):
            assert count_restricted(1, d - 1, d - 1, d) == 1
            assert count_restricted(1, d - 1, d - 2, d) == 0


class TestCountViaFormula:
    @pytest.mark.parametrize("d", range(1, 15))
    def test_matches_brute_force(self, d):
        assert count_via_formula(d) == len(brute_sequences(d))

    def test_matches_enumeration_with_shared_cache(self):
        table = count_table(70)
        cache = CountCache()
        for d in range(1, 71):
            assert count_via_formula(d, cache) == table.O[d], d

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_via_formula(0)

    def test_each_key_expanded_once(self, monkeypatch):
        expanded = []
        summands = counting._summands

        def counted(key):
            expanded.append(key)
            return summands(key)

        monkeypatch.setattr(counting, "_summands", counted)
        cache = CountCache()
        count_via_formula(17, cache)
        assert len(expanded) == len(cache) == cache.misses


def _record_expansions(monkeypatch):
    """The (key, summands) of every key _summands expands, in order."""
    expanded = []
    summands = counting._summands

    def recorded(key):
        expanded.append((key, summands(key)))
        return expanded[-1][1]

    monkeypatch.setattr(counting, "_summands", recorded)
    return expanded


def _cells(summands):
    # one cell per term of the sum: a 1, a single factor or a pair
    ones, singles, lefts, _ = summands
    return ones + len(singles) + len(lefts)


def _small_keys():
    """Every nonempty memo key with p <= 6 and d <= 20."""
    keys = {counting._resolve(p, n, k, d)
            for p in range(1, 7) for d in range(1, 21)
            for n in range(d + 1) for k in range(n + 1)}
    return {key for key in keys if isinstance(key, tuple)}


class TestSummandBounds:
    def test_equal_to_full_grid_scan(self):
        # p = 2 keys follow the box recurrence, not the Linusson cells
        keys = _small_keys()
        assert len(keys) == 1960  # every nonempty key; 2 561 before the room test
        # the keys a cold O_24 expands, up to p = 24
        cache = CountCache()
        count_via_formula(24, cache)
        assert len(cache) == 401
        keys = sorted(key for key in keys | set(cache.entries) if key[0] >= 3)
        assert len(keys) == 1725
        for key in keys:
            assert counting._summands(key) == full_grid_summands(key), key

    def test_expanded_keys_within_prefix_and_room(self):
        # _summands takes C(p + k - 1, k - 1) and C(p - 1 + k, k) uncapped,
        # which is safe because every key it sees has C(p + k, k) <= d
        cache = CountCache()
        count_via_formula(60, cache)
        assert len(cache) == 2865  # every key a cold O_60 expands
        for p, n, k, d in _small_keys() | set(cache.entries):
            assert comb(p + k, k) <= d <= comb(p + n, n) - comb(p + n - k - 1, p), (p, n, k, d)

    def test_cold_total_visits_few_cells(self, monkeypatch):
        expanded = _record_expansions(monkeypatch)
        assert count_via_formula(17) == 428
        # 188 keys holding 330 cells, every one nonzero: 226 keys and 470
        # cells when p = 2 keys listed their Linusson cells, 891
        # normalizations when each factor went through it, 2 540 before the
        # room bounds, 4 290 when a one-variable left factor was scanned over
        # its whole i range, 25 966 for the full (j, i) grid
        assert (len(expanded), sum(_cells(s) for _, s in expanded)) == (188, 330)

    def test_two_variable_key_lists_its_nonempty_terms(self):
        # count(2, n, k, d) = count(2, n - 1, k - 1, d - k - 1)
        #                   + count(2, n - 1, k, d - k - 1) for k >= 1: a key
        # lists exactly the nonempty terms, a term with prefix length 0 as a 1
        keys = {counting._resolve(2, n, k, d)
                for d in range(1, 40) for n in range(d) for k in range(n + 1)}
        keys = sorted(key for key in keys if isinstance(key, tuple))
        assert len(keys) == 2838
        for key in keys:
            _, n, k, d = key
            ones, singles, lefts, rights = counting._summands(key)
            assert lefts == rights == []
            if k == 0:
                assert (ones, singles) == (1, []), key
                continue
            terms = [(n - 1, kk, d - k - 1) for kk in (k - 1, k)]
            terms = [term for term in terms if two_variable_count(*term) > 0]
            assert ones == sum(term[1] == 0 for term in terms), key
            assert singles == [counting._resolve(2, *term) for term in terms if term[1]], key
            # the identity itself, a term of prefix length 0 counting 1
            assert sum(two_variable_count(*term) for term in terms) == \
                two_variable_count(n, k, d), key
            assert all(two_variable_count(*term) == 1 for term in terms if term[1] == 0)

    def test_cold_stats_unchanged(self):
        cache = CountCache()
        count_via_formula(17, cache)
        assert (len(cache), cache.hits, cache.misses) == (188, 387, 188)

    @pytest.mark.parametrize("d, value, stats", [
        (24, 3279, (401, 1119, 401)),
        (40, 164347, (1210, 5778, 1210)),
        (60, 9469536, (2865, 21649, 2865)),
        (100, 7130804911, (8259, 114616, 8259)),
    ])
    def test_cold_accounting_pinned(self, d, value, stats):
        # hits count every stored factor read; no stored key counts 0
        cache = CountCache()
        assert count_via_formula(d, cache) == value
        assert (len(cache), cache.hits, cache.misses) == stats

    def test_d100_equal_to_window(self):
        assert count_table(100).O[100] == 7130804911

    def test_long_chain_visits_few_cells(self, monkeypatch):
        expanded = _record_expansions(monkeypatch)
        assert count_restricted(99, 98, 1, 100) == 1
        # 98 keys of one cell each: 197 normalizations when each factor
        # went through it; the full (j, i) grid makes 328 349
        assert (len(expanded), sum(_cells(s) for _, s in expanded)) == (98, 98)

    def test_long_chain_at_d_2000(self):
        cache = CountCache()
        assert count_restricted(1999, 1998, 1, 2000, cache) == 1
        assert len(cache) == 1998

    def test_two_variable_key_at_d_2000_stays_small(self):
        # each p = 2 key lists at most two terms, so a long two-variable chain stays small
        cache = CountCache()
        assert count_restricted(2, 1999, 40, 2000, cache) > 0
        assert len(cache) <= 41871


class TestEmptinessRule:
    def test_rule_matches_reference_recursion(self):
        # 23 400 cells, 18 232 of them empty, against a full-grid recursion
        # that knows only the domain and prefix-mass guards
        cache, empty = CountCache(), 0
        for p in range(2, 11):
            for d in range(1, 25):
                for n in range(d):
                    for k in range(n + 1):
                        expected = reference_count(p, n, k, d)
                        empty += expected == 0
                        assert emptiness_rule(p, n, k, d) == (expected > 0), (p, n, k, d)
                        assert (counting._resolve(p, n, k, d) != 0) == (expected > 0)
                        assert count_restricted(p, n, k, d, cache) == expected
        assert empty == 18_232
        # one variable: nonempty only at k = n = d - 1, settled without a key
        for d in range(1, 25):
            for n in range(d):
                for k in range(n + 1):
                    expected = reference_count(1, n, k, d)
                    assert expected == (k == n == d - 1), (n, k, d)
                    assert emptiness_rule(1, n, k, d) == (expected > 0), (n, k, d)
                    assert counting._resolve(1, n, k, d) == expected
                    assert count_restricted(1, n, k, d, cache) == expected

    def test_rule_matches_two_variable_shape(self):
        for d in range(1, 41):
            for n in range(d):
                for k in range(n + 1):
                    assert emptiness_rule(2, n, k, d) == (two_variable_count(n, k, d) > 0)

    def test_no_empty_key_stored(self):
        cache = CountCache()
        for d in range(1, 101):
            count_via_formula(d, cache)
        assert all(cache.entries.values())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 8), st.integers(-1, 25),
                          st.integers(-1, 25), st.integers(0, 24)),
                min_size=1, max_size=12))
def test_answers_do_not_depend_on_what_is_cached(queries):
    shared, union = CountCache(), {}
    for query in queries:
        fresh = CountCache()
        assert count_restricted(*query, shared) == count_restricted(*query, fresh), query
        union.update(fresh.entries)
    assert shared.entries == union


class TestTwoVariable:
    def test_every_cell_matches_partition_count(self):
        cache = CountCache()
        for d in range(1, 41):
            for n in range(d + 1):
                for k in range(n + 1):
                    assert count_restricted(2, n, k, d, cache) == \
                        two_variable_count(n, k, d), (n, k, d)

    def test_partition_count_matches_frozen_values(self):
        assert [sum(two_variable_count(d - 1, k, d) for k in range(d))
                for d in range(1, 13)] == EXPECTED_TWO_VAR
        assert two_variable_count(3, 4, 20) == 0  # k > n

    def test_frozen_values(self):
        assert [sum(count_restricted(2, d - 1, k, d) for k in range(d))
                for d in range(1, 13)] == EXPECTED_TWO_VAR

    @pytest.mark.parametrize("d", range(1, 13))
    def test_matches_constrained_enumeration(self, d):
        constrained = [seq for seq in brute_sequences(d) if len(seq) == 1 or seq[1] <= 2]
        assert sum(count_restricted(2, d - 1, k, d) for k in range(d)) == len(constrained)


class TestCountCache:
    def test_stats_fresh_then_warm(self):
        cache = CountCache()
        count_restricted(3, 8, 1, 9, cache)
        assert cache.misses > 0
        misses_after_first = cache.misses
        hits_after_first = cache.hits
        count_restricted(3, 8, 1, 9, cache)
        # warm run: no expansion at all, a single satisfied lookup
        assert cache.misses == misses_after_first
        assert cache.hits == hits_after_first + 1

    def test_contains_and_len(self):
        cache = CountCache()
        assert len(cache) == 0
        count_restricted(3, 4, 1, 6, cache)
        assert (3, 4, 1, 6) in cache.entries
        assert len(cache) == len(cache.entries) > 0


class TestCachePersistence:
    def test_round_trip(self, tmp_path):
        cache = CountCache()
        count_restricted(4, 7, 2, 9, cache)
        path = tmp_path / "memo.cache"
        save_cache(cache, str(path))
        loaded = load_cache(str(path))
        assert loaded.entries == cache.entries

    def test_file_format(self, tmp_path):
        cache = CountCache({(2, 3, 1, 5): 7, (1, 2, 1, 2): 1})
        path = tmp_path / "memo.cache"
        save_cache(cache, str(path))
        raw = path.read_bytes()
        assert raw == b"# oseq-memo v1\n1,2,1,2,1\n2,3,1,5,7\n"  # sorted keys, LF

    def test_key_listed_twice_with_one_count_is_refused(self, tmp_path):
        # a file that lists every key twice with the same count is not one
        # save_cache writes: the first repeated line is named
        cache = CountCache()
        count_restricted(3, 5, 1, 7, cache)
        path = tmp_path / "memo.cache"
        save_cache(cache, str(path))
        header, *lines = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(lines + lines))
        key, count = next(iter(sorted(cache.entries.items())))
        with pytest.raises(CacheFormatError, match=re.escape(
                f"{path}:{len(lines) + 2}: key {key} already maps to {count}, "
                f"refusing to store {count}")):
            load_cache(str(path))

    def test_key_listed_twice_with_two_counts_is_refused(self, tmp_path):
        path = tmp_path / "memo.cache"
        path.write_text("# oseq-memo v1\n2,3,1,5,7\n2,3,1,5,8\n")
        with pytest.raises(CacheFormatError, match=re.escape(
                f"{path}:3: key (2, 3, 1, 5) already maps to 7, refusing to store 8")):
            load_cache(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "memo.cache"
        path.write_text("# wrong header\n1,2,1,2,1\n")
        with pytest.raises(CacheFormatError):
            load_cache(str(path))

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "memo.cache"
        path.write_text("# oseq-memo v1\n1,2,1,2\n")
        with pytest.raises(CacheFormatError):
            load_cache(str(path))

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "memo.cache"
        path.write_text("# oseq-memo v1\n1,2,x,2,1\n")
        with pytest.raises(CacheFormatError):
            load_cache(str(path))

    @pytest.mark.parametrize("line", ["3,8,1,9,-5", "1,0,0,0,7", "1,2,1,3,7", "2,3,1,3,7",
                                      "2,2,3,5,7", "2,-1,-1,5,7", "3,1,-1,5,7"])
    def test_line_the_recursion_never_stores(self, tmp_path, line):
        # counts are never negative, and every stored key has p >= 2 and
        # 0 <= k <= n <= d - 1
        path = tmp_path / "memo.cache"
        path.write_text(f"# oseq-memo v1\n2,1,0,2,1\n{line}\n")
        with pytest.raises(CacheFormatError, match=re.escape(f"{path}:3: ")):
            load_cache(str(path))

    def test_in_range_keys_the_recursion_never_stores_load_unread(self, tmp_path):
        # p > d at k = 0 (_resolve caps p to d) and a forced prefix C(3, 1)
        # above d = 2: both pass the range check, and neither is ever read
        path = tmp_path / "memo.cache"
        path.write_text("# oseq-memo v1\n5,1,0,3,7\n2,1,1,2,7\n")
        loaded = load_cache(str(path))
        assert len(loaded) == 2
        for key, expected in [((5, 1, 0, 3), 1), ((2, 1, 1, 2), 0), ((3, 4, 1, 6), 2)]:
            assert count_restricted(*key, loaded) == count_restricted(*key) == expected

    def test_non_ascii_byte(self, tmp_path):
        path = tmp_path / "memo.cache"
        path.write_bytes(b"# oseq-memo v1\n1,2,1,2,1\n2,3,1,5,\xe9\n")
        with pytest.raises(CacheFormatError, match=re.escape(f"{path}: not an ASCII memo file")):
            load_cache(str(path))

    def test_file_with_zero_lines_gives_same_answers(self, tmp_path):
        # written by an earlier version for `formula 3 8 1 9` then
        # `formula 5 20 2 25`: 69 keys, 33 of them counting 0
        old = DATA / "memo_v1_with_zeros.txt"
        lines = old.read_text().splitlines()[1:]
        nonzero = [line for line in lines if not line.endswith(",0")]
        assert (len(lines), len(nonzero)) == (69, 36)
        warm = load_cache(str(old))
        assert len(warm) == 36 and all(warm.entries.values())
        assert warm.body is None  # the lines left no longer match the keys
        for query in [(3, 8, 1, 9), (5, 20, 2, 25)]:
            assert count_restricted(*query, warm) == count_restricted(*query), query
        assert warm.misses == 0
        for query in [(4, 9, 1, 12), (3, 6, 0, 9), (2, 1, 1, 4)]:
            assert count_restricted(*query, warm) == count_restricted(*query), query
        path = tmp_path / "memo.cache"
        assert len(warm) > 36
        save_cache(warm, str(path))
        saved = path.read_text().splitlines()
        assert set(nonzero) <= set(saved[1:])
        assert not any(line.endswith(",0") for line in saved)
        assert path.read_bytes() == saved_text(warm)

    def test_warm_cache_needs_no_expansion(self, tmp_path):
        cache = CountCache()
        first = count_restricted(4, 8, 1, 10, cache)
        assert cache.misses > 0
        path = tmp_path / "memo.cache"
        save_cache(cache, str(path))
        warm = load_cache(str(path))
        assert warm.misses == 0
        assert count_restricted(4, 8, 1, 10, warm) == first
        assert warm.misses == 0  # zero expansions on the warm run

    def test_file_cut_mid_line_is_refused(self, tmp_path):
        # the memo benchmark's starting file less its last 2 bytes ends in
        # `5,29,2,30,3`, a line in range that would answer 3 for a count of 31
        path = tmp_path / "memo.cache"
        save_cache(memo_start_cache(), str(path))
        raw = path.read_bytes()
        assert raw.endswith(b"\n5,29,2,30,31\n") and count_restricted(5, 29, 2, 30) == 31
        path.write_bytes(raw[:-2])
        lineno = raw.count(b"\n")
        with pytest.raises(CacheFormatError,
                           match=re.escape(f"{path}:{lineno}: last line '5,29,2,30,3' has no LF")):
            load_cache(str(path))

    @pytest.mark.parametrize("text, error", [
        (HEADER[:-1], r"1: last line '# oseq-memo v1' has no LF"),
        (HEADER + "2,1,0,2,1\r", r"2: last line '2,1,0,2,1\\r' has no LF"),
        # the blank line is at fault before the last one
        (HEADER + "\n2,1,0,2,1", "2: expected 5 fields, got 1"),
    ], ids=["header", "cr", "after-blank"])
    def test_file_without_final_lf_is_refused(self, tmp_path, text, error):
        path = tmp_path / "memo.cache"
        path.write_bytes(text.encode())
        with pytest.raises(CacheFormatError, match=re.escape(f"{path}:") + error):
            load_cache(str(path))


def saved_text(cache: CountCache) -> bytes:
    """The file a save of ``cache`` writes: the header, then every key's
    line formatted afresh, keys ascending."""
    return (HEADER + "".join(f"{p},{n},{k},{d},{count}\n"
                             for (p, n, k, d), count in sorted(cache.entries.items()))).encode()


# keys in the range load_cache accepts, and queries of any kind
STORED_KEYS = st.tuples(st.integers(2, 6), st.integers(0, 14), st.integers(0, 14),
                        st.integers(1, 15)).filter(lambda key: key[2] <= key[1] < key[3])
QUERIES = st.tuples(st.integers(1, 6), st.integers(0, 16), st.integers(0, 4), st.integers(1, 18))


class TestSaveAfterLoad:
    """A save after a load copies the lines it read and formats only the
    keys added since, and writes the same file as a save that formats every
    key."""

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(STORED_KEYS, st.integers(1, 10 ** 30), max_size=20),
           st.lists(QUERIES, max_size=6))
    def test_save_after_load_equals_sorted_lines(self, tmp_path_factory, entries, queries):
        path = tmp_path_factory.mktemp("memo") / "memo.cache"
        save_cache(CountCache(entries), str(path))
        loaded = load_cache(str(path))
        for query in queries:
            count_restricted(*query, loaded)
        save_cache(loaded, str(path))
        assert path.read_bytes() == saved_text(loaded)
        assert_matches_line_loop(path)

    def test_load_keeps_the_lines_read(self, tmp_path):
        path = tmp_path / "memo.cache"
        save_cache(memo_start_cache(), str(path))
        assert load_cache(str(path)).body == path.read_text()[len(HEADER):-1]
        assert CountCache().body is None

    def test_descending_file_is_saved_sorted(self, tmp_path):
        path = tmp_path / "memo.cache"
        save_cache(memo_start_cache(), str(path))
        header, *lines = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(reversed(lines)))
        loaded = load_cache(str(path))
        assert list(loaded.entries) == sorted(loaded.entries, reverse=True)
        before = len(loaded)
        count_restricted(5, 20, 2, 25, loaded)
        assert len(loaded) > before
        save_cache(loaded, str(path))
        assert path.read_bytes() == saved_text(loaded)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "memo.cache"
        path.write_text(HEADER)
        loaded = load_cache(str(path))
        assert (len(loaded), loaded.body) == (0, None)
        count_restricted(4, 8, 1, 10, loaded)
        save_cache(loaded, str(path))
        assert path.read_bytes() == saved_text(loaded)
        assert_matches_line_loop(path)


def assert_matches_line_loop(path) -> None:
    """load_cache loads the entries of the strict line loop from ``path``
    in file order, or refuses the file naming the line loop's line and
    reason."""
    expected = strict_line_loop(path.read_bytes())
    try:
        loaded = list(load_cache(str(path)).entries.items())
    except CacheFormatError as exc:
        assert isinstance(expected, tuple), exc
        where, reason = expected
        prefix = f"{path}: " if where is None else f"{path}:{where}: "
        assert str(exc).startswith(prefix) and reason in str(exc), (str(exc), expected)
    else:
        assert loaded == expected


def bulk_steps(monkeypatch) -> list[str]:
    """The steps load_cache then takes, recorded: each full match of the
    body pattern and each json parse.  The pattern's plain match, which
    only a refusal needs, is left out, so a call to it fails."""
    steps, body, loads = [], counting._CANONICAL_BODY, json.loads
    monkeypatch.setattr(counting, "_CANONICAL_BODY", SimpleNamespace(
        fullmatch=lambda *args: steps.append("fullmatch") or body.fullmatch(*args)))
    monkeypatch.setattr(counting, "json", SimpleNamespace(
        loads=lambda text: steps.append("loads") or loads(text),
        JSONDecodeError=json.JSONDecodeError))
    return steps


BODY = "2,1,0,2,1\n3,4,1,6,2\n"
# whole files, most of them the canonical BODY with one change, written
# as one byte per character
VARIANTS = {
    "blank-line": HEADER + "2,1,0,2,1\n\n3,4,1,6,2\n",
    "crlf": (HEADER + BODY).replace("\n", "\r\n"),
    "cr": (HEADER + BODY).replace("\n", "\r"),
    "plus": HEADER + BODY + "2,3,1,5,+5\n",
    "space": HEADER + BODY + "2,3,1,5, 5\n",
    "leading-zero-count": HEADER + BODY + "2,3,1,5,07\n",
    "leading-zero-key": HEADER + BODY + "02,3,1,5,7\n",
    "underscore": HEADER + BODY + "2,3,1,5,1_0\n",
    "equal-duplicate": HEADER + BODY + "2,1,0,2,1\n",
    "conflicting-duplicate": HEADER + BODY + "2,1,0,2,9\n",
    "zero-count": HEADER + BODY + "2,3,1,5,0\n",
    "zero-and-nonzero": HEADER + "2,3,1,5,0\n" + BODY + "2,3,1,5,7\n",
    "negative-count": HEADER + BODY + "2,3,1,5,-1\n",
    "four-fields": HEADER + BODY + "2,3,1,5\n",
    "six-fields": HEADER + BODY + "2,3,1,5,7,7\n",
    # the lines 2,1,0,2,1 and 2,2,3,1,5 run together: a pattern that let a
    # line end without LF would split them apart again, both in range
    "nine-fields": HEADER + "2,1,0,2,12,2,3,1,5\n",
    **{f"out-of-range-{line}": HEADER + BODY + line + "\n"
       for line in ["3,8,1,9,-5", "1,0,0,0,7", "1,2,1,3,7", "2,3,1,3,7", "2,2,3,5,7",
                    "2,-1,-1,5,7", "3,1,-1,5,7"]},
    # two faults: the earlier line is named, whichever bulk step finds it
    "range-then-sign": HEADER + "1,0,0,0,7\n2,3,1,5,+5\n",
    "duplicate-then-leading-zero": HEADER + BODY + "2,1,0,2,1\n2,3,1,5,07\n",
    "leading-zero-then-space": HEADER + "2,3,1,5,07\n2,3,1,5, 5\n",
    "duplicate-then-no-final-lf": HEADER + BODY + "3,4,1,6,2\n2,3,1,5,7",
    "header-only": HEADER,
    "empty": "",
    "bad-header": "# oseq-memo v0\n" + BODY,
    "no-final-lf": HEADER + BODY[:-1],
    "cut-field": HEADER + BODY[:-2],
    "over-digit-limit": HEADER + BODY + "2,3,1,5," + "9" * 4301 + "\n",
    "non-ascii": HEADER + BODY + "2,3,1,5,\xe9\n",
}


# rows of VARIANTS that earlier versions loaded through a lenient line
# loop, with the refusal each now meets
HAND_EDITED = {
    "blank-line": (3, "expected 5 fields, got 1"),
    "crlf": (None, r"expected header '# oseq-memo v1', got '# oseq-memo v1\r'"),
    "cr": (None, r"expected header '# oseq-memo v1', got '# oseq-memo v1\r'"),
    "plus": (4, "a field is not decimal digits"),
    "space": (4, "a field is not decimal digits"),
    "leading-zero-count": (4, "a field has a leading zero"),
    "leading-zero-key": (4, "a field has a leading zero"),
    "underscore": (4, "a field is not decimal digits"),
    "equal-duplicate": (4, "key (2, 1, 0, 2) already maps to 1, refusing to store 1"),
    "zero-and-nonzero": (5, "key (2, 3, 1, 5) already maps to 0, refusing to store 7"),
}


class TestBulkLoad:
    """load_cache parses a file as save_cache writes it in bulk, and gives
    every file the outcome of a strict line loop."""

    @pytest.mark.parametrize("text", VARIANTS.values(), ids=VARIANTS.keys())
    def test_variant_matches_line_loop(self, tmp_path, text):
        path = tmp_path / "memo.cache"
        path.write_bytes(text.encode("latin-1"))
        assert_matches_line_loop(path)

    @pytest.mark.parametrize("name", HAND_EDITED)
    def test_hand_edited_variant_is_refused(self, tmp_path, name):
        where, error = HAND_EDITED[name]
        path = tmp_path / "memo.cache"
        path.write_bytes(VARIANTS[name].encode("latin-1"))
        prefix = f"{path}: " if where is None else f"{path}:{where}: "
        with pytest.raises(CacheFormatError, match=re.escape(prefix + error)):
            load_cache(str(path))

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(-1, 12),
                                     st.integers(-1, 12), st.integers(0, 14)),
                           st.integers(-2, 10 ** 30), max_size=20))
    def test_saved_cache_matches_line_loop(self, tmp_path_factory, entries):
        path = tmp_path_factory.mktemp("memo") / "memo.cache"
        save_cache(CountCache(entries), str(path))
        assert_matches_line_loop(path)
        if all(p >= 2 and 0 <= k <= n < d and count >= 0
               for (p, n, k, d), count in entries.items()):
            assert list(load_cache(str(path)).entries.items()) == \
                sorted((key, c) for key, c in entries.items() if c)

    def test_byte_deleted_near_the_end_matches_line_loop(self, tmp_path):
        # every single-byte deletion within the last three lines of the memo
        # benchmark's starting file; a deleted digit of a count can leave a
        # line in range, which loads with the wrong count
        path = tmp_path / "memo.cache"
        save_cache(memo_start_cache(), str(path))
        raw = path.read_bytes()
        tail = raw.splitlines(keepends=True)[-3:]
        assert tail == [b"5,29,0,30,4907\n", b"5,29,1,30,2448\n", b"5,29,2,30,31\n"]
        for at in range(len(raw) - len(b"".join(tail)), len(raw)):
            path.write_bytes(raw[:at] + raw[at + 1:])
            assert_matches_line_loop(path)

    @pytest.mark.parametrize("make", [
        CountCache,
        lambda: CountCache({(2, 3, 1, 5): 7, (3, 4, 1, 6): 2}),
        memo_start_cache,
    ], ids=["empty", "two-keys", "memo-start"])
    def test_saved_file_takes_the_bulk_path(self, tmp_path, monkeypatch, make):
        # one full match and one json parse: a regression to parsing line by
        # line, or to a step only a refusal needs, fails here
        cache = make()
        path = tmp_path / "memo.cache"
        save_cache(cache, str(path))
        steps = bulk_steps(monkeypatch)
        assert load_cache(str(path)).entries == cache.entries
        assert steps == ["fullmatch", "loads"]

    def test_file_with_zero_lines_takes_the_bulk_path(self, monkeypatch):
        old = DATA / "memo_v1_with_zeros.txt"
        steps = bulk_steps(monkeypatch)
        assert_matches_line_loop(old)
        assert steps == ["fullmatch", "loads"]
