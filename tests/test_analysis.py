import json
from fractions import Fraction
from pathlib import Path

import pytest

from oseq import analysis, enumerator
from oseq.analysis import (
    RATIO_DECREASE_RANGE,
    REFERENCE_O_VALUES,
    SUSPECT_REFERENCE_ENTRIES,
    check_count_identities,
    check_oracle_grid,
    check_ratios,
    check_recursion,
    check_sub_fibonacci,
    check_window_bijection,
    compare_reference,
)
from oseq.enumerator import CountTable, count_table

from helpers import fibonacci_upto, flat_window, reference_bijection_report

DATA = Path(__file__).parent / "data"

OSEQ = "every child is an O-sequence"
APPEND = "append-2 children restore the d-2 bucket"
INCREMENT = "increment children restore the d-1 extendable set"


class TestCountIdentities:
    def test_clean_table_passes(self, table60):
        report = check_count_identities(table60)
        assert report.passed
        assert report.suite == "lemmas"
        assert not report.anomalies

    def test_small_table_passes(self):
        assert check_count_identities(count_table(6)).passed

    def test_tampered_table_fails(self):
        table = count_table(6)
        table.A[3] = 2
        report = check_count_identities(table)
        assert not report.passed
        assert any(c.d == 3 for c in report.failures())

    def test_range_guard(self):
        with pytest.raises(ValueError):
            check_count_identities(count_table(4))


class TestSubFibonacci:
    def test_clean_table_passes(self, table60):
        assert check_sub_fibonacci(table60).passed

    def test_bound_is_loose_already_at_21(self, table20):
        fib = fibonacci_upto(21)
        assert count_table(21).O[21] == 1416
        assert fib[21] == 10946

    def test_tampered_table_fails(self):
        table = CountTable(max_d=4, O=[0, 1, 1, 2, 4], A=[0, 0, 0, 1, 2])
        report = check_sub_fibonacci(table)
        assert not report.passed
        assert any(c.d == 4 for c in report.failures())

    def test_range_guard(self):
        with pytest.raises(ValueError):
            check_sub_fibonacci(count_table(2))


class TestRatios:
    def test_known_failure_set(self, table60):
        report = check_ratios(table60)
        assert report.passed
        assert report.failures() == []
        assert [a.d for a in report.anomalies] == [8, 9, 12]

    def test_tampered_table_fails(self):
        table = count_table(8)
        assert check_ratios(table).passed
        table.O[8] = 2 * table.O[7]
        report = check_ratios(table)
        assert not report.passed
        assert (8, "O_d/O_{d-1} < 2") in {(c.d, c.claim) for c in report.failures()}

    def test_ratio_values_are_exact(self, table60):
        report = check_ratios(table60)
        entries = {(c.d, c.claim): c for c in report.checks}
        c = entries[(6, "O_d/O_{d-1} < 2")]
        assert c.left == "8/5"

    def test_decrease_window(self):
        assert RATIO_DECREASE_RANGE == (6, 60)

    def test_rise_beyond_the_window_is_flagged_apart(self):
        # O_62 raised just past O_61^2 / O_60, so the ratio rises at d = 62
        table = count_table(62)
        o = table.O
        o[62] = o[61] ** 2 // o[60] + 1
        rise, before = Fraction(o[62], o[61]), Fraction(o[61], o[60])
        report = check_ratios(table)
        assert [a.d for a in report.anomalies] == [8, 9, 12, 62]
        assert report.anomalies[-1].note == (
            f"ratio decrease never examined beyond d = 60; violated here: {rise} >= {before}")

    def test_range_guard(self):
        with pytest.raises(ValueError):
            check_ratios(count_table(5))


class TestReferenceComparison:
    def test_full_table_has_single_suspect_mismatch(self, table60):
        report = compare_reference(table60)
        assert not report.passed
        fails = report.failures()
        assert [c.d for c in fails] == [35]
        assert fails[0].left == "52559"
        assert fails[0].right == "5255"
        assert len(report.anomalies) == 1
        assert report.anomalies[0].d == 35
        assert 35 in SUSPECT_REFERENCE_ENTRIES

    def test_below_suspect_entry_everything_matches(self):
        report = compare_reference(count_table(34))
        assert report.passed
        assert not report.anomalies

    def test_custom_reference_mismatch_is_plain_failure(self, table20, monkeypatch):
        monkeypatch.setattr(analysis, "REFERENCE_O_VALUES", {12: 999})
        report = compare_reference(table20)
        assert not report.passed
        assert [c.d for c in report.failures()] == [12]
        assert not report.anomalies

    def test_reference_spot_values(self):
        assert REFERENCE_O_VALUES[21] == 1416
        assert REFERENCE_O_VALUES[34] == 41514
        assert REFERENCE_O_VALUES[35] == 5255
        assert REFERENCE_O_VALUES[36] == 66361
        assert REFERENCE_O_VALUES[60] == 9469536
        assert sorted(REFERENCE_O_VALUES) == list(range(21, 61))


class TestCrossMethodSuites:
    def test_oracle_grid(self):
        report = check_oracle_grid(max_d=6)
        assert report.passed
        assert report.suite == "oracle"
        assert report.checks

    def test_window_bijection(self):
        report = check_window_bijection(max_d=14)
        assert report.passed
        assert report.suite == "bijection"

    def test_window_bijection_catches_a_wrong_increment_rule(self, monkeypatch):
        monkeypatch.setattr(analysis, "can_increment", lambda *a: True)
        report = check_window_bijection(max_d=14)
        assert {c.claim for c in report.failures()} == {
            "increment children restore the d-1 extendable set"}

    def test_window_and_bijection_share_the_increment_rule(self, monkeypatch):
        # one cap off by one, patched where it is defined, moves the
        # window's A_d and fails the suite's increment check alike
        entry_cap = enumerator.entry_cap
        monkeypatch.setattr(enumerator, "entry_cap", lambda s, prev: entry_cap(s, prev) + 1)
        assert count_table(14).A != flat_window(14)[1]
        report = check_window_bijection(max_d=14)
        assert {c.claim for c in report.failures()} == {INCREMENT}

    def test_oracle_catches_one_miscounted_cell(self, monkeypatch):
        count_restricted = analysis.count_restricted

        def off_by_one(p, n, k, d, cache=None):
            return count_restricted(p, n, k, d, cache) + ((p, n, k, d) == (3, 5, 2, 7))

        monkeypatch.setattr(analysis, "count_restricted", off_by_one)
        want = count_restricted(3, 5, 2, 7)
        report = check_oracle_grid(max_d=10)
        assert [(c.d, c.claim, c.left) for c in report.failures()] == [
            (7, "formula = exhaustive on p=3, n<=8, k<=4",
             f"n=5 k=2: formula {want + 1}, exhaustive {want}")]

    @pytest.mark.parametrize("max_d", range(3, 25))
    def test_one_walk_buckets(self, max_d):
        # the streamed report against the set reference, which holds every
        # bucket whole from its own walk; below 5 the suite refuses to walk
        if max_d < 5:
            with pytest.raises(ValueError, match="5 <= max_d <= 40"):
                check_window_bijection(max_d)
        else:
            assert check_window_bijection(max_d).to_text() == reference_bijection_report(max_d).to_text()

    def test_window_bijection_golden_40(self):
        # the report at the cap, as the set-based suite printed it
        report = check_window_bijection(40)
        assert report.to_text() + "\n" == (DATA / "verify_bijection_40.txt").read_text(encoding="ascii")
        assert report.to_json() + "\n" == (DATA / "verify_bijection_40.json").read_text(encoding="ascii")

    def test_window_bijection_reuses_the_parent_verdict(self, monkeypatch):
        # on a sound walk every stem but the root comes right after its parent
        calls = []
        is_o_sequence = analysis.is_o_sequence
        monkeypatch.setattr(analysis, "is_o_sequence", lambda s: calls.append(s) or is_o_sequence(s))
        assert check_window_bijection(max_d=14).passed
        assert calls == [(1,)]

    @staticmethod
    def _failed_on_walk(monkeypatch, edit):
        # the walk to 14 as a list of (stem, rest), edited in place by
        # ``edit(stems, where)``; where(stem) is the stem's index
        stems = list(analysis.iter_stems(14))
        edit(stems, lambda stem: next(i for i, (s, _) in enumerate(stems) if s == stem))
        monkeypatch.setattr(analysis, "iter_stems", lambda max_d: iter(stems))
        return [(c.d, c.claim) for c in check_window_bijection(max_d=14).failures()]

    def test_window_bijection_catches_a_dropped_stem(self, monkeypatch):
        def drop(stems, where):
            del stems[where((1, 3, 3))]

        assert self._failed_on_walk(monkeypatch, drop) == [
            (7, INCREMENT), (8, INCREMENT), (9, APPEND)]

    def test_window_bijection_catches_a_stem_yielded_twice(self, monkeypatch):
        def twice(stems, where):
            i = where((1, 3, 3))
            stems.insert(i, stems[i])

        assert self._failed_on_walk(monkeypatch, twice) == [
            (7, "no child is produced twice"), (7, INCREMENT), (8, INCREMENT), (9, APPEND)]

    @pytest.mark.parametrize("stem, failed", [
        # growth_bound(2, 1) = 3; its parent (1, 2) is the last stem at depth 1
        pytest.param((1, 2, 4), [(7, OSEQ), (7, INCREMENT), (9, APPEND)], id="parent-given"),
        # its parent (1, 2, 4) is never given, so is_o_sequence decides
        pytest.param((1, 2, 4, 2), [(9, OSEQ), (9, APPEND), (10, INCREMENT), (11, APPEND)],
                     id="parent-missing"),
    ])
    def test_window_bijection_catches_a_non_o_sequence(self, monkeypatch, stem, failed):
        # the stem comes in its lexicographic place, just before (1, 3)
        def inject(stems, where):
            stems.insert(where((1, 3)), (stem, 14 - sum(stem)))

        assert self._failed_on_walk(monkeypatch, inject) == failed

    @pytest.mark.parametrize("first, second, failed", [
        pytest.param((1, 11), (1, 11, 2), [(14, APPEND)], id="child-before-parent"),
        pytest.param((1, 4, 8), (1, 4, 9), [(13, INCREMENT), (14, INCREMENT)],
                     id="siblings-swapped"),
    ])
    def test_window_bijection_catches_a_walk_out_of_preorder(self, monkeypatch, first, second,
                                                             failed):
        # the same stems in every bucket, in the same order within each
        def swap(stems, where):
            i, j = where(first), where(second)
            stems[i], stems[j] = stems[j], stems[i]

        assert self._failed_on_walk(monkeypatch, swap) == failed

    @pytest.mark.parametrize("first, second, claim", [
        pytest.param((1, 6, 2, 2, 2), (1, 6, 3, 2, 2), APPEND, id="append"),
        pytest.param((1, 12), (1, 13), INCREMENT, id="increment"),
    ])
    def test_window_bijection_catches_stems_in_the_wrong_bucket(self, monkeypatch, first, second,
                                                                claim):
        # two leaves in buckets 13 and 14 trade rests: every count stays, but
        # each now sits one move above a bucket its parent is not in
        def trade(stems, where):
            i, j = where(first), where(second)
            (a, ra), (b, rb) = stems[i], stems[j]
            stems[i], stems[j] = (a, rb), (b, ra)

        assert self._failed_on_walk(monkeypatch, trade) == [(13, claim), (14, claim)]

    def test_window_bijection_catches_two_swapped_increment_verdicts(self, monkeypatch):
        # (1, 2, 3) cannot grow and (1, 3, 2) can; swapping the two verdicts
        # keeps the count of bucket 6, so only the check of (1, 3, 3) sees it
        can_increment = analysis.can_increment
        swapped = {(2, 2, 3), (2, 3, 2)}
        monkeypatch.setattr(analysis, "can_increment",
                            lambda *state: can_increment(*state) != (state in swapped))
        assert [(c.d, c.claim) for c in check_window_bijection(14).failures()] == [
            (7, INCREMENT)]

    def test_recursion(self, table20):
        report = check_recursion(table20)
        assert report.passed
        assert report.suite == "recursion"
        assert [c.d for c in report.checks] == list(range(1, 21))

    def test_recursion_tampered_table_fails(self):
        table = count_table(10)
        table.O[8] *= 2
        report = check_recursion(table)
        assert [c.d for c in report.failures()] == [8]


class TestReportSerialization:
    def test_json_round_trip_and_determinism(self, table20):
        report = check_count_identities(table20)
        first = report.to_json()
        second = report.to_json()
        assert first == second
        data = json.loads(first)
        assert data["suite"] == "lemmas"
        assert data["passed"] is True
        assert data["range"] == [1, 20]
        assert all(c["passed"] for c in data["checks"])

    def test_text_format(self, table60):
        text = check_ratios(table60).to_text()
        assert text == check_ratios(table60).to_text()
        lines = text.splitlines()
        assert not any(line.lstrip().startswith("FAIL") for line in lines)
        d12 = [line for line in lines if line.lstrip().startswith("ANOMALY d=12 ")]
        assert len(d12) == 1
        assert "82/57" in d12[0] and "57/40" in d12[0]
        assert lines[-1].startswith("suite ratios: ")
        assert lines[-1].endswith(", ok, 3 anomalies")
