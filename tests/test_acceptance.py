"""Release gate: the binding checks, one verdict line per criterion.

Each test records a "[criterion N] PASS/FAIL" line that conftest echoes
in the terminal summary after the run, then asserts.  Criterion 6 also
has a companion regression test pinning down that every checked claim
holds on the computed data and that the ratios fail to decrease exactly
at d = 8, 9 and 12, which the ratios suite reports as anomalies, not
failures.
"""

import os
import resource
import time
import urllib.error

import pytest

from oseq.analysis import (
    REFERENCE_O_VALUES,
    check_count_identities,
    check_ratios,
    check_sub_fibonacci,
    compare_reference,
)
from oseq.cli import fetch_oeis, run
from oseq.counting import CountCache, count_restricted, count_via_formula
from oseq.enumerator import count_table
from oseq.lexseg import decompose, exhaustive_count, sous_escalier

from conftest import record_verdict
from helpers import brute_sequences, classify, is_closed


def _verdict(n: int, ok: bool, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    line = f"[criterion {n}] {status}{suffix}"
    print(line)
    record_verdict(line)


def test_criterion_1_golden_table(table60):
    start = time.monotonic()
    fresh = count_table(60)
    elapsed_60 = time.monotonic() - start
    start = time.monotonic()
    count_table(45)
    elapsed_45 = time.monotonic() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    cache = CountCache()
    problems = []
    for d, expected in sorted(REFERENCE_O_VALUES.items()):
        if d == 35:
            continue
        if fresh.O[d] != expected:
            problems.append(f"enumeration O_{d} = {fresh.O[d]} != {expected}")
        via_formula = count_via_formula(d, cache)
        if via_formula != expected:
            problems.append(f"formula O_{d} = {via_formula} != {expected}")
    if elapsed_60 > 600:
        problems.append(f"d = 60 enumeration took {elapsed_60:.1f}s > 600s")
    if elapsed_45 > 60:
        problems.append(f"d = 45 enumeration took {elapsed_45:.1f}s > 60s")
    if peak_kib >= 4 * 1024 * 1024:
        problems.append(f"peak memory {peak_kib} KiB >= 4 GiB")

    _verdict(1, not problems)
    assert not problems, "; ".join(problems)


def test_criterion_2_anomalous_entry(table60, capsys):
    enumerated = table60.O[35]
    formulated = count_via_formula(35)
    ok = (
        enumerated == formulated
        and 41514 <= enumerated <= 41514 + 32696
        and enumerated != 5255
    )

    code = run(["verify", "--suite", "table", "--max-d", "36"])
    out = capsys.readouterr().out
    anomalies = [l for l in out.splitlines() if l.lstrip().startswith("ANOMALY")]
    ok = ok and code == 1 and len(anomalies) == 1 and "d=35" in anomalies[0]

    _verdict(2, ok)
    assert enumerated == formulated == 52559
    assert 41514 <= enumerated <= 74210 and enumerated != 5255
    assert code == 1 and len(anomalies) == 1


def test_criterion_3_cross_method_agreement(table60):
    cache = CountCache()
    start = time.monotonic()
    values = [count_via_formula(d, cache) for d in range(1, 26)]
    elapsed = time.monotonic() - start

    ok = values == table60.O[1:26] and elapsed <= 60
    _verdict(3, ok)
    assert values == table60.O[1:26]
    assert elapsed <= 60, f"cold formula run took {elapsed:.1f}s"


def test_criterion_4_oracle_equivalence():
    mismatches = []
    for p in range(1, 5):
        for n in range(0, 9):
            for k in range(0, 5):
                for d in range(1, 11):
                    got = count_restricted(p, n, k, d)
                    want = exhaustive_count(p, n, k, d)
                    if got != want:
                        mismatches.append((p, n, k, d, got, want))

    _verdict(4, not mismatches)
    assert not mismatches, mismatches[:10]


def test_criterion_5_base_cases():
    problems = []
    for n in range(0, 11):
        for k in range(0, 11):
            for d in range(1, 11):
                expected = 1 if (k == d - 1 and n >= d - 1) else 0
                if count_restricted(1, n, k, d) != expected:
                    problems.append(("one-variable", n, k, d))
    for p in (2, 3, 4):
        for n in range(0, 9):
            for d in range(1, 11):
                total = sum(count_restricted(p - 1, n, kk, d) for kk in range(d))
                if count_restricted(p, n, 0, d) != total:
                    problems.append(("full-prefix reduction", p, n, d))

    _verdict(5, not problems)
    assert not problems, problems[:10]


def test_criterion_6_attainable_portion_holds(table60):
    # regression guard: every claim holds, and the ratios fail to decrease
    # exactly at the three documented places, reported as anomalies
    assert check_count_identities(table60).passed
    assert check_sub_fibonacci(table60).passed
    report = check_ratios(table60)
    assert report.failures() == []
    assert [a.d for a in report.anomalies] == [8, 9, 12]


def test_criterion_6_property_suites_zero_violations(table60):
    failures = []
    for report in (
        check_count_identities(table60),
        check_sub_fibonacci(table60),
        check_ratios(table60),
    ):
        failures.extend((c.d, c.claim) for c in report.failures())

    _verdict(6, not failures, note="see test message" if failures else "")
    assert not failures, sorted(failures)


def test_criterion_7_lex_segment_structure():
    problems = []
    for d in range(1, 11):
        for h in brute_sequences(d):
            a1 = h[1] if len(h) > 1 else 1
            for p in (a1, a1 + 1):
                ideal = sous_escalier(h, p)
                if not is_closed(ideal) or ideal.degree_counts != h:
                    problems.append(("closure", h, p))
    for p in (2, 3):
        for d in range(1, 9):
            for h in brute_sequences(d):
                if len(h) > 1 and h[1] > p:
                    continue
                ideal = sous_escalier(h, p)
                s, k, _ = classify(ideal)
                if k < 1:
                    continue
                m1, m2 = decompose(ideal)
                c1, c2 = classify(m1), classify(m2)
                rebuilt = {t + (0,) for t in m1.terms} | {
                    t[:-1] + (t[-1] + 1,) for t in m2.terms
                }
                if (
                    rebuilt != ideal.terms
                    or c1.max_prefix < k
                    or c2.max_prefix != k - 1
                    or c2.socle_degree > c1.max_prefix - 1
                    or m1.multiplicity + m2.multiplicity != d
                ):
                    problems.append(("bijection", h, p))

    _verdict(7, not problems)
    assert not problems, problems[:10]


def test_criterion_8_small_value_spot_checks(table60):
    problems = []
    if table60.O[1:7] != [1, 1, 2, 3, 5, 8]:
        problems.append(f"O_1..6 = {table60.O[1:7]}")
    if table60.A[1:7] != [0, 0, 1, 1, 2, 3]:
        problems.append(f"A_1..6 = {table60.A[1:7]}")
    for d in (5, 6):
        oracle = brute_sequences(d)
        if table60.O[d] != len(oracle):
            problems.append(f"O_{d} vs oracle")
        if table60.A[d] != sum(1 for h in oracle if h[-1] > 1):
            problems.append(f"A_{d} vs oracle")
    for d in range(1, 13):
        direct = sum(
            1 for h in brute_sequences(d) if len(h) == 1 or h[1] <= 2
        )
        if sum(count_restricted(2, d - 1, k, d) for k in range(d)) != direct:
            problems.append(f"two-variable count at d = {d}")

    _verdict(8, not problems)
    assert not problems, problems


def test_criterion_9_oeis_b_file(table60, tmp_path):
    # the b-file comes over HTTP, so the test only runs when asked to
    if os.environ.get("OSEQ_NETWORK_TESTS") != "1":
        record_verdict("[criterion 9] SKIP (network tests off; set OSEQ_NETWORK_TESTS=1)")
        pytest.skip("network tests off; set OSEQ_NETWORK_TESTS=1")
    try:
        entries = fetch_oeis(cache_dir=str(tmp_path))
    except (urllib.error.URLError, OSError):
        record_verdict("[criterion 9] SKIP (network unavailable)")
        pytest.skip("network unavailable")

    known = dict(entries)
    mismatches = [
        d for d in range(1, 21) if d in known and known[d] != table60.O[d]
    ]
    _verdict(9, not mismatches)
    assert not mismatches, mismatches
