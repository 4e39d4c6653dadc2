"""Executable checks of the structural claims about the counts O_d and A_d.

Every check is an exact statement about integers or rationals; no
floating-point value ever enters a comparison.  Golden-ratio bounds are
stated in the algebraically equivalent form r * r <= r + 1.  Reports are
pure functions of their input, a count table or max_d, so equal inputs
serialize to byte-identical output.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .counting import CountCache, count_restricted, count_via_formula
from .enumerator import CountTable, can_increment, iter_stems
from .lexseg import exhaustive_count
from .macaulay import growth_bound, is_o_sequence

# Published reference values for d = 21..60, embedded verbatim.  The entry
# at d = 35 is kept exactly as printed even though it contradicts the
# monotonicity identity O_d = O_{d-1} + A_d (O_34 = 41514 > 5255): the
# mismatch is evidence, flagged in compare_reference, never silently fixed.
REFERENCE_O_VALUES: dict[int, int] = {
    21: 1416, 22: 1882, 23: 2490, 24: 3279, 25: 4299,
    26: 5612, 27: 7297, 28: 9451, 29: 12195, 30: 15683,
    31: 20099, 32: 25674, 33: 32696, 34: 41514, 35: 5255,
    36: 66361, 37: 83561, 38: 104951, 39: 131491, 40: 164347,
    41: 204936, 42: 254979, 43: 316552, 44: 392166, 45: 484853,
    46: 598255, 47: 736759, 48: 905635, 49: 1111194, 50: 1360997,
    51: 1664090, 52: 2031266, 53: 2475404, 54: 3011853, 55: 3658861,
    56: 4438118, 57: 5375378, 58: 6501163, 59: 7851624, 60: 9469536,
}

SUSPECT_REFERENCE_ENTRIES: frozenset[int] = frozenset({35})

# The range on which a strict decrease of O_d/O_{d-1} was once observed.
# The decrease is neither proved nor true (r_8 = r_9 = 3/2, r_12 > r_11), so a
# violation is always an anomaly; the range only picks the wording of its note.
RATIO_DECREASE_RANGE: tuple[int, int] = (6, 60)


@dataclass(frozen=True)
class Check:
    d: int
    claim: str
    left: str
    right: str
    passed: bool


@dataclass(frozen=True)
class Anomaly:
    d: int
    note: str


@dataclass
class VerificationReport:
    suite: str
    lo: int
    hi: int
    checks: list[Check] = field(default_factory=list)
    anomalies: list[Anomaly] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def add(self, d: int, claim: str, left: object, right: object, passed: bool) -> None:
        self.checks.append(Check(d=d, claim=claim, left=str(left), right=str(right), passed=passed))

    def flag(self, d: int, note: str) -> None:
        self.anomalies.append(Anomaly(d=d, note=note))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "range": [self.lo, self.hi],
            "checks": [
                {"d": c.d, "claim": c.claim, "left": c.left, "right": c.right, "passed": c.passed}
                for c in self.checks
            ],
            "anomalies": [{"d": a.d, "note": a.note} for a in self.anomalies],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: d in [{self.lo}, {self.hi}]"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  {status} d={c.d} {c.claim}: {c.left} vs {c.right}")
        for a in self.anomalies:
            lines.append(f"  ANOMALY d={a.d} {a.note}")
        tail = "ok" if self.passed else f"{len(self.failures())} failed"
        lines.append(f"suite {self.suite}: {len(self.checks)} checks, {tail}, "
                     f"{len(self.anomalies)} anomalies")
        return "\n".join(lines)


def _require_range(table: CountTable, least: int, suite: str) -> None:
    if table.max_d < least:
        raise ValueError(f"suite {suite} needs a table up to at least d = {least}, "
                         f"got max_d = {table.max_d}")


def check_count_identities(table: CountTable) -> VerificationReport:
    """Identities and bounds tying O and A together.

    For every applicable d: O_d = O_{d-1} + A_d; O_d < 2^d; the window
    chain A_{d-2} <= A_d <= A_{d-1} + A_{d-2} (from d = 5: the chain is
    genuinely false at d = 3, where A_3 = 1 > A_2 + A_1 = 0); and the
    telescoped form A_{d-1} + A_{d-2} = O_{d-1} - O_{d-3}.
    """
    _require_range(table, 5, "lemmas")
    o, a = table.O, table.A
    report = VerificationReport(suite="lemmas", lo=1, hi=table.max_d)
    for d in range(2, table.max_d + 1):
        report.add(d, "O_d = O_{d-1} + A_d", o[d], o[d - 1] + a[d], o[d] == o[d - 1] + a[d])
    for d in range(1, table.max_d + 1):
        report.add(d, "O_d < 2^d", o[d], 2 ** d, o[d] < 2 ** d)
    for d in range(5, table.max_d + 1):
        report.add(d, "A_{d-2} <= A_d", a[d - 2], a[d], a[d - 2] <= a[d])
        report.add(d, "A_d <= A_{d-1} + A_{d-2}", a[d], a[d - 1] + a[d - 2],
                   a[d] <= a[d - 1] + a[d - 2])
    for d in range(4, table.max_d + 1):
        lhs = a[d - 1] + a[d - 2]
        rhs = o[d - 1] - o[d - 3]
        report.add(d, "A_{d-1} + A_{d-2} = O_{d-1} - O_{d-3}", lhs, rhs, lhs == rhs)
    return report


def _fibonacci(limit: int) -> list[int]:
    # limit >= 3: check_sub_fibonacci's range guard runs first
    fib = [0] * (limit + 1)
    fib[1] = fib[2] = 1
    for d in range(3, limit + 1):
        fib[d] = fib[d - 1] + fib[d - 2]
    return fib


def check_sub_fibonacci(table: CountTable) -> VerificationReport:
    """O_1 = O_2 = 1, monotonicity, the two-back bound, and the Fibonacci
    ceiling the bound implies (the last is a derived consequence)."""
    _require_range(table, 3, "fibonacci")
    o = table.O
    report = VerificationReport(suite="fibonacci", lo=1, hi=table.max_d)
    report.add(1, "O_1 = 1", o[1], 1, o[1] == 1)
    report.add(2, "O_2 = 1", o[2], 1, o[2] == 1)
    for d in range(2, table.max_d + 1):
        report.add(d, "O_{d-1} <= O_d", o[d - 1], o[d], o[d - 1] <= o[d])
    for d in range(3, table.max_d + 1):
        report.add(d, "O_d <= O_{d-1} + O_{d-2}", o[d], o[d - 1] + o[d - 2],
                   o[d] <= o[d - 1] + o[d - 2])
    fib = _fibonacci(table.max_d)
    for d in range(1, table.max_d + 1):
        report.add(d, "O_d <= fib_d (derived consequence)", o[d], fib[d], o[d] <= fib[d])
    return report


def _exceeds_golden(r: Fraction) -> bool:
    # exact form of r > (1 + sqrt 5) / 2
    return r * r > r + 1


def check_ratios(table: CountTable) -> VerificationReport:
    """Exact-rational ratio bounds, subadditivity and the golden-ratio
    alternation property, plus anomalies where the ratios fail to decrease.

    O_d/O_{d-1} < 2 is checked from d = 4: it follows from the
    sub-Fibonacci bound as O_d <= O_{d-1} + O_{d-2} < 2 O_{d-1}, which is
    strict because A_{d-1} >= 1 for d - 1 >= 3.  At d = 3 it is genuinely
    false (O_3/O_2 = 2/1 in every correct table); the bound O_3 <= O_2 + O_1
    belongs to the sub-Fibonacci suite.

    Strict decrease of O_d/O_{d-1} is only an empirical observation, and
    the exact ratios refute it, so a violation is never a failed check: it
    is flagged as an anomaly with both ratios in the note.
    """
    _require_range(table, 6, "ratios")
    o, a = table.O, table.A
    report = VerificationReport(suite="ratios", lo=1, hi=table.max_d)
    ratio = {d: Fraction(o[d], o[d - 1]) for d in range(2, table.max_d + 1)}
    for d in range(3, table.max_d + 1):
        r = ratio[d]
        report.add(d, "1 < O_d/O_{d-1}", 1, r, 1 < r)
        if d >= 4:
            report.add(d, "O_d/O_{d-1} < 2", r, 2, r < 2)
    for d in range(4, table.max_d + 1):
        lhs = Fraction(a[d], o[d - 1])
        rhs = Fraction(a[d - 1], o[d - 2]) + Fraction(a[d - 2], o[d - 3])
        report.add(d, "A_d/O_{d-1} <= A_{d-1}/O_{d-2} + A_{d-2}/O_{d-3}",
                   lhs, rhs, lhs <= rhs)
        lhs = ratio[d]
        rhs = ratio[d - 1] + Fraction(o[d - 2], o[d - 3])
        report.add(d, "O_d/O_{d-1} <= O_{d-1}/O_{d-2} + O_{d-2}/O_{d-3}",
                   lhs, rhs, lhs <= rhs)
    lo_dec, hi_dec = RATIO_DECREASE_RANGE
    for d in range(lo_dec + 1, table.max_d + 1):
        if ratio[d] < ratio[d - 1]:
            continue
        if d <= hi_dec:
            where = f"observed ratio decrease on ({lo_dec}, {hi_dec}] refuted"
        else:
            where = f"ratio decrease never examined beyond d = {hi_dec}; violated"
        report.flag(d, f"{where} here: {ratio[d]} >= {ratio[d - 1]}")
    for d in range(4, table.max_d + 1):
        both = _exceeds_golden(ratio[d - 1]) and _exceeds_golden(ratio[d])
        report.add(d, "not both r_{d-1}, r_d exceed the golden bound r*r <= r+1",
                   ratio[d - 1], ratio[d], not both)
    return report


def compare_reference(table: CountTable) -> VerificationReport:
    """Computed O_d against the published values, REFERENCE_O_VALUES.

    A reference entry marked suspect is still compared verbatim, and the
    mismatch is additionally flagged as a presumed misprint; the computed
    value is authoritative here, bracketed by O_{d-1} <= O_d <= O_{d-1} +
    O_{d-2}.  A table that stops before the first reference entry is
    refused, as it would pass with no check.
    """
    _require_range(table, min(REFERENCE_O_VALUES), "table")
    report = VerificationReport(suite="table", lo=1, hi=table.max_d)
    for d, expected in sorted(REFERENCE_O_VALUES.items()):
        if d > table.max_d:
            continue
        computed = table.O[d]
        report.add(d, "computed O_d = reference O_d", computed, expected, computed == expected)
        if d in SUSPECT_REFERENCE_ENTRIES and computed != expected:
            report.flag(d, f"reference prints {expected}, which violates monotonicity; "
                           f"presumed misprint, computed {computed} lies in "
                           f"[{table.O[d - 1]}, {table.O[d - 1] + table.O[d - 2]}]")
    return report


def check_recursion(table: CountTable) -> VerificationReport:
    """The lex-segment recursion against the window: one check per d that
    O_d from ``count_via_formula`` equals the table's O_d.  One memo cache
    serves the whole range, so each d adds only its new keys."""
    report = VerificationReport(suite="recursion", lo=1, hi=table.max_d)
    cache = CountCache()
    for d in range(1, table.max_d + 1):
        got = count_via_formula(d, cache)
        report.add(d, "recursion O_d = window O_d", got, table.O[d], got == table.O[d])
    return report


def check_oracle_grid(max_d: int) -> VerificationReport:
    """Recursive counts against the independent exhaustive filter on the
    full grid p <= 4, n <= 8, k <= 4 that the exhaustive search covers;
    one aggregated check per (p, d).  The exhaustive search caps max_d
    at 12."""
    if not 1 <= max_d <= 12:
        raise ValueError(f"suite oracle needs 1 <= max_d <= 12 (exhaustive search), got {max_d}")
    report = VerificationReport(suite="oracle", lo=1, hi=max_d)
    cache = CountCache()
    for p in range(1, 5):
        for d in range(1, max_d + 1):
            cells = 0
            bad: str | None = None
            for n in range(9):
                for k in range(5):
                    got = count_restricted(p, n, k, d, cache)
                    want = exhaustive_count(p, n, k, d)
                    cells += 1
                    if got != want and bad is None:
                        bad = f"n={n} k={k}: formula {got}, exhaustive {want}"
            claim = f"formula = exhaustive on p={p}, n<=8, k<=4"
            if bad is None:
                report.add(d, claim, f"{cells} cells", f"{cells} agree", True)
            else:
                report.add(d, claim, bad, "disagreement", False)
    return report


def check_window_bijection(max_d: int) -> VerificationReport:
    """Every multiplicity-d member (d >= 5) of the last-entry-above-1 family
    comes from exactly one parent move: strip a trailing 2 (landing in the
    d-2 bucket) or decrement the last entry (landing in the d-1 bucket).

    Bucket d holds the stems of mass d but (1,) of one ``iter_stems(max_d)``
    walk, which does not use the moves, so ``can_increment`` is checked
    against it.  The check streams and keeps no bucket.  A bucket in
    strictly increasing walk order repeats no stem.  In preorder a child's
    stripped parent is the last stem one depth up and its decremented stem
    the last at its own depth; both moves are injective, so these checks
    and equal counts give the set equalities.  A stem's O-sequence verdict
    extends its parent's by one step, or is ``is_o_sequence`` when the
    last stem one depth up is not its parent.  The walk's time caps max_d
    at 40."""
    if not 5 <= max_d <= 40:
        raise ValueError(f"suite bijection needs 5 <= max_d <= 40 (walk time), got {max_d}")
    n, dups, oseqs, ends2, ends3, incr, bad2, bad3 = ([0] * (max_d + 1) for _ in range(8))
    last = [()] * (max_d + 1)  # by bucket
    at = [((), 0, False, False)] * (max_d + 1)  # by depth: stem, bucket, verdict, incrementable
    for stem, rest in iter_stems(max_d):
        t, d, v = len(stem) - 1, max_d - rest, stem[-1]
        if not t:
            at[0] = (stem, d, is_o_sequence(stem), False)
            continue
        parent = stem[:-1]
        up, up_d, up_ok, _ = at[t - 1]
        if up == parent:
            ok = up_ok and v >= 1 and (t == 1 or v <= growth_bound(stem[-2], t - 1))
        else:
            ok = is_o_sequence(stem)
        inc = can_increment(t, stem[-2], v)
        dups[d] += stem <= last[d]
        last[d] = stem
        n[d] += 1
        oseqs[d] += ok
        incr[d] += inc
        if v == 2:
            ends2[d] += 1
            bad2[d] += up != parent or up_d != d - 2
        elif v >= 3:
            ends3[d] += 1
            prev, prev_d, _, prev_inc = at[t]
            bad3[d] += prev != parent + (v - 1,) or prev_d != d - 1 or not prev_inc
        at[t] = (stem, d, ok, inc)
    report = VerificationReport(suite="bijection", lo=5, hi=max_d)
    for d in range(5, max_d + 1):
        report.add(d, "no child is produced twice", n[d] - dups[d], n[d], not dups[d])
        report.add(d, "every child is an O-sequence", oseqs[d], n[d], oseqs[d] == n[d])
        report.add(d, "append-2 children restore the d-2 bucket", ends2[d], n[d - 2],
                   not bad2[d] and ends2[d] == n[d - 2])
        report.add(d, "increment children restore the d-1 extendable set",
                   ends3[d], incr[d - 1], not bad3[d] and ends3[d] == incr[d - 1])
    return report
