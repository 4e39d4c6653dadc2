"""Independent oracles shared by the test modules.

Everything here recomputes results from first principles, avoiding the
package's own code paths wherever the point is to cross-check them: the
growth bound is obtained by extension counting over explicit monomial
sets, never by binomial expansion.
"""
import re
from collections import Counter
from functools import lru_cache
from math import comb
from typing import NamedTuple

from oseq.analysis import VerificationReport
from oseq.counting import _resolve
from oseq.enumerator import can_increment
from oseq.lexseg import OrderIdeal
from oseq.macaulay import binomial, growth_bound, is_o_sequence


def degree_terms(t: int, p: int) -> list[tuple[int, ...]]:
    out = []

    def rec(remaining, vars_left, acc):
        if vars_left == 1:
            out.append(acc + (remaining,))
            return
        for e in range(remaining + 1):
            rec(remaining - e, vars_left - 1, acc + (e,))

    rec(t, p, ())
    return out


@lru_cache(maxsize=None)
def extension_bound(a: int, t: int) -> int:
    """Largest next value after a at degree t, by brute extension counting.

    Take the a smallest degree-t monomials (reversed-tuple lex, enough
    variables that the choice is unconstrained), then count degree-(t+1)
    monomials all of whose degree-t divisors were taken.
    """
    p = a + 2
    chosen = set(sorted(degree_terms(t, p), key=lambda m: m[::-1])[:a])
    count = 0
    for m in degree_terms(t + 1, p):
        if all(
            m[:i] + (m[i] - 1,) + m[i + 1 :] in chosen
            for i in range(p)
            if m[i] > 0
        ):
            count += 1
    return count


def is_oseq_by_extension(seq: tuple[int, ...]) -> bool:
    if not seq or seq[0] != 1 or any(v < 1 for v in seq):
        return False
    return all(
        seq[t + 1] <= extension_bound(seq[t], t) for t in range(1, len(seq) - 1)
    )


def compositions(total: int, max_parts: int):
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first, max_parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def brute_sequences(d: int) -> tuple[tuple[int, ...], ...]:
    """All O-sequences of multiplicity d, via composition filtering with the
    extension-oracle bound.  Usable up to d around 14."""
    found = [
        (1,) + tail
        for tail in compositions(d - 1, d - 1)
        if is_oseq_by_extension((1,) + tail)
    ]
    return tuple(sorted(found))


def all_decreasing_top_expansions(a: int, t: int) -> list[list[int]]:
    """Every strictly-decreasing-tops representation of a in base t, found
    exhaustively; used to confirm the greedy expansion is the unique one."""
    results = []

    def rec(remaining, lower, last_top, acc):
        if remaining == 0:
            results.append(acc)
            return
        if lower < 1:
            return
        for top in range(lower, last_top):
            value = comb(top, lower)
            if 0 < value <= remaining:
                rec(remaining - value, lower - 1, top, acc + [top])

    rec(a, t, a + t + 2, [])
    return results


def fibonacci_upto(limit: int) -> list[int]:
    fib = [0, 1, 1]
    while len(fib) <= limit:
        fib.append(fib[-1] + fib[-2])
    return fib[: limit + 1]


def first_lex_terms(t: int, p: int, count: int) -> list[tuple[int, ...]]:
    ordered = sorted(degree_terms(t, p), key=lambda m: m[::-1])
    return ordered[:count]


def full_grid_summands(key):
    """Summands of a memo key by the unbounded scan: every (i, j) cell, each
    factor settled by ``counting._resolve``, in the shape of
    ``counting._summands`` (ones, singles, lefts, rights), which must keep
    exactly these cells in this order."""
    p, n, k, d = key
    pairs = []
    if k == 0:
        for kk in range(d):
            left = _resolve(p - 1, n, kk, d)
            if left != 0:
                pairs.append((left, 1))
    else:
        for i in range(k, n + 1):
            for j in range(1, d):
                left = _resolve(p - 1, n, i, d - j)
                right = _resolve(p, i - 1, k - 1, j)
                if left != 0 and right != 0:
                    pairs.append((left, right))
    ones, singles, lefts, rights = 0, [], [], []
    for left, right in pairs:
        keys = [f for f in (left, right) if isinstance(f, tuple)]
        assert (left, right).count(1) == 2 - len(keys)  # a factor that is not a key is 1
        if len(keys) == 2:
            lefts.append(left)
            rights.append(right)
        elif keys:
            singles.append(keys[0])
        else:
            ones += 1
    return ones, singles, lefts, rights


def _guarded_key(p: int, n: int, k: int, d: int):
    """The guards of ``counting._resolve`` without its room test: the domain
    and prefix-mass guards, then the normalization (n capped at d - 1, p at
    d when k = 0, the one-variable rule).  Kept here, so that the emptiness
    rule is checked against a recursion that does not use it."""
    if d <= 0 or p < 1 or n < 0 or k < 0 or k > n:
        return 0
    if comb(p + k, k) > d:
        return 0
    n = min(n, d - 1)
    if k == 0 and p > d:
        p = d
    if p == 1:
        return 1 if (k == d - 1 and n >= d - 1) else 0
    return (p, n, k, d)


def reference_count(p: int, n: int, k: int, d: int) -> int:
    """``count_restricted`` by the full-grid recursion on ``_guarded_key``:
    every (i, j) cell of the split, with no loop bound and no emptiness
    test, memoized per key."""
    key = _guarded_key(p, n, k, d)
    return key if isinstance(key, int) else _reference_key(*key)


@lru_cache(maxsize=None)
def _reference_key(p: int, n: int, k: int, d: int) -> int:
    if k == 0:
        return sum(reference_count(p - 1, n, kk, d) for kk in range(d))
    return sum(reference_count(p - 1, n, i, d - j) * reference_count(p, i - 1, k - 1, j)
               for i in range(k, n + 1) for j in range(1, d))


def emptiness_rule(p: int, n: int, k: int, d: int) -> bool:
    """The module rule of ``counting`` in closed form: nonempty exactly when
    C(p + k, k) <= d <= C(p + n, n) - C(p + n - k - 1, p), for 0 <= k <= n."""
    return comb(p + k, k) <= d <= comb(p + n, n) - comb(p + n - k - 1, p)


@lru_cache(maxsize=None)
def _cellwise_candidates(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    seqs = ((1,) + tail for tail in compositions(d - 1, n))
    return tuple(seq for seq in seqs if is_o_sequence(seq))


def _cellwise_prefix(seq, p: int, d: int):
    k = 0
    while k + 1 < len(seq) and seq[k + 1] == binomial(p + k, k + 1, cap=d):
        k += 1
    if any(seq[t] > binomial(p - 1 + t, t, cap=d) for t in range(len(seq))):
        return None
    return k


def cellwise_exhaustive_count(p: int, n: int, k: int, d: int) -> int:
    """``lexseg.exhaustive_count`` by a filter of its own for every cell:
    the O-sequences among the compositions of d with socle degree <= n,
    each checked against the term counts in p variables and its prefix
    length compared with k.  The reference for the tally that
    ``lexseg._classes`` makes once per (p, d)."""
    if d < 1 or p < 1 or n < 0 or k < 0:
        return 0
    return sum(_cellwise_prefix(seq, p, d) == k for seq in _cellwise_candidates(n, d))


def socle_degree(ideal: OrderIdeal) -> int:
    """The top degree of the ideal's terms."""
    return len(ideal.degree_counts) - 1


def is_closed(ideal: OrderIdeal) -> bool:
    """True iff every term's single-variable quotients are all present."""
    for term in ideal.terms:
        for i, e in enumerate(term):
            if e > 0:
                quotient = term[:i] + (e - 1,) + term[i + 1 :]
                if quotient not in ideal.terms:
                    return False
    return True


class Classification(NamedTuple):
    socle_degree: int
    max_prefix: int
    multiplicity: int


def classify(ideal: OrderIdeal) -> Classification:
    """Socle degree, maximal-growth prefix length and multiplicity.

    The prefix length is the largest k with degree counts equal to
    C(p - 1 + i, i) for all i <= k, i.e. the degrees filled completely.
    """
    if not ideal.terms:
        raise ValueError("cannot classify the empty set")
    counts = ideal.degree_counts
    if counts[0] != 1:
        raise ValueError("classification expects the unit term present")
    k = 0
    while k + 1 < len(counts) and counts[k + 1] == binomial(ideal.p + k, k + 1):
        k += 1
    return Classification(
        socle_degree=socle_degree(ideal),
        max_prefix=k,
        multiplicity=ideal.multiplicity,
    )


@lru_cache(maxsize=None)
def bounded_partitions(m: int, parts: int, largest: int) -> int:
    """Partitions of m into at most ``parts`` parts, each at most ``largest``."""
    if m == 0:
        return 1
    if m < 0 or parts == 0 or largest == 0:
        return 0
    # either every part is below ``largest``, or one part equals it
    return (bounded_partitions(m, parts, largest - 1)
            + bounded_partitions(m - largest, parts - 1, largest))


def two_variable_count(n: int, k: int, d: int) -> int:
    """``count_restricted(2, n, k, d)`` from the shape of two-variable
    O-sequences, without the recursion.

    A prefix of length exactly k is 1, 2, ..., k + 1, of mass C(k + 2, 2),
    and a_{k+1} <= k + 1.  In two variables a value a <= t at degree t can
    grow to at most a, so the tail is nonincreasing with entries <= k + 1,
    and the socle bound allows at most n - k of them: a partition of the
    remaining mass.
    """
    if k > n:
        return 0
    return bounded_partitions(d - comb(k + 2, 2), n - k, k + 1)


def normal(p: int, n: int, k: int, d: int) -> tuple[int, int, int, int]:
    """A key with the same restricted count as (p, n, k, d), for a nonempty
    key: only the mass r = d - C(p + k, k) past the forced prefix matters.
    Each later entry is at least 1, so the socle degree is at most k + r;
    a_{k+1} <= r, so p may drop to the least p' >= 2 with
    C(p' + k, k + 1) > r, where the ceilings past the prefix stop binding;
    d moves with p to keep r."""
    r = d - comb(p + k, k)
    low = 2
    while low < p and comb(low + k, k + 1) <= r:
        low += 1
    return low, min(n, k + r), k, comb(low + k, k) + r


def stem_walk(d: int):
    """(stem, rest) for every O-sequence stem + (1,) * rest of multiplicity d,
    by a stack of whole stem tuples: each node pushes one tuple per child,
    largest entry first, and looks up the growth bound even when its rest
    leaves no room for a child.  The reference for ``enumerator.iter_stems``,
    which must yield the same stems in the same order (with a larger
    ``leaf_rest``, only those below no proper ancestor but the root with
    rest at most ``leaf_rest``), and for the lines of ``iter_text``, which
    writes them from one ``iter_stems`` walk."""
    if d < 1:
        raise ValueError(f"multiplicity must be positive, got {d}")
    stack = [((1,), d - 1)]
    while stack:
        stem, rest = stack.pop()
        yield stem, rest
        t = len(stem) - 1
        top = rest if t == 0 else min(rest, growth_bound(stem[-1], t))
        # pushed largest first, so the smallest next entry is walked first
        stack.extend((stem + (v,), rest - v) for v in range(top, 1, -1))


def flat_window(max_d: int) -> tuple[list[int], list[int]]:
    """(O, A) up to max_d, index 0 unused, by the sliding window with one
    flat ``Counter`` of states (s, a_{s-1}, a_s) per bucket and one growth
    bound lookup per state.  The reference for ``enumerator.count_table``,
    which holds the same states grouped by (s, a_{s-1})."""
    a = [0] * (max_d + 1)
    if max_d >= 3:
        a[3] = 1
    two_back: Counter = Counter()
    one_back: Counter = Counter({(1, 1, 2): 1})
    for d in range(4, max_d + 1):
        bucket: Counter = Counter()
        for (s, _, last), n in two_back.items():
            bucket[(s + 1, last, 2)] += n
        for (s, prev, last), n in one_back.items():
            if s == 1 or last < growth_bound(prev, s - 1):
                bucket[(s, prev, last + 1)] += n
        a[d] = sum(bucket.values())
        two_back, one_back = one_back, bucket
    o = [0] * (max_d + 1)
    o[1] = 1
    for d in range(2, max_d + 1):
        o[d] = o[d - 1] + a[d]
    return o, a


@lru_cache(maxsize=None)
def last_gt1_bucket(d: int) -> tuple[tuple[int, ...], ...]:
    """The O-sequences of multiplicity d whose last entry exceeds 1, in
    lexicographic order, from their own ``stem_walk(d)``."""
    return tuple(stem for stem, rest in stem_walk(d) if not rest and stem[-1] > 1)


def reference_bijection_report(max_d: int) -> VerificationReport:
    """``analysis.check_window_bijection`` by sets: each bucket is held
    whole, the children of each move are collected and compared with the
    bucket they should restore, and every child goes to ``is_o_sequence``.
    The buckets come from ``stem_walk``, which shares no code with
    ``iter_stems``; the increment rule is the window's ``can_increment``."""
    buckets = {d: last_gt1_bucket(d) for d in range(3, max_d + 1)}
    report = VerificationReport(suite="bijection", lo=5, hi=max_d)
    for d in range(5, max_d + 1):
        children = buckets[d]
        distinct = len(set(children)) == len(children)
        report.add(d, "no child is produced twice", len(set(children)), len(children), distinct)
        from_append = {c[:-1] for c in children if c[-1] == 2}
        from_incr = {c[:-1] + (c[-1] - 1,) for c in children if c[-1] >= 3}
        ok = sum(1 for c in children if is_o_sequence(c))
        report.add(d, "every child is an O-sequence", ok, len(children), ok == len(children))
        report.add(d, "append-2 children restore the d-2 bucket",
                   len(from_append), len(buckets[d - 2]),
                   from_append == set(buckets[d - 2]))
        incrementable = {s for s in buckets[d - 1]
                         if can_increment(len(s) - 1, s[-2], s[-1])}
        report.add(d, "increment children restore the d-1 extendable set",
                   len(from_incr), len(incrementable), from_incr == incrementable)
    return report


MEMO_HEADER = "# oseq-memo v1"


def strict_line_loop(data: bytes) -> list | tuple[int | None, str]:
    """A memo file read one line at a time, accepting only what
    ``save_cache`` writes: the entries with nonzero counts in file order, or
    (line, reason) for the first line at fault, with line None when the
    encoding or the header is at fault.  The reason is a phrase of the
    error that ``load_cache`` raises."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return None, "not an ASCII memo file"
    header, *lines = text.split("\n")
    if header != MEMO_HEADER:
        return None, "expected header"
    if not lines:
        return 1, "has no LF"
    entries = {}
    for lineno, line in enumerate(lines[:-1], start=2):
        fields = line.split(",")
        if len(fields) != 5:
            return lineno, "expected 5 fields"
        if not all(re.fullmatch("[0-9]+", field) for field in fields):
            return lineno, "not decimal digits"
        if any(len(field) > 1 and field[0] == "0" for field in fields):
            return lineno, "leading zero"
        try:
            p, n, k, d, count = map(int, fields)
        except ValueError:  # more digits than int() takes
            return lineno, "too many digits"
        key = (p, n, k, d)
        if p < 2 or not 0 <= k <= n < d:
            return lineno, "out of range"
        if key in entries:
            return lineno, "already maps to"
        entries[key] = count
    if lines[-1]:
        return len(lines) + 1, "has no LF"
    return [(key, count) for key, count in entries.items() if count]
