"""Recursive counting of O-sequences through lex-segment decompositions.

count_restricted(p, n, k, d) is the number of O-sequences (a_0, ..., a_s)
of multiplicity d realizable by a lex segment in p variables, with socle
degree s <= n, whose maximal-growth prefix has length exactly k, i.e.
a_i = C(p - 1 + i, i) for i <= k and a_i below that ceiling for k < i <= s.
The recursion splits the sous-escalier of such a segment by divisibility
by the dominant variable, which pairs each counted object with a product
of two smaller ones; in two variables it drops one entry of the sequence
instead (the box recurrence of ``_summands``).

The total count of O-sequences of multiplicity d is the restricted count
in d variables with prefix length 0 and unbounded socle degree (n = d - 1
suffices: multiplicity d forces s <= d - 1).

Emptiness rule: for 0 <= k <= n, count_restricted(p, n, k, d) > 0 exactly
when C(p + k, k) <= d <= U(p, n, k), where
U(p, n, k) = C(p + n, n) - C(p + n - k - 1, p) is the number of terms of
degree <= n in p variables in which x_p has exponent <= k (for k = n: d =
C(p + k, k)).  The forced prefix has mass C(p + k, k).  Past it,
a_{k+1} <= C(p + k, k + 1) - 1, and by Macaulay's theorem each later entry
is at most the maximal growth from that value, the degree-t terms that
x_p^(k+1) does not divide; summed to degree n this is U(p, n, k), and it is
attained.  Lowering the last nonzero entry of that largest sequence one
step at a time keeps an O-sequence with the same prefix, so every d down
to C(p + k, k) occurs.  The recursion creates only nonempty keys.
"""
from __future__ import annotations

import json
import operator
import os
import re
import sys
from dataclasses import dataclass, field
from itertools import chain, filterfalse, repeat
from math import comb

from .macaulay import binomial

Key = tuple[int, int, int, int]

_HEADER = "# oseq-memo v1"
# the body save_cache writes, five decimal fields a line ending in LF; json.loads refuses 07
_CANONICAL_BODY = re.compile(r"(?:[0-9]+,[0-9]+,[0-9]+,[0-9]+,[0-9]+\n)*")


class CacheFormatError(Exception):
    """A persisted cache file does not follow the expected format."""


@dataclass
class CountCache:
    """Memo store mapping (p, n, k, d) to a count.

    ``_ensure`` stores each key once, when its sum is complete, and
    ``load_cache`` builds a store from a file.  ``hits`` counts reads of
    stored keys: a top-level query found stored, and each factor a key's sum
    reads; ``misses`` counts keys that had to be expanded.  A loaded file
    and a warm second run therefore show zero misses.  Every stored count
    is positive.
    """

    entries: dict[Key, int] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def __len__(self) -> int:
        return len(self.entries)


def _room(p: int, n: int, k: int, d: int) -> tuple[int, int]:
    """(full, spare) with full - spare = U(p, n, k), the number of terms of
    degree <= n in p variables in which x_p has exponent <= k: full =
    C(p + n, n) counts them all and spare = C(p + n - k - 1, p) those that
    x_p^(k + 1) divides.  When the terms free of x_p, C(p - 1 + n, n) of
    them, already reach d, the room never binds and (d, 0) stands in, so
    no value above about n * d is ever formed.  For 0 < n < p - 1 + n that
    count is at least p - 1 + n, which settles most keys with no binomial."""
    if p - 1 + n >= d and 0 < n < p - 1 + n or binomial(p - 1 + n, n, cap=d) >= d:
        return d, 0
    return binomial(p + n, n), binomial(p + n - k - 1, p)


def _resolve(p: int, n: int, k: int, d: int) -> int | Key:
    """Settle a query immediately or return its normalized memo key: no such
    object when any parameter leaves its domain, k exceeds the socle bound,
    the forced prefix alone exceeds the multiplicity or d exceeds the room
    U(p, n, k)."""
    if d <= 0 or p < 1 or n < 0 or k < 0 or k > n:
        return 0
    # the forced prefix sums to C(p-1+i, i) over i <= k, which is C(p+k, k)
    if binomial(p + k, k, cap=d) > d:
        return 0
    full, spare = _room(p, n, k, d)
    if full - spare < d:
        return 0
    # Capping n at d - 1, and p at d when k = 0 (at most d - 1 of the p
    # variables can appear), keeps the memo small without changing any
    # stored fact.  In one variable the only sequence is (1, 1, ..., 1),
    # whose prefix is all of it, so it counts 1 exactly when k = d - 1 <= n.
    # The tests above force that: the prefix mass k + 1 <= d and the room
    # U(1, n, k) = k + 1 >= d (the bounds of ``_summands`` are the same), so
    # a one-variable cell that reaches here counts 1.
    if n >= d:
        n = d - 1
    if k == 0 and p > d:
        p = d
    return 1 if p == 1 else (p, n, k, d)


def _summands(key: Key) -> tuple[int, list[Key], list[Key], list[Key]]:
    """(ones, singles, lefts, rights): the count for ``key`` is ``ones``
    plus the counts of ``singles`` plus the products of the counts of
    ``lefts`` and ``rights`` taken in pairs.

    For p = 2 the count follows the box recurrence.  In two variables a
    sequence is the prefix 1, 2, ..., k + 1 and then a nonincreasing tail
    whose entries are at most k + 1, so for k = 0 there is one.  For k >= 1,
    count(2, n, k, d) = count(2, n - 1, k - 1, d - k - 1) +
    count(2, n - 1, k, d - k - 1): if the tail does not start with k + 1,
    dropping a_k = k + 1 leaves a sequence with prefix length k - 1; if it
    does, dropping that first tail entry leaves one with prefix length k.
    Both maps are reversible and cut the socle degree by one and the
    multiplicity by k + 1.  A term is kept when nonempty, C(k' + 2, 2) <=
    d' <= U(2, n', k') = (k' + 1)(n' + 1) - C(k' + 1, 2), which also forces
    k' <= n', and with k' = 0 it counts 1.

    For p >= 3 and k = 0 the prefix condition only constrains degree 0,
    and dropping the dominant variable leaves a segment in p - 1 variables
    with any prefix length.  For k > 0 the split by dominant-variable
    divisibility yields a multiplicity-(d - j) part in p - 1 variables with
    prefix length i >= k, paired with a multiplicity-j part in p variables
    with socle degree <= i - 1 and prefix length k - 1.

    The loop bounds are the emptiness rule of the module docstring, so every
    cell is nonzero; each loop caps n at the multiplicity less one and p at
    the multiplicity when k = 0 itself, as ``_resolve`` does, and a
    one-variable part counts 1.  A part in q variables, socle degree <= m
    and prefix length i is nonempty exactly when its forced mass
    C(q + i, i) <= its multiplicity <= U(q, m, i); both grow with i.  So
    the k = 0 loop runs over the kk with U(p - 1, n, kk) >= d and
    C(p - 1 + kk, kk) <= d, and for k > 0 each i from k, while the left
    factor's mass leaves room for the right one's, takes the j with

    - lo = C(p + k - 1, k - 1) <= j <= U(p, i - 1, k - 1)  (right factor),
    - C(p - 1 + i, i) <= d - j <= U(p - 1, n, i)  (left factor).

    The rest of the domain holds too (kk <= n, i <= n, k - 1 <= i - 1).
    Every key here passed the prefix-mass test, so lo + C(p - 1 + k, k) =
    C(p + k, k) <= d and both are exact and small.  Masses and rooms run as
    exact products from their values at the first kk or i, and ``_room``
    keeps the left room small.  The kk loop steps its running products to
    its first kk with room before it lists any cell, and the i loop steps
    over the i whose j interval is empty, 7 415 of its 59 464 steps at
    O_200, which costs less than a search for the first one.
    """
    p, n, k, d = key
    q = p - 1
    singles: list[Key] = []
    if p == 2:
        if k == 0:
            return 1, singles, [], []
        ones = 0
        d -= k + 1
        n = (n if n < d else d) - 1
        for kk in k - 1, k:
            if (kk + 1) * (kk + 2) // 2 <= d <= (kk + 1) * (n + 1) - kk * (kk + 1) // 2:
                if kk:
                    singles.append((2, n, kk, d))
                else:
                    ones = 1
        return ones, singles, [], []
    # left room U(p - 1, n, i) = full - spare, spare = C(p - 2 + n - i, p - 1)
    full, spare = _room(q, n, k, d)
    if k == 0:
        kk, mass = 0, 1
        while full - spare < d:
            kk += 1
            mass = mass * (q + kk) // kk
            spare = spare * (n - kk) // (q + n - kk)
        first = kk
        while kk < n and mass * (q + kk + 1) <= d * (kk + 1):
            kk += 1
            mass = mass * (q + kk) // kk
        singles += zip(repeat(q), repeat(n), range(first, kk + 1), repeat(d))
        return 0, singles, [], []
    lefts: list[Key] = []
    rights: list[Key] = []
    lo = comb(p + k - 1, k - 1)
    # right room U(p, i - 1, k - 1) = big - small with big = C(p + i - 1, p),
    # small = C(p + i - 1 - k, p) and after = C(p + i - k, p), its next value
    i, mass = k, lo * p // k
    cut = d - n  # the left part's socle degree is n for j < cut, else d - j - 1
    big, small, after = lo, 0, 1
    while True:
        low, high = d - full + spare, d - mass
        if low < lo:
            low = lo
        if high > big - small:
            high = big - small
        if low == 1 <= high:  # k = 1: at j = 1 the right part has one variable
            singles.append((q, n if n < d - 2 else d - 2, i, d - 1))
            low = 2
        for j in range(low, high + 1):
            lefts.append((q, n if j < cut else d - 1 - j, i, d - j))
            rights.append((j if j < p and k == 1 else p, i - 1 if j >= i else j - 1, k - 1, j))
        i += 1
        mass = mass * (q + i) // i
        if i > n or mass > d - lo:
            return 0, singles, lefts, rights
        spare = spare * (n - i) // (q + n - i)
        big = big * (p + i - 1) // (i - 1)
        small, after = after, after * (p + i - k) // (i - k)


def _ensure(key: Key, cache: CountCache) -> None:
    """Compute ``key`` into ``cache`` in one post-order walk.

    Depth grows with p + d, so the walk keeps an explicit stack of frames
    (a key, its summands derived once on push, and one iterator over its
    factor keys that skips those already stored).  A frame descends into
    its next unstored factor, else is popped, its sum stored and its reads
    (one per single, two per pair) added to ``hits`` at once.  No key
    depends on itself, so each is pushed once and stored once.
    """
    entries = cache.entries
    get, stored = entries.__getitem__, entries.__contains__

    def frame(top: Key) -> tuple:
        summands = _summands(top)
        _, singles, lefts, rights = summands
        factors = chain(singles, lefts, rights) if lefts else singles
        return top, summands, filterfalse(stored, factors)

    stack = [frame(key)]
    while stack:
        top, (ones, singles, lefts, rights), pending = stack[-1]
        factor = next(pending, None)
        if factor is not None:
            stack.append(frame(factor))
            continue
        stack.pop()
        total = ones + sum(map(get, singles))
        if lefts:
            total += sum(map(operator.mul, map(get, lefts), map(get, rights)))
        entries[top] = total
        cache.hits += len(singles) + 2 * len(lefts)
        cache.misses += 1


def count_restricted(p: int, n: int, k: int, d: int, cache: CountCache | None = None) -> int:
    """Count O-sequences of multiplicity d from lex segments in p variables,
    socle degree <= n, maximal-growth prefix of length exactly k."""
    settled = _resolve(p, n, k, d)
    if not isinstance(settled, tuple):
        return settled
    cache = cache if cache is not None else CountCache()
    if settled in cache.entries:
        cache.hits += 1
    else:
        _ensure(settled, cache)
    return cache.entries[settled]


def count_via_formula(d: int, cache: CountCache | None = None) -> int:
    """Total number of O-sequences of multiplicity d, by the recursion alone.

    Every O-sequence with a_1 = p embeds as a lex segment in p variables,
    and p <= d, so the prefix split in d variables with the socle degree
    unconstrained covers everything exactly once.  Only the prefix length
    k = 0 contributes: for k >= 1 the forced prefix already has mass
    C(d + k, k) >= d + 1 > d, so every other term of the split is 0.
    """
    if d < 1:
        raise ValueError(f"multiplicity must be positive, got {d}")
    return count_restricted(d, d - 1, 0, d, cache)


def write_atomic(path: str, text: str, encoding: str) -> None:
    """Replace ``path`` by ``text`` through a temporary file in the same
    directory, so a failed write leaves the old file and no temporary one.
    A temporary that cannot be created is reported under ``path``, so the
    message does not change from run to run."""
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        fh = open(tmp, "x", encoding=encoding, newline="")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_cache(cache: CountCache, path: str) -> None:
    """Write the cache in the line format ``p,n,k,d,count``, keys ascending.

    The header line pins the format version; decimal ASCII, no spaces,
    LF newlines, so files diff cleanly.
    """
    lines = [_HEADER] + [f"{p},{n},{k},{d},{count}"
                         for (p, n, k, d), count in sorted(cache.entries.items())]
    write_atomic(path, "\n".join(lines) + "\n", "ascii")


def load_cache(path: str) -> CountCache:
    """Read a persisted cache into a new CountCache.

    Only a file as ``save_cache`` writes it loads, checked and parsed in
    bulk: the header, then ``p,n,k,d,count`` lines of decimal digits with no
    leading zero, each ending in LF, no key twice and every key in p >= 2
    and 0 <= k <= n <= d - 1.  Any other file raises CacheFormatError that
    names the file (a byte that is not ASCII, a wrong header) or the first
    line at fault, so a file cut inside its last line is refused; a cut on a
    line boundary is not detected.  A key in range that _resolve never
    returns loads unread, and a count of 0 (from earlier versions) is skipped.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CacheFormatError(f"{path}: not an ASCII memo file: {exc}") from None
    start = len(_HEADER) + 1
    if not text.startswith(_HEADER + "\n"):
        if text == _HEADER:
            raise _refusal(path, text, 0)
        first = text[:start].partition("\n")[0]  # no longer than the header and its LF
        raise CacheFormatError(f"{path}: expected header {_HEADER!r}, got {first!r}")
    # the lines before offset stop parse; fault is the error for the line there
    stop = (_CANONICAL_BODY.fullmatch(text, start) or _CANONICAL_BODY.match(text, start)).end()
    fault = stop < len(text) and _refusal(path, text, stop)
    try:
        values = json.loads("[" + text[start:stop - 1].replace("\n", ",") + "]")
    except ValueError as exc:
        # a leading zero ("[" shifts positions by one) or more digits than int()
        # takes; json parses in order, so the lines before the field parse
        at = (start + exc.pos - 1 if isinstance(exc, json.JSONDecodeError) else re.compile(
            f"[0-9]{{{sys.get_int_max_str_digits() + 1}}}").search(text, start).start())
        stop = text.rfind("\n", 0, at) + 1
        fault = _refusal(path, text, stop, "a field has a leading zero or too many digits")
        values = json.loads("[" + text[start:stop - 1].replace("\n", ",") + "]")
    ps, ns, ks, ds, counts = (values[i::5] for i in range(5))
    entries = dict(zip(zip(ps, ns, ks, ds), counts))
    # the pattern admits no sign, so k >= 0 and every count >= 0
    if (len(entries) < len(counts) or min(ps, default=2) < 2
            or not all(map(operator.le, ks, ns)) or not all(map(operator.lt, ns, ds))):
        entries = {}  # some line fails a test: name the first
        for lineno, (p, n, k, d, count) in enumerate(zip(ps, ns, ks, ds, counts), start=2):
            key = (p, n, k, d)
            if p < 2 or not k <= n < d:
                raise CacheFormatError(f"{path}:{lineno}: key {key} out of range")
            if key in entries:
                raise CacheFormatError(f"{path}:{lineno}: key {key} already maps to "
                                       f"{entries[key]}, refusing to store {count}")
            entries[key] = count
    if fault:
        raise fault
    if 0 in counts:
        entries = {key: count for key, count in entries.items() if count}
    return CountCache(entries)


def _refusal(path: str, text: str, at: int, reason: str = "") -> CacheFormatError:
    """The error naming the line of ``text`` that starts at offset ``at``:
    ``reason``, or by default why it is not five digit fields and an LF."""
    line, lf, _ = text[at:].partition("\n")
    reason = reason or (f"last line {line!r} has no LF; the file looks cut short" if not lf
                        else "a field is not decimal digits" if line.count(",") == 4
                        else f"expected 5 fields, got {line.count(',') + 1}")
    return CacheFormatError(f"{path}:{text.count(chr(10), 0, at) + 1}: {reason}")
