"""Recursive counting of O-sequences through lex-segment decompositions.

count_restricted(p, n, k, d) is the number of O-sequences (a_0, ..., a_s)
of multiplicity d realizable by a lex segment in p variables, with socle
degree s <= n, whose maximal-growth prefix has length exactly k, i.e.
a_i = C(p - 1 + i, i) for i <= k and a_i below that ceiling for k < i <= s.
The recursion splits the sous-escalier of such a segment by divisibility
by the dominant variable, which pairs each counted object with a product
of two smaller ones.

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

import os
from dataclasses import dataclass, field

from .macaulay import binomial

Key = tuple[int, int, int, int]

_HEADER = "# oseq-memo v1"


class CacheFormatError(Exception):
    """A persisted cache file does not follow the expected format."""


class CacheCorruptionError(Exception):
    """Two sources disagree on the count stored for the same key."""


@dataclass
class CountCache:
    """Memo store mapping (p, n, k, d) to a count, with idempotent insertion.

    ``insert`` is the one place a key is stored or a conflict refused.
    ``hits`` counts reads of stored keys: a top-level query found stored,
    and each factor a key's sum reads; ``misses`` counts keys that had to be
    expanded.  A loaded file and a warm second run therefore show zero
    misses.  Every stored count is positive.
    """

    entries: dict[Key, int] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: Key) -> bool:
        return key in self.entries

    def insert(self, key: Key, count: int) -> None:
        """Store key -> count; re-inserting the same value is a no-op."""
        old = self.entries.setdefault(key, count)
        if old != count:
            raise CacheCorruptionError(f"key {key} already maps to {old}, refusing to store {count}")


def _normalize(p: int, n: int, k: int, d: int) -> int | Key:
    """Settle a cell that passes the domain, prefix-mass and room tests of
    ``_resolve``, or return its memo key.  Capping n at d - 1, and p at d when
    k = 0 (at most d - 1 of the p variables can appear), keeps the memo
    small without changing any stored fact."""
    if n >= d:
        n = d - 1
    if k == 0 and p > d:
        p = d
    if p == 1:
        # one variable: the sequence is (1, 1, ..., 1), all growth maximal
        return 1 if (k == d - 1 and n >= d - 1) else 0
    return (p, n, k, d)


def _room(p: int, n: int, k: int, d: int) -> tuple[int, int]:
    """(full, spare) with full - spare = U(p, n, k), the number of terms of
    degree <= n in p variables in which x_p has exponent <= k: full =
    C(p + n, n) counts them all and spare = C(p + n - k - 1, p) those that
    x_p^(k + 1) divides.  When the terms free of x_p, C(p - 1 + n, n) of
    them, already reach d, the room never binds and (d, 0) stands in, so
    no value above about n * d is ever formed."""
    if binomial(p - 1 + n, n, cap=d) >= d:
        return d, 0
    return binomial(p + n, n), binomial(p + n - k - 1, p)


def _resolve(p: int, n: int, k: int, d: int) -> int | Key:
    """Settle a query immediately or return its normalized memo key: no such
    object when any parameter leaves its domain, k exceeds the socle bound,
    the forced prefix alone exceeds the multiplicity or d exceeds the room
    U(p, n, k), else as ``_normalize`` decides."""
    if d <= 0 or p < 1 or n < 0 or k < 0 or k > n:
        return 0
    # the forced prefix sums to C(p-1+i, i) over i <= k, which is C(p+k, k)
    if binomial(p + k, k, cap=d) > d:
        return 0
    full, spare = _room(p, n, k, d)
    if full - spare < d:
        return 0
    return _normalize(p, n, k, d)


def _summands(key: Key) -> list[tuple[int | Key, int | Key]]:
    """Factor pairs whose products sum to the count for ``key``.

    For k = 0 the prefix condition only constrains degree 0, and dropping
    the dominant variable leaves a segment in p - 1 variables with any
    prefix length.  For k > 0 the split by dominant-variable divisibility
    yields a multiplicity-(d - j) part in p - 1 variables with prefix
    length i >= k, paired with a multiplicity-j part in p variables with
    socle degree <= i - 1 and prefix length k - 1.

    The loop bounds are the emptiness rule of the module docstring, so each
    visited cell is nonzero and goes to ``_normalize`` alone.  A part in q
    variables, socle degree <= m and prefix length i is nonempty exactly
    when its forced mass C(q + i, i) <= its multiplicity <= U(q, m, i);
    both grow with i.  So the k = 0 loop runs over the kk with
    U(p - 1, n, kk) >= d and C(p - 1 + kk, kk) <= d, and for k > 0 each i
    from k, while the left factor's mass leaves room for the right one's,
    takes the j with

    - lo = C(p + k - 1, k - 1) <= j <= U(p, i - 1, k - 1)  (right factor),
    - C(p - 1 + i, i) <= d - j <= U(p - 1, n, i)  (left factor).

    The rest of the domain holds too (kk <= n, i <= n, k - 1 <= i - 1).
    Masses and rooms run as exact products from their values at the first
    kk or i: a capped mass ends its loop before any product, and ``_room``
    keeps the left room small.
    """
    p, n, k, d = key
    pairs: list[tuple[int | Key, int | Key]] = []
    # left room U(p - 1, n, i) = full - spare, spare = C(p - 2 + n - i, p - 1)
    full, spare = _room(p - 1, n, k, d)
    if k == 0:
        kk, mass = 0, 1
        while True:
            if full - spare >= d:
                pairs.append((_normalize(p - 1, n, kk, d), 1))
            kk += 1
            mass = mass * (p - 1 + kk) // kk
            if kk > n or mass > d:
                return pairs
            spare = spare * (n - kk) // (p - 1 + n - kk)
    lo = binomial(p + k - 1, k - 1, cap=d)
    # right room U(p, i - 1, k - 1) = big - small with big = C(p + i - 1, p),
    # small = C(p + i - 1 - k, p) and after = C(p + i - k, p), its next value;
    # the first mass is never too big, as C(p - 1 + k, k) + lo = C(p + k, k) <= d
    i, mass = k, binomial(p - 1 + k, k, cap=d)
    big, small, after = lo, 0, 1
    while True:
        for j in range(max(lo, d - full + spare), min(d - mass, big - small) + 1):
            pairs.append((_normalize(p - 1, n, i, d - j), _normalize(p, i - 1, k - 1, j)))
        i += 1
        mass = mass * (p - 1 + i) // i
        if i > n or mass > d - lo:
            return pairs
        spare = spare * (n - i) // (p - 1 + n - i)
        big = big * (p + i - 1) // (i - 1)
        small, after = after, after * (p + i - k) // (i - k)


def _ensure(key: Key, cache: CountCache) -> None:
    """Compute ``key`` into ``cache`` in one post-order walk.

    Depth grows with p + d, so the walk keeps an explicit stack of frames
    (a key, its summands derived once on push, the index of the first pair
    not yet seen cached).  A frame descends into its next uncached factor,
    else is popped, its sum stored and its reads added to ``hits`` at once.
    No key depends on itself, so each is pushed once.
    """
    entries = cache.entries
    stack = [(key, _summands(key), 0)]
    while stack:
        top, pairs, cursor = stack.pop()
        while cursor < len(pairs):
            left, right = pairs[cursor]
            missing = left if isinstance(left, tuple) and left not in entries else right
            if isinstance(missing, tuple) and missing not in entries:
                stack.append((top, pairs, cursor))
                stack.append((missing, _summands(missing), 0))
                break
            cursor += 1
        else:
            total = reads = 0
            for left, right in pairs:
                if isinstance(left, tuple):
                    reads += 1
                    left = entries[left]
                if isinstance(right, tuple):
                    reads += 1
                    right = entries[right]
                total += left * right
            cache.hits += reads
            cache.insert(top, total)
            cache.misses += 1


def count_restricted(p: int, n: int, k: int, d: int, cache: CountCache | None = None) -> int:
    """Count O-sequences of multiplicity d from lex segments in p variables,
    socle degree <= n, maximal-growth prefix of length exactly k."""
    settled = _resolve(p, n, k, d)
    if not isinstance(settled, tuple):
        return settled
    cache = cache if cache is not None else CountCache()
    if settled in cache:
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
    LF newlines, so files diff cleanly and merge deterministically.
    """
    lines = [_HEADER] + [f"{p},{n},{k},{d},{count}"
                         for (p, n, k, d), count in sorted(cache.entries.items())]
    write_atomic(path, "\n".join(lines) + "\n", "ascii")


def load_cache(path: str, into: CountCache | None = None) -> CountCache:
    """Read a persisted cache, merging into ``into`` when given.

    A key already present must carry the same count, otherwise the merge
    fails with CacheCorruptionError; malformed lines, a key that _resolve
    never returns (p >= 2 and 0 <= k <= n <= d - 1 hold for each), a
    negative count and bytes that are not ASCII raise CacheFormatError.
    A count of 0, which earlier versions stored for empty keys, is skipped:
    ``_resolve`` settles every such key, so none is ever read.
    """
    cache = into if into is not None else CountCache()
    try:
        with open(path, "r", encoding="ascii") as fh:
            first = fh.readline().rstrip("\n")
            if first != _HEADER:
                raise CacheFormatError(f"{path}: expected header {_HEADER!r}, got {first!r}")
            for lineno, raw in enumerate(fh, start=2):
                line = raw.rstrip("\n")
                if not line:
                    continue
                fields = line.split(",")
                if len(fields) != 5:
                    raise CacheFormatError(
                        f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
                try:
                    p, n, k, d, count = map(int, fields)
                except ValueError as exc:
                    raise CacheFormatError(f"{path}:{lineno}: non-integer field") from exc
                if count < 0 or p < 2 or not 0 <= k <= n < d:
                    raise CacheFormatError(f"{path}:{lineno}: key or count out of range")
                if not count:
                    continue
                try:
                    cache.insert((p, n, k, d), count)
                except CacheCorruptionError as exc:
                    raise CacheCorruptionError(f"{path}:{lineno}: {exc}") from None
    except UnicodeDecodeError as exc:
        # the file is decoded as it is read, so a stray byte surfaces here
        raise CacheFormatError(f"{path}: not an ASCII memo file: {exc}") from None
    return cache
