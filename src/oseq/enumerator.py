"""Counting and listing of finite O-sequences by multiplicity.

Sequences are grouped by multiplicity d (the sum of the entries).  Writing
A_d for the set of O-sequences of multiplicity d whose last entry exceeds 1,
every member of A_d arises from exactly one of two moves:

  * append 2 to a member of A_{d-2}, or
  * increment the last entry of a member of A_{d-1} (when the growth bound
    at that position allows it).

Children of the first move end in 2 and children of the second end in >= 3,
so the union is disjoint.  The O-sequences of multiplicity d that end in 1
are exactly the members of A_m (m < d) padded with 1s, plus the all-ones
sequence, giving the count recurrence O_d = O_{d-1} + |A_d|.

Whether a member can be incremented depends only on its state
(s, a_{s-1}, a_s), so count_table keeps a window of two buckets of state
counts, never the sequences themselves.  The cap that decides it,
entry_cap(s, a_{s-1}), does not depend on a_s, so each bucket holds its
states by group, {(s, a_{s-1}): {a_s: count}}, and the window looks the
cap up once per group and step: 2 227 growth_bound lookups up to d = 42,
against 8 438 at one per state.

Listing does not use the two moves.  Since growth_bound(1, t) = 1 for
t >= 1, an entry 1 after position 0 forces every later entry to be 1, so
each O-sequence is a stem (1, a_1, ..., a_s) with every a_t >= 2, followed
by trailing 1s.  One depth-first walk over the stems, iter_stems, visits
each O-sequence once, in lexicographic order.  Its stack holds, for each
open stem, the entries still to try, its rest (the mass left for the
trailing part) and the stem itself.

The subtree under a stem (t, a_t, rest) depends only on those numbers,
and once a_t <= t not on t (674 classes among 25 674 stems at d = 32).
So iter_text, the text of ``oseq enumerate``, walks only the stems with
rest above BLOCK_REST, and writes every other subtree as one block of
text, built once per call from its children's blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterator

from .macaulay import growth_bound

Sequence = tuple[int, ...]
Group = tuple[int, int]

# The largest rest of a stem whose subtree iter_text writes as one memoized
# block; a stem with more rest prints its own line.
BLOCK_REST = 20


@dataclass
class CountTable:
    """Counts O[d] and A[d] for 1 <= d <= max_d; index 0 is unused."""

    max_d: int
    O: list[int]
    A: list[int]

    def rows(self) -> Iterator[tuple[int, int, int]]:
        for d in range(1, self.max_d + 1):
            yield d, self.O[d], self.A[d]


def entry_cap(s: int, prev: int) -> float:
    """The largest entry an O-sequence may hold at position s after prev at
    s - 1: the increment rule of count_table, which grows a_s only below
    this cap, and of ``can_increment``.  Unbounded at s = 1, where the
    step out of a_0 = 1 is unconstrained; no lookup is made there."""
    return inf if s == 1 else growth_bound(prev, s - 1)


def can_increment(s: int, prev: int, last: int) -> bool:
    """Whether a sequence ending (..., prev, last) with last at position s
    stays an O-sequence when last grows by one: the increment move of
    count_table, decided by the state (s, a_{s-1}, a_s) alone."""
    return last < entry_cap(s, prev)


def _entries(t: int, v: int, rest: int) -> range:
    """The entries a_{t+1} of the children of node (t, v, rest).

    The step out of a_0 = 1 is unconstrained; after it the growth bound
    caps the next entry.  Every entry after a_0 is at least 2, so the range
    is empty at rest below 2, where the walks make no lookup unless
    ``iter_stems`` is told to expand such stems.
    """
    return range(2, (rest if t == 0 else min(rest, growth_bound(v, t))) + 1)


def iter_text(d: int, last_gt_1: bool = False) -> Iterator[str]:
    """The text of ``oseq enumerate d``: one line per O-sequence of
    multiplicity d, its entries joined by commas, in the order of
    ``iter_stems(d)``; with ``last_gt_1`` only the lines of sequences whose
    last entry exceeds 1.  Yields chunks of whole lines.

    The lines under a stem (t, v, rest), less the stem's own text, depend
    only on (min(t, v), v, rest): once v <= t every entry below is at most
    v, and growth_bound(v, u) = v for v <= u.  So the walk is
    ``iter_stems(d, BLOCK_REST)``: the root and each stem with rest above
    BLOCK_REST print their own line, and every other stem writes its
    subtree as one block, memoized by that triple and built (with the real
    t) from its children's blocks, each child's lines taking their entry
    in front through one ``str.replace``.  A block's recursion is at most
    BLOCK_REST // 2 + 1 deep.  The root line comes out before any block is
    built.  The memo lives only as long as the generator.
    """
    # A block holds one "\n" + suffix per stem of the subtree, in preorder;
    # the suffix is what follows the stem's text on its line, and is the
    # empty string for a stem whose line is not printed.
    memo: dict[tuple[int, int, int], str] = {}

    def block(t: int, v: int, rest: int) -> str:
        key = (t if v > t else v, v, rest)
        if key not in memo:
            parts = ["" if rest else "\n"] if last_gt_1 else ["\n" + ",1" * rest]
            if rest >= 2:
                for w in _entries(t, v, rest):
                    parts.append(block(t + 1, w, rest - w).replace("\n", f"\n,{w}"))
            memo[key] = "".join(parts)
        return memo[key]

    texts: list[str] = []  # the text of each walked stem, by depth
    for stem, rest in iter_stems(d, BLOCK_REST):
        t, v = len(stem) - 1, stem[-1]
        if t and rest <= BLOCK_REST:
            text = block(t, v, rest)
            if text:
                # drop the block's leading newline and end its last line
                yield text.replace("\n", f"\n{texts[t - 1]},{v}")[1:] + "\n"
            continue
        texts[t:] = [f"{texts[t - 1]},{v}" if t else "1"]
        # every walked line ends in a 1: the root's is all 1s, and any other
        # walked stem has rest above BLOCK_REST >= 0
        if not last_gt_1:
            yield texts[t] + ",1" * rest + "\n"


def iter_stems(d: int, leaf_rest: int = 1) -> Iterator[tuple[Sequence, int]]:
    """(stem, rest) for every O-sequence stem + (1,) * rest of multiplicity d,
    in lexicographic order of the sequences and as a preorder: a stem comes
    out before its children, and after it only its own descendants until
    the walk leaves its subtree.  So for d' <= d, the stems of mass at most
    d' (mass d - rest) are those of ``iter_stems(d')``, in the same order.

    A stem other than (1,) whose rest is at most ``leaf_rest`` comes out
    without its descendants; the root is always expanded, and for d <= 2
    it has no child.  Every entry after a_0 is at least 2, so at the
    default a stem with rest below 2 has no child anyway, and makes no
    ``growth_bound`` lookup and no stack frame.
    """
    if d < 1:
        raise ValueError(f"multiplicity must be positive, got {d}")
    yield (1,), d - 1
    # one frame per open stem: its untried entries, its rest and the stem
    stack = [(iter(_entries(0, 1, d - 1)), d - 1, (1,))]
    while stack:
        entries, rest, stem = stack[-1]
        t = len(stack)
        for v in entries:
            left = rest - v
            child = stem + (v,)
            yield child, left
            if left > leaf_rest:
                stack.append((iter(_entries(t, v, left)), left, child))
                break
        else:
            stack.pop()


def count_table(max_d: int) -> CountTable:
    """O_d and A_d for all d up to max_d via the sliding-window recurrence."""
    if max_d < 1:
        raise ValueError(f"max_d must be positive, got {max_d}")
    a = [0] * (max_d + 1)
    if max_d >= 3:
        a[3] = 1
    # the states (s, a_{s-1}, a_s) of A_2 = {} and A_3 = {(1, 2)}, grouped
    # by (s, a_{s-1}); the s = 1 group of bucket d is {(1, 1, d - 1)}
    two_back: dict[Group, dict[int, int]] = {}
    one_back: dict[Group, dict[int, int]] = {(1, 1): {2: 1}}
    for d in range(4, max_d + 1):
        bucket: dict[Group, dict[int, int]] = {}
        for group, lasts in one_back.items():
            cap = entry_cap(*group)
            grown = {last + 1: n for last, n in lasts.items() if last < cap}
            if grown:
                bucket[group] = grown
                a[d] += sum(grown.values())
        # the append move sends (s, a_{s-1}, a_s) to (s + 1, a_s, 2): sum
        # the counts by s + 1 and a_s, over every a_{s-1}
        appended: dict[int, dict[int, int]] = {}
        for (s, _), lasts in two_back.items():
            ends = appended.setdefault(s + 1, {})
            for last, n in lasts.items():
                ends[last] = ends.get(last, 0) + n
        # an appended state ends in 2 and an incremented one in >= 3
        for s, ends in appended.items():
            a[d] += sum(ends.values())
            for last, n in ends.items():
                bucket.setdefault((s, last), {})[2] = n
        two_back, one_back = one_back, bucket
    # O_1 = 1 seeds the recurrence O_d = O_{d-1} + A_d (A_1 = A_2 = 0)
    o = [0] * (max_d + 1)
    o[1] = 1
    for d in range(2, max_d + 1):
        o[d] = o[d - 1] + a[d]
    return CountTable(max_d=max_d, O=o, A=a)
