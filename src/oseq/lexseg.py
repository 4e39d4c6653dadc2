"""Sous-escaliers of lex-segment ideals: construction, decomposition, exhaustive counts.

Terms in p variables are exponent tuples (e_1, ..., e_p).  The monomial
order is lexicographic with x_1 < x_2 < ... < x_p and the highest variable
dominant: terms of equal degree compare by their reversed exponent tuples.
The smallest degree-t term is x_1^t.  With this convention the sous-escalier
of a lex-segment ideal (the a_t lex-smallest terms in each degree t) is
closed under division, and splitting it by divisibility by x_p again yields
sous-escaliers; the dominant variable must be the one the order sorts by
last, otherwise that splitting property fails.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import islice
from typing import Iterable, Iterator

from .macaulay import binomial, is_o_sequence

Term = tuple[int, ...]


class ParameterTooLargeError(Exception):
    """Exhaustive search was asked for a range it cannot cover quickly."""


def lex_key(term: Term) -> Term:
    """Sort key realizing the order: compare exponents from x_p downwards."""
    return term[::-1]


def term_str(term: Term) -> str:
    parts = []
    for i, e in enumerate(term):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def terms_of_degree(t: int, p: int) -> Iterator[Term]:
    """All degree-t terms in p variables, ascending in the term order.

    Each term follows from the one before without sorting or recursion:
    one unit of the first nonzero exponent moves up to the next variable
    and the rest of that exponent goes back to x_1.
    """
    if p < 1:
        raise ValueError(f"need at least one variable, got p={p}")
    if t < 0:
        return
    term = [t] + [0] * (p - 1)
    yield tuple(term)
    first = 0 if t > 0 else p - 1  # index of the first nonzero exponent
    while first < p - 1:
        e = term[first]
        term[first] = 0
        term[first + 1] += 1
        term[0] = e - 1
        first = 0 if e > 1 else first + 1
        yield tuple(term)


@dataclass(frozen=True)
class OrderIdeal:
    """A finite set of terms in p variables, closed under division."""

    p: int
    terms: frozenset[Term] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for term in self.terms:
            if len(term) != self.p or any(e < 0 for e in term):
                raise ValueError(f"term {term!r} does not live in {self.p} variables")

    @cached_property
    def degree_counts(self) -> tuple[int, ...]:
        """Number of terms per degree, degree 0 upward, up to the top degree."""
        if not self.terms:
            return ()
        top = max(sum(t) for t in self.terms)
        counts = [0] * (top + 1)
        for term in self.terms:
            counts[sum(term)] += 1
        return tuple(counts)

    @property
    def multiplicity(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list[Term]:
        return sorted(self.terms, key=lambda t: (sum(t), lex_key(t)))


def sous_escalier(h: Iterable[int], p: int) -> OrderIdeal:
    """The a_t lex-smallest degree-t terms for each entry a_t of ``h``.

    Requires ``h`` to be an O-sequence with every entry within the count
    of degree-t terms in p variables.
    """
    values = tuple(h)
    if not is_o_sequence(values):
        raise ValueError(f"not an O-sequence: {values!r}")
    terms: set[Term] = set()
    for t, a in enumerate(values):
        if a > binomial(p - 1 + t, t):
            raise ValueError(
                f"h[{t}] = {a} exceeds the {binomial(p - 1 + t, t)} degree-{t} terms "
                f"in {p} variables"
            )
        terms.update(islice(terms_of_degree(t, p), a))
    return OrderIdeal(p=p, terms=frozenset(terms))


def decompose(ideal: OrderIdeal) -> tuple[OrderIdeal, OrderIdeal]:
    """Split by divisibility by the dominant variable x_p.

    Returns (M1, M2): M1 holds the terms with x_p-exponent 0, living in
    p - 1 variables; M2 holds the terms divisible by x_p, divided by it
    once, still in p variables.  Multiplicities add up to the original.
    """
    if ideal.p < 2:
        raise ValueError("decomposition needs at least two variables")
    m1 = frozenset(t[:-1] for t in ideal.terms if t[-1] == 0)
    m2 = frozenset(t[:-1] + (t[-1] - 1,) for t in ideal.terms if t[-1] > 0)
    return OrderIdeal(p=ideal.p - 1, terms=m1), OrderIdeal(p=ideal.p, terms=m2)


def exhaustive_count(p: int, n: int, k: int, d: int) -> int:
    """Count by direct enumeration the O-sequences of multiplicity d from
    lex segments in p variables, socle degree <= n, prefix length exactly k.

    Independent of the recursive formula: a lookup into the tally that
    ``_classes`` makes once per (p, d).  Bounded to small parameters on purpose.
    """
    if p > 4 or n > 8 or d > 12:
        raise ParameterTooLargeError(
            f"exhaustive_count is limited to p <= 4, n <= 8, d <= 12; "
            f"got p={p}, n={n}, d={d}"
        )
    if d < 1 or p < 1 or n < 0 or k < 0:
        return 0
    return sum(count for (socle, prefix), count in _classes(p, d).items()
               if socle <= n and prefix == k)


def _compositions(total: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first, max_parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _admissible(d: int) -> tuple[tuple[int, ...], ...]:
    """All O-sequences of multiplicity d and socle degree <= 8."""
    seqs = ((1,) + tail for tail in _compositions(d - 1, 8))
    return tuple(seq for seq in seqs if is_o_sequence(seq))


@lru_cache(maxsize=None)
def _classes(p: int, d: int) -> Counter[tuple[int, int]]:
    """(socle degree, maximal-growth prefix length) -> how many members of
    ``_admissible(d)`` fit under ceiling[t] = C(p - 1 + t, t), the number of
    degree-t terms; the prefix is the run of entries equal to the ceiling."""
    ceiling = [binomial(p - 1 + t, t, cap=d) for t in range(9)]
    tally: Counter[tuple[int, int]] = Counter()
    for seq in _admissible(d):
        if any(v > c for v, c in zip(seq, ceiling)):
            continue
        k = 0
        while k + 1 < len(seq) and seq[k + 1] == ceiling[k + 1]:
            k += 1
        tally[len(seq) - 1, k] += 1
    return tally
