"""Binomial expansions in a fixed base and the growth bound for Hilbert functions.

Conventions used throughout: C(n, m) = 0 whenever n < m or m < 0, and
C(n, 0) = 1 for all n >= 0.  A finite O-sequence is a tuple
(a_0, a_1, ..., a_s) of positive integers with a_0 = 1 whose consecutive
values respect the growth bound a_{t+1} <= bound(a_t, t) for every t >= 1.
The step from a_0 to a_1 is unconstrained: a_0 = 1 is forced and any
a_1 >= 1 can be realized by a polynomial ring in a_1 variables.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable


def binomial(n: int, m: int, cap: int | None = None) -> int:
    """C(n, m) with the zero conventions above.

    When ``cap`` is given the result saturates: any value exceeding ``cap``
    is reported as ``cap + 1``.  Callers that only compare against a bound
    use this to sidestep huge intermediate coefficients.
    """
    if m < 0 or n < m:
        return 0
    if cap is None:
        return comb(n, m)
    m = min(m, n - m)
    result = 1
    for i in range(1, m + 1):
        # partial products are nondecreasing for m <= n/2, so we may bail early
        result = result * (n - i + 1) // i
        if result > cap:
            return cap + 1
    return result


def expand(a: int, t: int) -> tuple[int, ...]:
    """The tops of the binomial expansion of ``a`` in base ``t``.

    a = C(tops[0], t) + C(tops[1], t - 1) + ... with the lower index
    decreasing by one per term and tops strictly decreasing; the last
    lower index is >= 1.  Greedy choice of the largest top at each level
    yields this unique representation.
    """
    if a < 1 or t < 1:
        raise ValueError(f"expand requires a >= 1 and t >= 1, got a={a}, t={t}")
    tops = []
    remainder = a
    lower = t
    while remainder > 0:
        k = lower
        while comb(k + 1, lower) <= remainder:
            k += 1
        tops.append(k)
        remainder -= comb(k, lower)
        lower -= 1
    return tuple(tops)


@lru_cache(maxsize=None)
def growth_bound(a: int, t: int) -> int:
    """Largest value a Hilbert function may take at degree t+1 given a at degree t.

    Every binomial in the expansion of ``a`` in base ``t`` is shifted up by
    one in both indices.
    """
    return sum(comb(k + 1, t - i + 1) for i, k in enumerate(expand(a, t)))


def is_o_sequence(values: Iterable[int]) -> bool:
    """True iff ``values`` is a finite O-sequence.

    Checks: nonempty, starts with 1, every entry >= 1, and each step from
    position t >= 1 satisfies the growth bound.  Malformed input yields
    False rather than an error.
    """
    seq = tuple(values)
    if not seq or seq[0] != 1:
        return False
    for v in seq:
        if not isinstance(v, int) or v < 1:
            return False
    for t in range(1, len(seq) - 1):
        if seq[t + 1] > growth_bound(seq[t], t):
            return False
    return True
