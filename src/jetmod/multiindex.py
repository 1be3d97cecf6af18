"""Multi-index combinatorics for transverse jets.

A multi-index is a plain tuple of non-negative ints.  Jets in ``d``
transverse directions are enumerated by the graded colexicographic order:
lower total degree first, ties broken by the rightmost differing entry.
``theta`` computes the rank of a multi-index in this order in closed form
and exact integer arithmetic; ``theta_inv`` inverts it by table lookup.
"""

from __future__ import annotations

import math
from functools import lru_cache

MultiIndex = tuple  # tuple of non-negative ints

# Refuse to build index tables larger than this (guards d/k typos).
MAX_TABLE = 2_000_000


def check_table_size(count: int, what: str, unit: str):
    """Refuse a table of ``count`` ``unit`` above ``MAX_TABLE``; ``what`` names it."""
    if count > MAX_TABLE:
        raise ValueError(f"{what} needs {count} {unit}, exceeding the supported size {MAX_TABLE}")


def pochhammer(z, t: int):
    """Rising factorial z(z+1)...(z+t-1), with (z)_0 == 1."""
    if t < 0:
        raise ValueError("pochhammer order must be >= 0")
    out = 1
    for j in range(t):
        out = out * (z + j)
    return out


def multi_binom(alpha: MultiIndex, beta: MultiIndex) -> int:
    """Product of componentwise binomials C(alpha_i, beta_i).

    Zero as soon as any ``beta_i > alpha_i``.
    """
    if len(alpha) != len(beta):
        raise ValueError(
            f"multi-index lengths differ: {len(alpha)} vs {len(beta)}"
        )
    out = 1
    for a, b in zip(alpha, beta):
        if b > a:
            return 0
        out *= math.comb(a, b)
    return out


def _validate(alpha) -> tuple:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) < 1:
        raise ValueError("multi-index must have at least one entry")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index entries must be >= 0, got {alpha}")
    return alpha


def theta(alpha: MultiIndex) -> int:
    """Graded colexicographic rank of a multi-index, as an exact integer.

    Counts the indices strictly before ``alpha``: ``C(t + d - 1, d)`` of
    smaller degree ``t = |alpha|``, plus the colex rank within the degree
    slice, which telescopes over the prefix sums ``t_j = alpha_1 + ... +
    alpha_j`` as ``sum_{j=2}^{d} C(t_j + j - 1, j - 1) - C(t_{j-1} + j - 1,
    j - 1)``.  Exact integer arithmetic throughout; total on all of N^d,
    which extends the ordering past any particular jet order.
    """
    alpha = _validate(alpha)
    d = len(alpha)
    t = sum(alpha)
    rank = math.comb(t + d - 1, d)
    prefix = alpha[0]
    for j in range(2, d + 1):
        rank += math.comb(prefix + alpha[j - 1] + j - 1, j - 1)
        rank -= math.comb(prefix + j - 1, j - 1)
        prefix += alpha[j - 1]
    return rank


@lru_cache(maxsize=None)
def degree_slice(d: int, t: int) -> tuple:
    """All multi-indices in ``d`` variables of total degree ``t``, theta-ordered."""
    if d < 1:
        raise ValueError("need d >= 1")
    if d == 1:
        return ((t,),)
    # colex: the last entry is the most significant, so it leads the loops
    return tuple(rest + (tail,) for tail in range(t + 1) for rest in degree_slice(d - 1, t - tail))


def theta_inv(l: int, d: int) -> MultiIndex:
    """The unique multi-index in ``d`` variables with ``theta(alpha) == l``."""
    if l < 0:
        raise ValueError("rank must be >= 0")
    if d < 1:
        raise ValueError("need d >= 1")
    t = 0
    base = 0
    while True:
        n = math.comb(d + t - 1, t) if t > 0 else 1
        if base + n > l:
            return degree_slice(d, t)[l - base]
        base += n
        t += 1


class JetIndexTable:
    """The theta-ordered multi-indices of degree < k in d variables.

    ``indices[l]`` is the index of rank ``l``; there are ``N + 1`` of them
    with ``N = C(d+k-1, k-1) - 1``.
    """

    def __init__(self, d: int, k: int):
        if d < 1 or k < 1:
            raise ValueError("need d >= 1 and k >= 1")
        count = math.comb(d + k - 1, k - 1)
        check_table_size(count, f"index table for d={d}, k={k}", "entries")
        self.d = d
        self.k = k
        self.N = count - 1
        indices = []
        for t in range(k):
            indices.extend(degree_slice(d, t))
        self.indices = tuple(indices)

    def __len__(self) -> int:
        return self.N + 1

    def __repr__(self):
        return f"JetIndexTable(d={self.d}, k={self.k}, N={self.N})"
