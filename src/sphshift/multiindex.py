"""Exact multi-index combinatorics: fixed-degree levels, counts, ranks.

All counting here is arbitrary-precision integer arithmetic; nothing in
this module touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement


class MultiIndex(tuple):
    """An element of N^m: a tuple of non-negative integers with shift helpers.

    Axes are 1-based in ``add_unit``/``sub_unit`` to match the usual
    T_1..T_m labelling of the operator tuple.
    """

    def __new__(cls, components):
        if isinstance(components, MultiIndex):
            return components  # immutable and validated on construction
        comps = tuple(int(c) for c in components)
        if len(comps) < 1:
            raise ValueError("multi-index needs arity m >= 1")
        if any(c < 0 for c in comps):
            raise ValueError(f"negative component in {comps}")
        return super().__new__(cls, comps)

    @property
    def m(self) -> int:
        return len(self)

    def degree(self) -> int:
        return sum(self)

    def add_unit(self, j: int) -> "MultiIndex":
        """n + e_j (1 <= j <= m)."""
        self._check_axis(j)
        # a neighbour of a valid index is valid: skip the constructor's checks
        return tuple.__new__(MultiIndex, self[:j - 1] + (self[j - 1] + 1,) + self[j:])

    def sub_unit(self, j: int):
        """n - e_j, or None when n_j = 0 (the out-of-domain branch)."""
        self._check_axis(j)
        if self[j - 1] == 0:
            return None
        return tuple.__new__(MultiIndex, self[:j - 1] + (self[j - 1] - 1,) + self[j:])

    def _check_axis(self, j: int) -> None:
        if not 1 <= j <= len(self):
            raise ValueError(f"axis {j} out of range for arity {len(self)}")

    def __repr__(self) -> str:
        return f"MultiIndex{tuple(self)!r}"


def multinomial(alpha) -> int:
    """|alpha|! / (alpha_1! ... alpha_m!), exactly."""
    total = sum(alpha)
    out = math.factorial(total)
    for a in alpha:
        out //= math.factorial(a)
    return out


def level_count(m: int, k: int) -> int:
    """Number of n in N^m with |n| = k: binom(k+m-1, m-1), exactly."""
    if m < 1:
        raise ValueError("arity m must be >= 1")
    if k < 0:
        raise ValueError("degree k must be >= 0")
    return math.comb(k + m - 1, m - 1)


def _grevlex_key(n):
    # Graded-reverse-lex descending within a fixed degree is ascending
    # order of the reversed tuple.
    return tuple(reversed(n))


@dataclass(frozen=True)
class Level:
    """All multi-indices of one total degree, in a fixed reproducible order."""

    m: int
    k: int
    indices: tuple = field(repr=False)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def rank(self, n) -> int:
        return self._rank_map()[tuple(n)]

    def unrank(self, i: int) -> MultiIndex:
        return self.indices[i]

    def _rank_map(self):
        cached = getattr(self, "_ranks", None)
        if cached is None:
            cached = {tuple(n): i for i, n in enumerate(self.indices)}
            object.__setattr__(self, "_ranks", cached)
        return cached


def enumerate_level(m: int, k: int) -> Level:
    """Every n in N^m with |n| = k, once each, graded-reverse-lex order."""
    if m < 1:
        raise ValueError("arity m must be >= 1")
    if k < 0:
        raise ValueError("degree k must be >= 0")
    # Place k balls into m slots: choose slot for each of k units with repetition.
    out = []
    for combo in combinations_with_replacement(range(m), k):
        comps = [0] * m
        for slot in combo:
            comps[slot] += 1
        out.append(MultiIndex(comps))
    out.sort(key=_grevlex_key)
    return Level(m=m, k=k, indices=tuple(out))
