"""Exact multi-index combinatorics: fixed-degree levels and their counts.

All counting here is arbitrary-precision integer arithmetic; nothing in
this module touches floating point.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement


class MultiIndex(tuple):
    """An element of N^m: a tuple of non-negative integers."""

    def __new__(cls, components):
        if isinstance(components, MultiIndex):
            return components  # immutable and validated on construction
        comps = tuple(int(c) for c in components)
        if len(comps) < 1:
            raise ValueError("multi-index needs arity m >= 1")
        if any(c < 0 for c in comps):
            raise ValueError(f"negative component in {comps}")
        return super().__new__(cls, comps)

    def __repr__(self) -> str:
        return f"MultiIndex{tuple(self)!r}"


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


def enumerate_level(m: int, k: int) -> tuple:
    """Every n in N^m with |n| = k, once each, as a tuple of MultiIndex in
    graded-reverse-lex order."""
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
    return tuple(out)
