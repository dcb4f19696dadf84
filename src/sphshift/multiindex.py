"""Multi-indices n in N^m, held as the rows of intp arrays, and the one
order on them: graded-reverse-lex, by degree |n| and, within a degree,
ascending in the reversed tuple (n_{m-1}, ..., n_0).

``level_count`` is exact integer arithmetic; ``enumerate_level`` lists a
level in this order and ``rank`` gives each multi-index its place in it.
"""

from __future__ import annotations

import math

import numpy as np


def level_count(m: int, k: int) -> int:
    """Number of n in N^m with |n| = k: binom(k+m-1, m-1), exactly."""
    if m < 1:
        raise ValueError("arity m must be >= 1")
    if k < 0:
        raise ValueError("degree k must be >= 0")
    return math.comb(k + m - 1, m - 1)


def enumerate_level(m: int, k: int) -> np.ndarray:
    """Every n in N^m with |n| = k, once each, as the rows of a
    (level_count(m, k), m) intp array in graded-reverse-lex order: by the
    last coordinate t = 0..k, each t followed by the level k - t of the
    first m - 1 coordinates in the same order."""
    level_count(m, k)  # refuses m < 1 and k < 0
    # levels[j]: the level j of the first i coordinates, for i = 1..m
    levels = list(np.arange(k + 1, dtype=np.intp).reshape(k + 1, 1, 1))
    for i in range(2, m + 1):
        tops = range(k + 1) if i < m else [k]  # the last pass needs only level k
        leads = [np.concatenate(levels[j::-1]) for j in tops]  # t = 0..j: level j - t
        levels = [np.column_stack((lead, j - lead.sum(axis=1))) for j, lead in zip(tops, leads)]
    return levels[-1]


def rank(exps) -> np.ndarray:
    """The place of each row n of ``exps`` in the graded-reverse-lex order
    of N^m: the C(|n|+m-1, m) multi-indices of lower degree, plus
    sum_{i=1..m-1} C(r_i+i, i) - C(r_{i-1}+i, i) with r_i = n_0 + ... + n_i,
    the ones before n in its level. Entries must be non-negative."""
    exps = np.asarray(exps, dtype=np.intp)
    r = np.cumsum(exps, axis=1)
    within = np.zeros(len(exps), dtype=np.intp)
    comb = np.ones(int(r.max(initial=0)) + 1, dtype=np.intp)
    for i in range(1, exps.shape[1]):
        comb = np.cumsum(comb)  # comb[t] = C(t + i, i)
        within += comb[r[:, i]] - comb[r[:, i - 1]]
    lower = np.concatenate(([0], np.cumsum(comb)))  # lower[d] = C(d + m - 1, m)
    return lower[r[:, -1]] + within
