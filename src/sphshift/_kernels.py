"""Hot per-level summation kernels (numpy).

Everything here reduces sums over a whole degree level {|n| = k} to O(k*m)
work through composition counts C(x+m-2, m-2) and iterated prefix sums,
instead of enumerating the level.
"""

from __future__ import annotations

import numpy as np


def _comp_counts(x, m):
    """C(x+m-2, m-2) for integer array x >= 0: compositions of x in m-1 parts."""
    counts = np.ones_like(x, dtype=np.float64)
    for i in range(1, m - 1):
        counts *= (x + i) / i
    return counts


def _pair_weights(n, m, p, offset):
    """(u+offset)^(p/2) for u = 0..n-1, prefix-summed m-2 times.

    Entry x sums (n_l + offset)^(p/2) over every way of spreading x units
    on the m-1 coordinates other than n_j.
    """
    w = (np.arange(n, dtype=np.float64) + offset) ** (p / 2.0)
    for _ in range(m - 2):
        w = np.cumsum(w)
    return w


def self_level_powersums(d2, m, p):
    """sum over {|n| = k} of |self-commutator coefficient|^p, per level.

    d2 holds delta2(0..kmax); returns an array over k = 0..kmax. The
    coefficient at n with n_j = t is t*D_k + b_k where b_k = d2[k]/(k+m)
    and D_k = d2[k]/(k+m) - d2[k-1]/(k+m-1); the t = 0 branch coincides
    with the formula, so one linear form covers the whole level.
    """
    kmax = len(d2) - 1
    out = np.empty(kmax + 1)
    out[0] = (d2[0] / m) ** p
    counts = _comp_counts(np.arange(kmax + 1), m)
    for k in range(1, kmax + 1):
        b = d2[k] / (k + m)
        diff = b - d2[k - 1] / (k + m - 1)
        if m == 1:
            out[k] = abs(k * diff + b) ** p
            continue
        t = np.arange(k + 1, dtype=np.float64)
        out[k] = float(np.dot(counts[k::-1], np.abs(t * diff + b) ** p))
    return out


def pairsum(k, m, p, offset):
    """sum over {|n| = k, n_j > 0} of n_j^(p/2) * (n_l + offset)^(p/2), j != l."""
    if k == 0:
        return 0.0
    w = _pair_weights(k, m, p, offset)
    t = np.arange(1, k + 1, dtype=np.float64)
    return float(np.dot(t ** (p / 2.0), w[::-1]))


def cross_level_powersums(d2, m, p):
    """sum over {|n| = k} of |cross-commutator singular value|^p, per level.

    Level k carries |D_k|^p times the pair sum at offset 1; the pair sums
    of all levels are one convolution of t^(p/2) with the pair weights.
    """
    kmax = len(d2) - 1
    out = np.zeros(kmax + 1)
    if kmax == 0:
        return out
    k = np.arange(1, kmax + 1, dtype=np.float64)
    diff = d2[1:] / (k + m) - d2[:-1] / (k + m - 1)
    pair = np.convolve(k ** (p / 2.0), _pair_weights(kmax, m, p, 1.0))[:kmax]
    out[1:] = np.abs(diff) ** p * pair
    return out


def abs_sum(k, m, p, s):
    """sum over {|n| = k} of |s*n_j - 1|^p."""
    t = np.arange(k + 1, dtype=np.float64)
    vals = np.abs(s * t - 1.0) ** p
    return float(np.dot(_comp_counts(k - t, m), vals))


def kahan_cumsum(x):
    """Cumulative sums of x as a plain left-to-right np.cumsum.

    The name is kept for its callers; no compensation is applied.
    """
    return np.cumsum(x)
