"""Hot per-level summation kernels (numpy).

Everything here reduces sums over a whole degree level {|n| = k} to O(k*m)
work through composition counts C(x+m-2, m-2) and iterated prefix sums,
instead of enumerating the level.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

# Elements per row block of self_level_powersums, one scratch block per
# worker (larger blocks cost memory and gain no speed).
_BLOCK = 1 << 16


def _comp_counts(x, m):
    """C(x+m-2, m-2) for integer array x >= 0: compositions of x in m-1 parts.

    With m = 1 there are no parts, and only x = 0 splits into none.
    """
    if m == 1:
        return (np.asarray(x) == 0).astype(np.float64)
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


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _row_blocks(kmax):
    """Level blocks [k0, k1) covering 1..kmax.

    A block holds k1 - k0 rows of k1 columns: about _BLOCK elements, or one
    row when a level is wider than that. Its size depends only on k0, so
    every level lands in the same block whoever computes it.
    """
    blocks, k0 = [], 1
    while k0 <= kmax:
        rows = max(1, (math.isqrt((k0 + 1) ** 2 + 4 * _BLOCK) - (k0 + 1)) // 2)
        k1 = min(k0 + rows, kmax + 1)
        blocks.append((k0, k1))
        k0 = k1
    return blocks


def self_level_powersums(d2, m, p):
    """sum over {|n| = k} of |self-commutator coefficient|^p, per level.

    d2 holds delta2(0..kmax) and p > 0; returns an array over k = 0..kmax.
    The coefficient at n with n_j = t is t*D_k + b_k where b_k = d2[k]/(k+m)
    and D_k = d2[k]/(k+m) - d2[k-1]/(k+m-1); the t = 0 branch coincides
    with the formula, so one linear form covers the whole level.

    With s = k - t units on the other coordinates the coefficient is
    c_k - s*D_k, c_k = b_k + k*D_k, and s carries the weight
    C(s+m-2, m-2) whatever k is. A block of adjacent levels is then one
    2-D array over (k, s), reduced row by row. The blocks are dealt out
    over the process's CPUs; the result does not depend on how many there
    are.
    """
    kmax = len(d2) - 1
    out = np.empty(kmax + 1)
    out[0] = (d2[0] / m) ** p
    if kmax == 0:
        return out
    k = np.arange(1, kmax + 1, dtype=np.float64)
    b = d2[1:] / (k + m)
    diff = np.empty(kmax + 1)
    diff[1:] = b - d2[:-1] / (k + m - 1)
    c = np.empty(kmax + 1)
    c[1:] = b + k * diff[1:]
    weights = _comp_counts(np.arange(kmax + 1), m)
    s = np.arange(kmax + 1, dtype=np.float64)

    errors = []

    def run(blocks):
        try:
            buf = np.empty(max((k1 - k0) * k1 for k0, k1 in blocks))
            for k0, k1 in blocks:
                V = buf[: (k1 - k0) * k1].reshape(k1 - k0, k1)
                np.multiply.outer(diff[k0:k1], s[:k1], out=V)
                np.subtract(c[k0:k1, None], V, out=V)
                V[:, k0:][np.triu_indices(k1 - k0, 1)] = 0.0  # s > k lies off the level
                np.abs(V, out=V)
                np.power(V, p, out=V)
                V *= weights[:k1]
                out[k0:k1] = V.sum(axis=1)
        except Exception as exc:  # re-raised on the calling thread below
            errors.append(exc)

    blocks = _row_blocks(kmax)
    n = min(_cpu_count(), len(blocks))
    runs = [blocks[i::n] for i in range(n)]
    workers = [threading.Thread(target=run, args=(r,)) for r in runs[1:]]
    for w in workers:
        w.start()
    run(runs[0])
    for w in workers:
        w.join()
    if errors:
        raise errors[0]
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
