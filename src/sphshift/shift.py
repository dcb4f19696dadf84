"""Closed forms for the spherical m-shift built from a scalar sequence.

The tuple acts on the orthonormal basis {e_n : n in N^m} by
T_i e_n = w_i(n) e_{n+eps_i}; every quantity below is a function of the
scalar data delta2 and exact multi-index combinatorics, and depends on n
only through its degree |n| and one or two of its coordinates.

Each closed form is written once, as a level-wise form: ``weights``,
``self_comm_coeffs`` and ``cross_comm_coeffs`` take an integer array of
multi-indices (one per row, m wide, no negative entry), ``q_diags`` and
``bq_diags`` an array of degrees, and each evaluates its formula once per
distinct degree level and broadcasts it with numpy. The per-index methods
``weight``, ``q_diag``, ``bq_diag``, ``self_comm_coeff`` and
``cross_comm_coeff`` are one-row views of these forms. They stay because
the benchmark's tracer (``perfbench/tracer.py``) wraps each of them to
count its calls.

Each level-wise form reads one snapshot of the sequence once, through the
highest level it needs, and keeps nothing between calls: ``weights`` the
float delta2, the others the exact delta2, which every family holds. These
closed forms are computed in integers: a commutator level is formed over
one common denominator, a diagonal of Q^s(I) is a window product of the
exact delta2, and a diagonal of the defect operator B_q is (-1)^q L_q from
``ScalarSequence.exact_defects``, the integers ``classify`` signs. Each is
then rounded once, by a correctly rounded int/int division, which gives
the same float as rounding the exact rational.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .scalarseq import ScalarSequence, check_arity


def _by_level(levels, value, *data, coord=None) -> np.ndarray:
    """value(k, *data) once for each distinct level k in ``levels``, one
    float per entry. With ``coord``, value(k, *data) is a sequence over the
    coordinate 0..k and each entry takes value(k, *data)[coord]."""
    levels = np.asarray(levels, dtype=np.intp)
    if levels.size == 0:
        return np.zeros(0)
    distinct = np.flatnonzero(np.bincount(levels))
    per_level = [value(k, *data) for k in distinct.tolist()]
    if coord is None:
        table = np.zeros(distinct[-1] + 1)
        table[distinct] = per_level
        return table[levels]
    starts = np.zeros(distinct[-1] + 1, dtype=np.intp)
    starts[distinct] = np.cumsum([0] + [len(v) for v in per_level[:-1]])
    return np.concatenate(per_level, dtype=np.float64)[starts[levels] + coord]


def _rounded(num: int, den: int) -> float:
    """num/den for den > 0, correctly rounded; +-inf beyond the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _degrees(levels) -> np.ndarray:
    """``levels`` as an intp array, refusing a negative degree."""
    levels = np.asarray(levels, dtype=np.intp)
    if levels.size and levels.min() < 0:
        raise ValueError(f"degree {levels.min()} is negative; a degree |n| must be >= 0")
    return levels


def _top(levels: np.ndarray, reach: int) -> int:
    """max(levels) + reach, or -1 (read nothing) when there are no levels."""
    return int(levels.max()) + reach if levels.size else -1


class SphericalShift:
    """The m-tuple with weights w_i(n) = delta_{|n|} sqrt((n_i+1)/(|n|+m))."""

    def __init__(self, m: int, seq: ScalarSequence):
        if m < 1:
            raise ValueError("arity m must be >= 1")
        check_arity(seq, m)
        self.m = int(m)
        self.seq = seq

    # -- per-level data -----------------------------------------------------

    def _pair(self, k: int, exact):
        """delta2(k)/(k+m) and delta2(k-1)/(k+m-1) (0 at k = 0) as integers
        (A, B, D) meaning A/D and B/D."""
        a = exact[k]
        bn, bd = (exact[k - 1].numerator, exact[k - 1].denominator) if k >= 1 else (0, 1)
        # over D = den(a) (k+m) den(b) (k+m-1); at k = 0, b is 0 and k+m-1 may be
        hi, lo = k + self.m, max(k + self.m - 1, 1)
        return (a.numerator * bd * lo, bn * a.denominator * hi, a.denominator * hi * bd * lo)

    def _self_row(self, k: int, exact) -> list:
        """Diagonal of [T_j*, T_j] on level k, for n_j = 0..k."""
        cur, prev, den = self._pair(k, exact)
        return [_rounded((t + 1) * cur - t * prev, den) for t in range(k + 1)]

    def _cross_level(self, k: int, exact) -> float:
        """delta2(k)/(k+m) - delta2(k-1)/(k+m-1), rounded once."""
        cur, prev, den = self._pair(k, exact)
        return _rounded(cur - prev, den)

    def _check_axis(self, i: int) -> None:
        if not 1 <= i <= self.m:
            raise ValueError(f"axis {i} out of range for arity {self.m}")

    def _exps(self, exps) -> np.ndarray:
        """``exps`` as an intp array, refusing one not m wide or with a negative entry."""
        exps = np.asarray(exps, dtype=np.intp)
        if exps.ndim != 2 or exps.shape[1] != self.m or (exps < 0).any():
            raise ValueError(f"multi-indices of arity {self.m} must be the rows of a "
                             f"(count, {self.m}) array with no negative entry")
        return exps

    # -- level-wise forms ---------------------------------------------------

    def weights(self, i: int, exps) -> np.ndarray:
        """w_i(n) for each row n of the integer array ``exps``."""
        self._check_axis(i)
        exps = self._exps(exps)
        levels = exps.sum(axis=1)
        d2 = self.seq.delta2_array(_top(levels, 0))[levels]
        return np.sqrt(d2 * (exps[:, i - 1] + 1) / (levels + self.m))

    def q_diags(self, s: int, levels) -> np.ndarray:
        """q_diag(k, s) for each degree k in ``levels``."""
        if s < 0:
            raise ValueError("power s must be >= 0")
        levels = _degrees(levels)
        exact = self.seq.delta2_exact_array(_top(levels, s - 1))

        def window(k):  # delta2(k)...delta2(k+s-1) over its cleared denominators
            w = exact[k: k + s]
            return _rounded(math.prod(x.numerator for x in w), math.prod(x.denominator for x in w))

        return _by_level(levels, window)

    def bq_diags(self, q: int, levels) -> np.ndarray:
        """bq_diag(k, q) for each degree k in ``levels``."""
        if q < 1:
            raise ValueError("order q must be >= 1")
        levels = _degrees(levels)
        if not levels.size:
            return np.zeros(0)
        *_, (_, lead, den) = self.seq.exact_defects(_top(levels, 0), q)
        return _by_level(levels, lambda k: _rounded((-1) ** q * lead[k], den[k]))

    def self_comm_coeffs(self, j: int, exps) -> np.ndarray:
        """Diagonal entry of [T_j*, T_j] at e_n for each row n of ``exps``."""
        self._check_axis(j)
        exps = self._exps(exps)
        levels = exps.sum(axis=1)
        exact = self.seq.delta2_exact_array(_top(levels, 0))
        return _by_level(levels, self._self_row, exact, coord=exps[:, j - 1])

    def cross_comm_coeffs(self, j: int, l: int, exps) -> Tuple[np.ndarray, np.ndarray]:
        """[T_j*, T_l] e_n = coeff * e_target for each row n of ``exps``.

        Returns (coeffs, targets): targets[r] is n - e_j + e_l, and a row of
        -1 where n_j = 0, where the map is zero and there is no target.
        """
        if j == l:
            raise ValueError("cross-commutator needs distinct axes")
        self._check_axis(j)
        self._check_axis(l)
        exps = self._exps(exps)
        nj, nl = exps[:, j - 1], exps[:, l - 1]
        absent = nj == 0
        levels = exps.sum(axis=1)
        level = _by_level(levels, self._cross_level, self.seq.delta2_exact_array(_top(levels, 0)))
        coeffs = np.sqrt(nj * (nl + 1)) * np.where(absent, 0.0, level)  # no 0 * inf
        targets = exps.copy()
        targets[:, j - 1] -= 1
        targets[:, l - 1] += 1
        targets[absent] = -1
        return coeffs, targets

    # -- one-row views --------------------------------------------------

    def weight(self, i: int, n) -> float:
        """w_i(n) > 0 for 1 <= i <= m."""
        return float(self.weights(i, [n])[0])

    def q_diag(self, k: int, s: int) -> float:
        """Eigenvalue of the s-th iterate of X -> sum_i T_i* X T_i applied to
        the identity, on any e_n with |n| = k: delta2(k)...delta2(k+s-1),
        the exact product rounded once; math.inf when it overflows a float.
        """
        return float(self.q_diags(s, [k])[0])

    def bq_diag(self, k: int, q: int) -> float:
        """Diagonal entry of the order-q defect sum_{s} (-1)^s C(q,s) Q^s."""
        return float(self.bq_diags(q, [k])[0])

    def self_comm_coeff(self, j: int, n) -> float:
        """Diagonal entry of [T_j*, T_j] at e_n."""
        return float(self.self_comm_coeffs(j, [n])[0])

    def cross_comm_coeff(self, j: int, l: int, n) -> Tuple[float, Optional[tuple]]:
        """[T_j*, T_l] e_n = coeff * e_target; target None when n_j = 0.

        The n_j = 0 branch is the zero map and is reported as an absent
        target, never as a zero coefficient, so norm sums can skip
        structural zeros without counting them.
        """
        coeffs, targets = self.cross_comm_coeffs(j, l, [n])
        if targets[0, 0] < 0:
            return 0.0, None
        return float(coeffs[0]), tuple(targets[0].tolist())
