"""Closed forms for the spherical m-shift built from a scalar sequence.

The tuple acts on the orthonormal basis {e_n : n in N^m} by
T_i e_n = w_i(n) e_{n+eps_i}; every quantity below is a function of the
scalar data delta2 and exact multi-index combinatorics, and depends on n
only through its degree |n| and one or two of its coordinates.

Each closed form is written once, as a level-wise form: ``weights``,
``self_comm_coeffs`` and ``cross_comm_coeffs`` take an integer array of
multi-indices (one per row), ``q_diags`` and ``bq_diags`` an array of
degrees, and each evaluates its formula once per distinct degree level and
broadcasts it with numpy. The per-index methods (``weight``, ``q_diag``,
``self_comm_coeff``, ...) are one-row views of these forms.

delta2 is read once per level. When the family is exact, each level keeps
its commutator pair as integers over one common denominator, and the
diagonals of Q^s(I) and of the defect operators come from integer
products of exact delta2 over windows of levels; the small differences
these contain are then rounded once, by a correctly rounded int/int
division, which gives the same float as rounding the exact rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .multiindex import MultiIndex
from .scalarseq import ScalarSequence


def sphere_monomial_norm2(n, m: Optional[int] = None) -> Fraction:
    """Squared L2 norm of the monomial z^n on the unit sphere, exactly:
    (m-1)! n! / (m-1+|n|)! under the normalized surface measure."""
    n = tuple(n)
    if m is None:
        m = len(n)
    if m != len(n):
        raise ValueError(f"arity mismatch: m={m}, len(n)={len(n)}")
    num = math.factorial(m - 1)
    for c in n:
        num *= math.factorial(c)
    return Fraction(num, math.factorial(m - 1 + sum(n)))


def _by_level(levels, value, coord=None) -> np.ndarray:
    """value(k) once for each distinct level k in ``levels``, one float per
    entry. With ``coord``, value(k) is a sequence over the coordinate
    0..k and each entry takes value(k)[coord]."""
    levels = np.asarray(levels, dtype=np.intp)
    if levels.size == 0:
        return np.zeros(0)
    distinct = sorted(set(levels.tolist()))
    per_level = [value(k) for k in distinct]
    if coord is None:
        table = np.zeros(distinct[-1] + 1)
        table[distinct] = per_level
        return table[levels]
    starts = np.zeros(distinct[-1] + 1, dtype=np.intp)
    starts[distinct] = np.cumsum([0] + [len(v) for v in per_level[:-1]])
    return np.array([x for v in per_level for x in v], dtype=np.float64)[starts[levels] + coord]


class SphericalShift:
    """The m-tuple with weights w_i(n) = delta_{|n|} sqrt((n_i+1)/(|n|+m))."""

    def __init__(self, m: int, seq: ScalarSequence):
        if m < 1:
            raise ValueError("arity m must be >= 1")
        self.m = int(m)
        self.seq = seq
        self._d2 = []        # delta2(k) as the family's float, k = 0, 1, ...
        self._d2_exact = []  # (numerator, denominator) of delta2(k), or None
        self._leading_exact = 0  # delta2(0..this-1) are all exact
        self._pairs = {}     # level k -> commutator pair
        self._self_rows = {}  # level k -> self-commutator coefficients, n_j = 0..k
        self._windows = {}   # level k -> [delta2(k)...delta2(k+s-1) as (num, den), s = 0, 1, ...]

    # -- per-level data -----------------------------------------------------

    def _read(self, kmax: int) -> None:
        """delta2(0..kmax), each level read from the sequence once."""
        while len(self._d2) <= kmax:
            k = len(self._d2)
            value, exact = self.seq.delta2_both(k)
            self._d2.append(value)
            self._d2_exact.append(None if exact is None else (exact.numerator, exact.denominator))
            if exact is not None and self._leading_exact == k:
                self._leading_exact = k + 1

    def _level_d2(self, k: int) -> float:
        self._read(k)
        return self._d2[k]

    def _exact_through(self, n: int) -> bool:
        """Whether delta2(0..n-1) are all exact (delta2(0) at least); reads
        no level past the first one that is not."""
        n = max(n, 1)
        while self._leading_exact < n and self._leading_exact == len(self._d2):
            self._read(len(self._d2))
        return self._leading_exact >= n

    def _window(self, k: int, s: int):
        """delta2(k)...delta2(k+s-1) as (num, den), or None unless
        delta2(0..k+s-1) are all exact."""
        if not self._exact_through(k + s):
            return None
        row = self._windows.setdefault(k, [(1, 1)])
        while len(row) <= s:
            num, den = row[-1]
            a, b = self._d2_exact[k + len(row) - 1]
            row.append((num * a, den * b))
        return row[s]

    def _pair(self, k: int):
        """delta2(k)/(k+m) and delta2(k-1)/(k+m-1) (0 at k = 0): exactly as
        integers (A, B, D) meaning A/D and B/D when both levels are exact,
        else as floats (cur, prev, None)."""
        if k not in self._pairs:
            self._read(k)
            a = self._d2_exact[k]
            b = self._d2_exact[k - 1] if k >= 1 else (0, 1)
            if a is not None and b is not None:
                # over D = den(a) (k+m) den(b) (k+m-1); at k = 0, b is 0 and k+m-1 may be
                hi, lo = k + self.m, max(k + self.m - 1, 1)
                pair = (a[0] * b[1] * lo, b[0] * a[1] * hi, a[1] * hi * b[1] * lo)
            else:
                cur = self._d2[k] / (k + self.m)
                prev = self._d2[k - 1] / (k + self.m - 1) if k >= 1 else 0.0
                pair = cur, prev, None
            self._pairs[k] = pair
        return self._pairs[k]

    def _self_row(self, k: int) -> list:
        """Diagonal of [T_j*, T_j] on level k, for n_j = 0..k."""
        if k not in self._self_rows:
            cur, prev, den = self._pair(k)
            if den is not None:
                row = [cur / den] + [((t + 1) * cur - t * prev) / den for t in range(1, k + 1)]
            else:
                row = [cur] + [(t + 1) * cur - t * prev for t in range(1, k + 1)]
            self._self_rows[k] = row
        return self._self_rows[k]

    def _cross_level(self, k: int) -> float:
        """delta2(k)/(k+m) - delta2(k-1)/(k+m-1), rounded once."""
        cur, prev, den = self._pair(k)
        return (cur - prev) / den if den is not None else cur - prev

    def _q_value(self, k: int, s: int) -> float:
        if s == 0:
            return 1.0
        exact = self._window(k, s)
        try:
            if exact is not None:
                return exact[0] / exact[1]
            return math.exp(2.0 * (self.seq.log_bbeta(k + s) - self.seq.log_bbeta(k)))
        except OverflowError:
            return math.inf

    def _bq_exact(self, k: int, q: int):
        """sum_s (-1)^s C(q,s) delta2(k)...delta2(k+s-1) as (num, den) over
        the denominator of the order-q window, or None."""
        if self._window(k, q) is None:
            return None
        row = self._windows[k]
        den = row[q][1]
        num = sum((-1) ** s * math.comb(q, s) * row[s][0] * (den // row[s][1]) for s in range(q + 1))
        return num, den

    def _bq_value(self, k: int, q: int) -> float:
        exact = self._bq_exact(k, q)
        if exact is not None:
            return exact[0] / exact[1]
        return float(sum((-1) ** s * math.comb(q, s) * self._q_value(k, s) for s in range(q + 1)))

    def _check_axis(self, i: int) -> None:
        if not 1 <= i <= self.m:
            raise ValueError(f"axis {i} out of range for arity {self.m}")

    # -- level-wise forms ---------------------------------------------------

    def weights(self, i: int, exps) -> np.ndarray:
        """w_i(n) for each row n of the integer array ``exps``."""
        self._check_axis(i)
        exps = np.asarray(exps, dtype=np.intp)
        levels = exps.sum(axis=1)
        d2 = _by_level(levels, self._level_d2)
        return np.sqrt(d2 * (exps[:, i - 1] + 1) / (levels + self.m))

    def q_diags(self, s: int, levels) -> np.ndarray:
        """q_diag(k, s) for each degree k in ``levels``."""
        if s < 0:
            raise ValueError("power s must be >= 0")
        return _by_level(levels, lambda k: self._q_value(k, s))

    def bq_diags(self, q: int, levels) -> np.ndarray:
        """bq_diag(k, q) for each degree k in ``levels``."""
        if q < 1:
            raise ValueError("order q must be >= 1")
        return _by_level(levels, lambda k: self._bq_value(k, q))

    def self_comm_coeffs(self, j: int, exps) -> np.ndarray:
        """Diagonal entry of [T_j*, T_j] at e_n for each row n of ``exps``."""
        self._check_axis(j)
        exps = np.asarray(exps, dtype=np.intp)
        return _by_level(exps.sum(axis=1), self._self_row, exps[:, j - 1])

    def cross_comm_coeffs(self, j: int, l: int, exps) -> Tuple[np.ndarray, np.ndarray]:
        """[T_j*, T_l] e_n = coeff * e_target for each row n of ``exps``.

        Returns (coeffs, targets): targets[r] is n - e_j + e_l, and a row of
        -1 where n_j = 0, where the map is zero and there is no target.
        """
        if j == l:
            raise ValueError("cross-commutator needs distinct axes")
        self._check_axis(j)
        self._check_axis(l)
        exps = np.asarray(exps, dtype=np.intp)
        nj, nl = exps[:, j - 1], exps[:, l - 1]
        absent = nj == 0
        coeffs = np.sqrt(nj * (nl + 1)) * _by_level(exps.sum(axis=1), self._cross_level)
        coeffs[absent] = 0.0
        targets = exps.copy()
        targets[:, j - 1] -= 1
        targets[:, l - 1] += 1
        targets[absent] = -1
        return coeffs, targets

    # -- weights and norms --------------------------------------------------

    def weight(self, i: int, n) -> float:
        """w_i(n) > 0 for 1 <= i <= m."""
        return float(self.weights(i, [MultiIndex(n)])[0])

    def log_beta_norm(self, n) -> float:
        n = tuple(n)
        k = sum(n)
        logfac = math.lgamma(self.m) - math.lgamma(self.m + k)
        for c in n:
            logfac += math.lgamma(c + 1)
        return self.seq.log_bbeta(k) + 0.5 * logfac

    def beta_norm(self, n) -> float:
        """The monomial norm beta_n = bbeta_{|n|} sqrt((m-1)! n!/(m-1+|n|)!)."""
        return math.exp(self.log_beta_norm(n))

    # -- diagonal data of Q_T powers ----------------------------------------

    def q_diag(self, k: int, s: int) -> float:
        """Eigenvalue of the s-th iterate of X -> sum_i T_i* X T_i applied to
        the identity, on any e_n with |n| = k: delta2(k)...delta2(k+s-1).

        Exact when the family is; otherwise (bbeta(k+s)/bbeta(k))^2 in log
        space. math.inf when the value overflows a float.
        """
        return float(self.q_diags(s, [k])[0])

    def q_diag_exact(self, k: int, s: int) -> Optional[Fraction]:
        """delta2(k)...delta2(k+s-1) exactly; None unless delta2(0..k+s-1)
        are all exact."""
        if s < 0:
            raise ValueError("power s must be >= 0")
        exact = self._window(k, s)
        return None if exact is None else Fraction(*exact)

    def bq_diag(self, k: int, q: int) -> float:
        """Diagonal entry of the order-q defect sum_{s} (-1)^s C(q,s) Q^s."""
        return float(self.bq_diags(q, [k])[0])

    def bq_diag_exact(self, k: int, q: int) -> Optional[Fraction]:
        if q < 1:
            raise ValueError("order q must be >= 1")
        exact = self._bq_exact(k, q)
        return None if exact is None else Fraction(*exact)

    # -- commutator coefficients ---------------------------------------------

    def self_comm_coeff(self, j: int, n) -> float:
        """Diagonal entry of [T_j*, T_j] at e_n."""
        return float(self.self_comm_coeffs(j, [MultiIndex(n)])[0])

    def cross_comm_coeff(self, j: int, l: int, n) -> Tuple[float, Optional[MultiIndex]]:
        """[T_j*, T_l] e_n = coeff * e_target; target None when n_j = 0.

        The n_j = 0 branch is the zero map and is reported as an absent
        target, never as a zero coefficient, so norm sums can skip
        structural zeros without counting them.
        """
        coeffs, targets = self.cross_comm_coeffs(j, l, [MultiIndex(n)])
        if targets[0, 0] < 0:
            return 0.0, None
        return float(coeffs[0]), MultiIndex(targets[0].tolist())
