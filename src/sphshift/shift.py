"""Closed forms for the spherical m-shift built from a scalar sequence.

The tuple acts on the orthonormal basis {e_n : n in N^m} by
T_i e_n = w_i(n) e_{n+eps_i}; every quantity below is a function of the
scalar data delta2 and exact multi-index combinatorics. Commutator
coefficients are assembled from exact rationals whenever the family has an
exact path, so the small differences they contain are not lost to
cancellation before the final float conversion.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple

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


class SphericalShift:
    """The m-tuple with weights w_i(n) = delta_{|n|} sqrt((n_i+1)/(|n|+m))."""

    def __init__(self, m: int, seq: ScalarSequence):
        if m < 1:
            raise ValueError("arity m must be >= 1")
        self.m = int(m)
        self.seq = seq
        self._pairs = {}  # level k -> _level_pair(k)

    # -- weights and norms --------------------------------------------------

    def weight(self, i: int, n) -> float:
        """w_i(n) > 0 for 1 <= i <= m."""
        n = MultiIndex(n)
        if not 1 <= i <= self.m:
            raise ValueError(f"axis {i} out of range for arity {self.m}")
        k = n.degree()
        return math.sqrt(self.seq.delta2(k) * (n[i - 1] + 1) / (k + self.m))

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
        if s < 0:
            raise ValueError("power s must be >= 0")
        if s == 0:
            return 1.0
        exact = self.q_diag_exact(k, s)
        try:
            if exact is not None:
                return float(exact)
            return math.exp(2.0 * (self.seq.log_bbeta(k + s) - self.seq.log_bbeta(k)))
        except OverflowError:
            return math.inf

    def q_diag_exact(self, k: int, s: int) -> Optional[Fraction]:
        """delta2(k)...delta2(k+s-1) = gamma(k+s)/gamma(k) from the
        sequence's cached exact gamma; None when gamma is not exact."""
        top = self.seq.gamma_exact(k + s)
        if top is None:
            return None
        return top / self.seq.gamma_exact(k)

    def bq_diag(self, k: int, q: int) -> float:
        """Diagonal entry of the order-q defect sum_{s} (-1)^s C(q,s) Q^s."""
        if q < 1:
            raise ValueError("order q must be >= 1")
        exact = self.bq_diag_exact(k, q)
        if exact is not None:
            return float(exact)
        return float(
            sum((-1) ** s * math.comb(q, s) * self.q_diag(k, s) for s in range(q + 1))
        )

    def bq_diag_exact(self, k: int, q: int) -> Optional[Fraction]:
        if q < 1:
            raise ValueError("order q must be >= 1")
        out = Fraction(0)
        for s in range(q + 1):
            term = self.q_diag_exact(k, s)
            if term is None:
                return None
            out += (-1) ** s * math.comb(q, s) * term
        return out

    # -- commutator coefficients ---------------------------------------------

    def _level_pair(self, k: int):
        """(delta2(k)/(k+m), delta2(k-1)/(k+m-1)) exactly when possible;
        evaluated once per level."""
        if k not in self._pairs:
            a = self.seq.delta2_exact(k)
            b = self.seq.delta2_exact(k - 1) if k >= 1 else Fraction(0)
            if a is not None and b is not None:
                pair = a / (k + self.m), (b / (k + self.m - 1) if k >= 1 else Fraction(0))
            else:
                cur = self.seq.delta2(k) / (k + self.m)
                prev = self.seq.delta2(k - 1) / (k + self.m - 1) if k >= 1 else 0.0
                pair = cur, prev
            self._pairs[k] = pair
        return self._pairs[k]

    def self_comm_coeff(self, j: int, n) -> float:
        """Diagonal entry of [T_j*, T_j] at e_n."""
        n = MultiIndex(n)
        if not 1 <= j <= self.m:
            raise ValueError(f"axis {j} out of range for arity {self.m}")
        k = n.degree()
        cur, prev = self._level_pair(k)
        t = n[j - 1]
        if t == 0:
            return float(cur)
        return float((t + 1) * cur - t * prev)

    def cross_comm_coeff(self, j: int, l: int, n) -> Tuple[float, Optional[MultiIndex]]:
        """[T_j*, T_l] e_n = coeff * e_target; target None when n_j = 0.

        The n_j = 0 branch is the zero map and is reported as an absent
        target, never as a zero coefficient, so norm sums can skip
        structural zeros without counting them.
        """
        n = MultiIndex(n)
        if j == l:
            raise ValueError("cross-commutator needs distinct axes")
        for ax in (j, l):
            if not 1 <= ax <= self.m:
                raise ValueError(f"axis {ax} out of range for arity {self.m}")
        if n[j - 1] == 0:
            return 0.0, None
        k = n.degree()
        cur, prev = self._level_pair(k)
        coeff = math.sqrt(n[j - 1] * (n[l - 1] + 1)) * float(cur - prev)
        target = n.add_unit(l).sub_unit(j)
        return coeff, target
