"""Reference values the tests check the library against.

Each is a direct transcription of a definition, in exact Fractions where
the family allows, and shares no code with the closed forms under test:
gamma and its forward differences over the whole gamma list, delta2 as the
rounded exact value, the jumps of the rho-eta recursion, multinomial
coefficients, and monomial norms.
"""

import math
import weakref
from fractions import Fraction

_GAMMAS = weakref.WeakKeyDictionary()  # sequence -> [gamma(0), gamma(1), ...]


def gamma_exact(seq, k: int):
    """gamma(k) = delta2(0)...delta2(k-1) as a Fraction, or None unless
    each of those levels is exact (delta2(0) at least)."""
    if seq.delta2_exact(0) is None:
        return None
    cache = _GAMMAS.setdefault(seq, [Fraction(1)])
    while len(cache) <= k:
        d2 = seq.delta2_exact(len(cache) - 1)
        if d2 is None:
            return None
        cache.append(cache[-1] * d2)
    return cache[k]


def nabla_gamma(seq, k: int, q: int):
    """q-th forward difference of gamma at k by the binomial expansion
    sum_s (-1)^(q-s) C(q,s) gamma(k+s); exact when gamma is, else float."""
    if q < 1:
        raise ValueError("difference order q must be >= 1")
    if gamma_exact(seq, k + q) is not None:
        return sum((-1) ** (q - s) * math.comb(q, s) * gamma_exact(seq, k + s)
                   for s in range(q + 1))
    logbb = seq.log_bbeta_array(k + q)
    return float(sum((-1) ** (q - s) * math.comb(q, s) * math.exp(2.0 * logbb[k + s])
                     for s in range(q + 1)))


def delta2_float(seq, k: int) -> float:
    """delta2(k) as a float: the rounded exact value where the family has
    one, so that it shares nothing with the float generator; otherwise the
    value of the float snapshot."""
    exact = seq.delta2_exact(k)
    return float(seq.delta2_array(k)[k]) if exact is None else float(exact)


def eta(k: int) -> Fraction:
    """The rho-eta jump: 2^(-l) if k = 2^(2^l) for an integer l >= 0, else 0
    (rho_0 = 1 and rho_{k+1} = rho_k + eta_k)."""
    l = 0
    while 2 ** (2 ** l) < k:
        l += 1
    return Fraction(1, 2 ** l) if 2 ** (2 ** l) == k else Fraction(0)


def multinomial(alpha) -> int:
    """|alpha|! / (alpha_1! ... alpha_m!), exactly."""
    out = math.factorial(sum(alpha))
    for a in alpha:
        out //= math.factorial(a)
    return out


def beta_norm(shift, n) -> float:
    """The monomial norm bbeta_{|n|} sqrt((m-1)! n! / (m-1+|n|)!), in log space."""
    k, m = sum(n), shift.m
    logfac = math.lgamma(m) - math.lgamma(m + k) + sum(math.lgamma(c + 1) for c in n)
    return math.exp(shift.seq.log_bbeta_array(k)[k] + 0.5 * logfac)


def add_unit(n, j: int) -> tuple:
    """n + e_j, with the axis j counted from 1."""
    return tuple(n[:j - 1]) + (n[j - 1] + 1,) + tuple(n[j:])
