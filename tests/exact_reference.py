"""Reference values the tests check the library against.

Each is a direct transcription of a definition, in exact Fractions where
the family allows, and shares no code with the closed forms under test:
gamma and its forward differences over the whole gamma list, delta2 as the
rounded exact value, the jumps of the rho-eta recursion, multinomial
coefficients, the graded-reverse-lex levels, monomial norms, and the
least-squares slope from whole arrays.
"""

import itertools
import math
import weakref
from fractions import Fraction

import numpy as np

_GAMMAS = weakref.WeakKeyDictionary()  # sequence -> [gamma(0), gamma(1), ...]


def gamma_exact(seq, k: int) -> Fraction:
    """gamma(k) = delta2(0)...delta2(k-1) as a Fraction."""
    cache = _GAMMAS.setdefault(seq, [Fraction(1)])
    while len(cache) <= k:
        cache.append(cache[-1] * seq.delta2_exact(len(cache) - 1))
    return cache[k]


def nabla_gamma(seq, k: int, q: int) -> Fraction:
    """q-th forward difference of gamma at k by the binomial expansion
    sum_s (-1)^(q-s) C(q,s) gamma(k+s), exactly."""
    if q < 1:
        raise ValueError("difference order q must be >= 1")
    return sum((-1) ** (q - s) * math.comb(q, s) * gamma_exact(seq, k + s)
               for s in range(q + 1))


def delta2_float(seq, k: int) -> float:
    """delta2(k) as a float: the rounded exact value, so that it shares
    nothing with the float generator."""
    return float(seq.delta2_exact(k))


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


def grevlex_level(m: int, k: int) -> list:
    """Every n in N^m with |n| = k as a tuple, in graded-reverse-lex order:
    ascending in the reversed tuple. Each of the k units picks a slot."""
    level = [tuple(slots.count(i) for i in range(m))
             for slots in itertools.combinations_with_replacement(range(m), k)]
    return sorted(level, key=lambda n: n[::-1])


def add_unit(n, j: int) -> tuple:
    """n + e_j, with the axis j counted from 1."""
    return tuple(n[:j - 1]) + (n[j - 1] + 1,) + tuple(n[j:])


# The facts each rational family stated by hand before they were derived
# from its delta2, as its constructor set them: the five declared facts and
# the sup, a Fraction at the exact value of the family's inputs (a float
# input at its binary value).
FACTS = ("delta2_limit", "delta2_liminf", "monotone_nondecreasing",
         "essentially_normal_declared", "diff_decay_ck", "sup")


def declared_facts(seq) -> dict:
    """FACTS as the family declared them; a scaled family's as
    ScaledSequence forms them from its base's, with c^2 rounded once for the
    limits and exact for the sup."""
    if seq.name.startswith("scaled("):
        base, c = declared_facts(seq.base), seq.c
        c2 = float(c * c)
        sup = None if base["sup"] is None else Fraction(c) ** 2 * base["sup"]
        return {**base, "sup": sup,
                **{key: None if base[key] is None else base[key] * c2
                   for key in ("delta2_limit", "delta2_liminf")}}
    if seq.name == "hp":
        return dict(zip(FACTS, (1.0, None, bool(seq.p >= seq.m), True, True,
                                max(Fraction(1), seq.m / Fraction(seq.p)))))
    if seq.name == "constant":
        c2 = Fraction(seq.c) ** 2
        return dict(zip(FACTS, (float(c2), None, True, True, True, c2)))
    if seq.name == "poly-gamma":
        return dict(zip(FACTS, (1.0, None, None, True, True, None)))
    if seq.name == "alt-twelve":
        return dict(zip(FACTS, (None, 0.25, False, False, False, Fraction(1, 3))))
    raise KeyError(seq.name)


def derived_facts(seq) -> dict:
    """FACTS as the sequence now holds them."""
    return {key: seq.sup_delta2() if key == "sup" else getattr(seq, key) for key in FACTS}


def fit_slope_whole(x, y):
    """The closed-form least-squares slope of y against x from whole-array
    temporaries, every sum an np.sum, as _kernels.fit_slope formed it
    before it centred its data in blocks."""
    xc = x - x.mean()
    with np.errstate(invalid="ignore"):
        prod = y - y.mean()
        prod *= xc
        num = prod.sum()
    np.multiply(xc, xc, out=prod)
    return float(num / prod.sum())
