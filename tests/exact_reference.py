"""Reference values the tests check the library against.

Each is a direct transcription of a definition, in exact Fractions where
the family allows, and shares no code with the closed forms under test:
gamma and its forward differences over the whole gamma list, delta2 as the
rounded exact value, the jumps of the rho-eta recursion, multinomial
coefficients, the graded-reverse-lex levels, and monomial norms.
"""

import itertools
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
# the sup, whose type (Fraction or float) says how it is known.
FACTS = ("delta2_limit", "delta2_liminf", "monotone_nondecreasing",
         "essentially_normal_declared", "diff_decay_ck", "sup")


def declared_facts(seq) -> dict:
    """FACTS as the family declared them; a scaled family's as
    ScaledSequence forms them from its base's, with c^2 rounded once."""
    if seq.name.startswith("scaled("):
        base, c = declared_facts(seq.base), seq.c
        c2 = float(c * c)
        sup = base["sup"]
        if isinstance(sup, Fraction) and not isinstance(c, float):
            sup = c * c * sup
        elif sup is not None:
            sup = float(sup) * c2
        return {**base, "sup": sup,
                **{key: None if base[key] is None else base[key] * c2
                   for key in ("delta2_limit", "delta2_liminf")}}
    if seq.name == "hp":
        one = 1.0 if isinstance(seq.p, float) else Fraction(1)
        return dict(zip(FACTS, (1.0, None, bool(seq.p >= seq.m), True, True,
                                max(one, seq.m / seq.p))))
    if seq.name == "constant":
        c2 = seq.c * seq.c
        return dict(zip(FACTS, (float(c2), None, True, True, True,
                                c2 if isinstance(c2, Fraction) else float(c2))))
    if seq.name == "poly-gamma":
        return dict(zip(FACTS, (1.0, None, None, True, True, None)))
    if seq.name == "alt-twelve":
        return dict(zip(FACTS, (None, 0.25, False, False, False, Fraction(1, 3))))
    raise KeyError(seq.name)


def derived_facts(seq) -> dict:
    """FACTS as the sequence now holds them."""
    return {key: seq.sup_delta2() if key == "sup" else getattr(seq, key) for key in FACTS}
