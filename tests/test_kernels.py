"""The level-sum kernels against direct enumeration of each level."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphshift import _kernels
from sphshift.multiindex import enumerate_level


def enum_pairsum(k, m, p, offset):
    total = 0.0
    for n in enumerate_level(m, k):
        if n[0] > 0:
            total += n[0] ** (p / 2) * (n[1] + offset) ** (p / 2)
    return total


def enum_abs_sum(k, m, p, s):
    return sum(abs(s * n[0] - 1) ** p for n in enumerate_level(m, k))


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_pairsum_matches_enumeration(m, p):
    for k in (0, 1, 2, 7, 20):
        for offset in (0.0, 1.0):
            got = _kernels.pairsum(k, m, p, offset)
            assert got == pytest.approx(enum_pairsum(k, m, p, offset), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_abs_sum_matches_enumeration(m):
    for k in (0, 1, 5, 30):
        for s in (0.0, 1.0, 0.37, -2.0):
            got = _kernels.abs_sum(k, m, 1.0, s)
            assert got == pytest.approx(enum_abs_sum(k, m, 1.0, s), rel=1e-12)


def test_abs_sum_zero_s_counts_level():
    # s = 0 collapses to the level count
    assert _kernels.abs_sum(30, 3, 2.0, 0.0) == pytest.approx(math.comb(32, 2))


def enum_self_level(d2, m, p, k):
    b = d2[k] / (k + m)
    diff = b - (d2[k - 1] / (k + m - 1) if k else 0.0)
    return sum(abs(n[0] * diff + b) ** p for n in enumerate_level(m, k))


def enum_cross_level(d2, m, p, k):
    if k == 0:
        return 0.0
    diff = d2[k] / (k + m) - d2[k - 1] / (k + m - 1)
    return sum(
        abs(math.sqrt(n[0] * (n[1] + 1)) * diff) ** p
        for n in enumerate_level(m, k)
        if n[0] > 0
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    p=st.floats(1.0, 4.0),
    kmax=st.integers(1, 14),
    seed=st.integers(0, 2**31 - 1),
)
def test_level_powersums_match_enumeration(m, p, kmax, seed):
    rng = np.random.default_rng(seed)
    d2 = rng.uniform(0.1, 3.0, size=kmax + 1)
    got = _kernels.self_level_powersums(d2, m, p)
    want = [enum_self_level(d2, m, p, k) for k in range(kmax + 1)]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    if m >= 2:
        got = _kernels.cross_level_powersums(d2, m, p)
        want = [enum_cross_level(d2, m, p, k) for k in range(kmax + 1)]
        np.testing.assert_allclose(got, want, rtol=1e-12)


def direct_cross_level(d2, m, p):
    """The direct O(K^2) convolution that the banded FFT replaced."""
    kmax = len(d2) - 1
    out = np.zeros(kmax + 1)
    if kmax == 0:
        return out
    k = np.arange(1, kmax + 1, dtype=np.float64)
    diff = d2[1:] / (k + m) - d2[:-1] / (k + m - 1)
    pair = np.convolve(k ** (p / 2.0), _kernels._pair_weights(kmax, m, p, 1.0))[:kmax]
    out[1:] = np.abs(diff) ** p * pair
    return out


def unit_difference_d2(kmax, m):
    # delta2(k) = (k+m)(k+1) makes every D_k exactly 1, so each level is its
    # pair sum and no |D_k|^p underflows at large p
    k = np.arange(kmax + 1, dtype=np.float64)
    return (k + m) * (k + 1)


def assert_levels_match(got, want):
    finite = np.isfinite(want)
    np.testing.assert_array_equal(np.isfinite(got), finite)
    assert not np.isnan(got).any()
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_cross_level_sums_match_direct_convolution(m):
    # kmax 1..64 stay in the direct base band; 65 opens the first FFT band
    for p in (1.0, 2.5, m + 1.35, 8.0, 20.0, 40.0, 80.0):
        for kmax in (1, 2, 63, 64, 65, 600, 5000, 20000):
            d2 = unit_difference_d2(kmax, m)
            with np.errstate(over="ignore"):
                want = direct_cross_level(d2, m, p)
            assert_levels_match(_kernels.cross_level_powersums(d2, m, p), want)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [200.0, 1000.0])
def test_cross_level_sums_overflow_to_inf(m, p):
    # p = 200 overflows inside the FFT bands, p = 1000 inside the base band
    d2 = unit_difference_d2(2000, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels.cross_level_powersums(d2, m, p)
    with np.errstate(over="ignore"):
        want = direct_cross_level(d2, m, p)
    assert np.isinf(want).any() and np.isfinite(want[1:]).any()
    assert_levels_match(got, want)


def exact_pair_sums(kmax, m):
    """Pair sums at p = 200 in integers: level k sums (i+1)^100 w_{k-1-i}."""
    a = [(i + 1) ** 100 for i in range(kmax)]
    w = a
    for _ in range(m - 2):
        w = list(itertools.accumulate(w))
    return lambda k: sum(a[i] * w[k - 1 - i] for i in range(k))


def test_cross_level_sums_where_pair_sums_overflow_and_powers_underflow():
    # bergman at m = 2: |D_k|^200 = ((k+2)(k+3))^-200 underflows from level 4
    # on and the pair sums overflow from level 68 on; the exact levels from
    # 68 on round to 0
    kmax = 2000
    k = np.arange(kmax + 1, dtype=np.float64)
    d2 = (k + 2) / (k + 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels.cross_level_powersums(d2, 2, 200.0)
    assert not np.isnan(got).any()
    pair = exact_pair_sums(kmax, 2)
    for level in (1, 2, 3, 68, 69, 500, 1500, 2000):
        want = float(Fraction(pair(level), ((level + 2) * (level + 3)) ** 200))
        assert got[level] == pytest.approx(want, rel=1e-12, abs=0.0), level


def test_cross_level_sums_where_only_the_powers_underflow():
    # bergman at m = 2, p = 200: |D_k|^200 underflows to 0 from level 4 on,
    # while levels 4..16 are floats (2.9e-247 down to subnormal 1.8e-321)
    kmax = 2000
    k = np.arange(kmax + 1, dtype=np.float64)
    d2 = (k + 2) / (k + 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels.cross_level_powersums(d2, 2, 200.0)
    pair = exact_pair_sums(kmax, 2)
    for level in range(4, 17):
        want = float(Fraction(pair(level), ((level + 2) * (level + 3)) ** 200))
        assert want > 0
        # the last levels are subnormal and carry only the bits they have
        assert got[level] == pytest.approx(want, rel=1e-12 if want > 1e-300 else 1e-6,
                                           abs=0.0), level
    assert got[17:68].max() == 0.0  # the exact levels round to 0 there


@pytest.mark.parametrize("m", [2, 3])
def test_cross_level_sums_unchanged_where_the_powers_do_not_underflow(m):
    # the log route only replaces levels the product would round to 0
    for p in (2.5, 40.0, 200.0):
        for d2 in (unit_difference_d2(3000, m),
                   (np.arange(3001.0) + m) / (np.arange(3001.0) + m + 1)):
            got = _kernels.cross_level_powersums(d2, m, p)
            k = np.arange(1, 3001, dtype=np.float64)
            diff = d2[1:] / (k + m) - d2[:-1] / (k + m - 1)
            with np.errstate(over="ignore", invalid="ignore"):
                product = np.abs(diff) ** p * _kernels._cross_pair_sums(3000, m, p)
            same = (np.abs(diff) ** p != 0) & np.isfinite(product)
            assert np.array_equal(got[1:][same], product[same])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cross_level_sums_carry_the_size_of_overflowing_pair_sums(m):
    # D_k = 2^-10 exactly: |D_k|^200 = 2^-2000 underflows to 0, yet from
    # level 68 on the pair sum makes the level a normal float
    kmax = 2000
    d2 = unit_difference_d2(kmax, m) / 1024
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels.cross_level_powersums(d2, m, 200.0)
    pair = exact_pair_sums(kmax, m)
    for level in (68, 69, 100, 700, 1999, 2000):
        want = float(Fraction(pair(level), 2 ** 2000))
        assert want > 0
        # the log route keeps about 1400 * 2^-52 of each level, relative
        assert got[level] == pytest.approx(want, rel=1e-12), level


def loop_self_level(d2, m, p):
    """The per-level loop that the row-block kernel replaced: one dot per level."""
    kmax = len(d2) - 1
    out = np.empty(kmax + 1)
    out[0] = (d2[0] / m) ** p
    counts = np.array([math.comb(x + m - 2, m - 2) if m >= 2 else 0
                       for x in range(kmax + 1)], dtype=np.float64)
    for k in range(1, kmax + 1):
        b = d2[k] / (k + m)
        diff = b - d2[k - 1] / (k + m - 1)
        if m == 1:
            out[k] = abs(k * diff + b) ** p
            continue
        t = np.arange(k + 1, dtype=np.float64)
        out[k] = float(np.dot(counts[k::-1], np.abs(t * diff + b) ** p))
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_self_level_sums_match_loop_across_blocks(m):
    # at m >= 2, kmax 6000 puts most levels' roots far from the direct window
    rng = np.random.default_rng(100 + m)
    d2 = rng.uniform(0.1, 3.0, size=6001)
    p = 1.0 + 0.7 * m
    np.testing.assert_allclose(
        _kernels.self_level_powersums(d2, m, p), loop_self_level(d2, m, p), rtol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_self_level_sums_match_loop_across_level_chunks(m, monkeypatch):
    # levels are taken CHUNK at a time; a small CHUNK puts many chunk and
    # block boundaries inside a horizon the loop can check whole
    monkeypatch.setattr(_kernels, "CHUNK", 700)
    rng = np.random.default_rng(200 + m)
    d2 = rng.uniform(0.1, 3.0, size=3001)
    p = 1.0 + 0.7 * m
    np.testing.assert_allclose(
        _kernels.self_level_powersums(d2, m, p), loop_self_level(d2, m, p), rtol=1e-12)


def loop_levels(d2, m, p, levels):
    """loop_self_level at the given levels only, each summed by fsum."""
    counts = np.array([math.comb(x + m - 2, m - 2) for x in range(max(levels) + 1)],
                      dtype=np.float64)
    out = []
    for k in levels:
        b = d2[k] / (k + m)
        diff = b - d2[k - 1] / (k + m - 1)
        t = np.arange(k + 1, dtype=np.float64)
        out.append(math.fsum((counts[k::-1] * np.abs(t * diff + b) ** p).tolist()))
    return np.array(out)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [12.0, 20.0, 40.0, 80.0])
def test_self_level_sums_match_loop_at_large_exponents(m, p):
    # larger p needs a wider direct window, more corrections and more
    # Gauss-Legendre nodes (R = 38 and n = 37 at m = 5, p = 80)
    rng = np.random.default_rng(int(10 * p) + m)
    d2 = rng.uniform(0.1, 3.0, size=12001)
    got = _kernels.self_level_powersums(d2, m, p)
    levels = np.unique(np.concatenate([np.arange(1, 12001, 241), [11999, 12000]]))
    np.testing.assert_allclose(got[levels], loop_levels(d2, m, p, levels), rtol=1e-12)


def test_self_level_sums_with_zero_differences():
    # delta2(k) = k + m makes every D_k = 0 and c_k = 1: level k counts the
    # C(k+m-1, m-1) indices of the level, and no root lies anywhere
    for m in (2, 3, 5):
        d2 = np.arange(3001.0) + m
        got = _kernels.self_level_powersums(d2, m, 3.5)
        want = [math.comb(k + m - 1, m - 1) for k in range(3001)]
        np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("m,p", [(2, 3.0), (3, 3.0), (4, 5.0), (5, 12.0)])
def test_self_level_sums_overflow_to_inf_not_nan(m, p):
    # each term overflows; the level is summed scaled by a power of two, and
    # the scale brought back at the end gives inf
    with np.errstate(over="ignore"):
        got = _kernels.self_level_powersums(np.full(3001, 1e120), m, p)
    assert np.isinf(got).all()


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("p,kmax", [(1100.0, 3000), (1100.0, 200), (1e5, 200)])
def test_self_level_sums_keep_their_size_at_huge_exponents(m, p, kmax):
    # every term is scaled by its level's largest base, so none underflows:
    # with delta2(k) = k + m the bases are 1 and level k counts C(k+m-1, m-1)
    # indices. Perturbed by about 1/(p kmax) the bases stay near 1 and the
    # sums in range. Each base of either side is off by an ulp or so, which
    # the power p carries into the level. At kmax 3000, p = 1100 takes the
    # Euler-Maclaurin and Gauss-Legendre rules; the shorter horizons are
    # summed whole
    levels = np.unique(np.linspace(1, kmax, 60).astype(int))
    d2 = np.arange(kmax + 1.0) + m
    got = _kernels.self_level_powersums(d2, m, p)
    np.testing.assert_allclose(got[levels], loop_levels(d2, m, p, levels), rtol=1e-12)
    d2 *= 1 + np.random.default_rng(m).uniform(-10, 10, kmax + 1) / (p * kmax)
    got = _kernels.self_level_powersums(d2, m, p)
    np.testing.assert_allclose(got[levels], loop_levels(d2, m, p, levels),
                               rtol=max(1e-12, 4 * p * 2.0 ** -53))


@pytest.mark.parametrize("m", [2, 3])
def test_self_level_sums_summed_whole_build_no_gauss_legendre_rule(m, monkeypatch):
    # at p = 1e5 the rules want about 3R + n = 3e4 levels, so kmax 200 is
    # summed whole and has no segment: the n-node rule, O(n^2) to build at
    # n of about 3e4, must not be built
    def refuse(n):
        raise AssertionError(f"a {n}-node Gauss-Legendre rule was built")

    monkeypatch.setattr(_kernels, "_gauss", refuse)
    kmax, p = 200, 1e5
    levels = np.unique(np.linspace(1, kmax, 20).astype(int))
    d2 = np.arange(kmax + 1.0) + m
    d2 *= 1 + np.random.default_rng(m).uniform(-1, 1, kmax + 1) / (p * kmax)
    got = _kernels.self_level_powersums(d2, m, p)
    np.testing.assert_allclose(got[levels], loop_levels(d2, m, p, levels), rtol=4 * p * 2.0 ** -53)


def placed_roots(kmax, m, where, seed):
    """delta2(0..kmax) that puts the root x_k = c_k/D_k of each odd level k
    where asked: left of the level (down to the weight's roots at -1..-(m-2)
    and beyond), on an integer of 0..k, halfway between two, beyond k, or
    nowhere (D_k = 0). Level k reads only delta2(k-1) and delta2(k), so the
    odd levels are set independently; the even ones fall where they may."""
    rng = np.random.default_rng(seed)
    d2 = rng.uniform(0.1, 3.0, size=kmax + 1)
    for k in range(1, kmax + 1, 2):
        u = rng.uniform()
        root = {"left": -u * (k + 1), "integer": np.floor(u * (k + 1)),
                "half": np.floor(u * k) + 0.5, "beyond": k + 0.5 + u * (k + 2.5),
                "none": math.inf}[where]
        # c_k = x_k D_k and D_k = b_k - b_{k-1} give b_k = b_{k-1} (x_k - k)/(x_k - k - 1)
        ratio = 1.0 if root == math.inf else (root - k) / (root - k - 1)
        d2[k] = d2[k - 1] / (k + m - 1) * ratio * (k + m)
    return d2


PLACEMENTS = ["left", "integer", "half", "beyond", "none"]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kmax=st.integers(1, 600),
    p=st.floats(1.0, 30.0),
    where=st.sampled_from(PLACEMENTS),
    seed=st.integers(0, 2**31 - 1),
)
def test_self_level_sums_match_loop_at_each_root_placement(m, kmax, p, where, seed):
    # every level once, whichever of the direct window, the closed-form
    # integral or the Gauss-Legendre rule covers each part of it
    d2 = placed_roots(kmax, m, where, seed)
    levels = np.arange(1, kmax + 1)
    got = _kernels.self_level_powersums(d2, m, p)
    np.testing.assert_allclose(got[levels], loop_levels(d2, m, p, levels), rtol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("where", PLACEMENTS)
def test_self_level_sums_are_exact_on_polynomial_summands(m, where):
    # at even p each summand is a polynomial of degree p + m - 2 in s, which
    # Euler-Maclaurin and the closed-form or Gauss-Legendre integral sum
    # exactly, so only rounding is left
    for p in (2.0, 4.0, 8.0):
        d2 = placed_roots(300, m, where, 7 * m + int(p))
        levels = np.arange(1, 301)
        got = _kernels.self_level_powersums(d2, m, p)
        np.testing.assert_allclose(got[levels], loop_levels(d2, m, p, levels), rtol=1e-12)


def count_terms(monkeypatch, d2, m, p):
    """The summands _terms evaluates in one self_level_powersums call."""
    counted = [0]
    terms = _kernels._terms

    def counting(c, diff, s, m, p):
        counted[0] += s.size
        return terms(c, diff, s, m, p)

    monkeypatch.setattr(_kernels, "_terms", counting)
    _kernels.self_level_powersums(d2, m, p)
    return counted[0]


def counted_terms(monkeypatch, kmax):
    """count_terms up to level kmax, on random delta2 in [0.1, 3] at m = 3, p = 2.5."""
    d2 = np.random.default_rng(3).uniform(0.1, 3.0, size=kmax + 1)
    return count_terms(monkeypatch, d2, 3, 2.5)


def test_self_level_sums_cost_k_log_k_terms(monkeypatch):
    # at kmax 1e5 a direct sum takes K^2/2 = 5e9 terms; the level sums stay
    # below 32 K log2 K = 5.3e7
    kmax = 100_000
    assert 0 < counted_terms(monkeypatch, kmax) < 32 * kmax * math.log2(kmax)


@pytest.mark.parametrize("kmax", [10_000, 100_000])
def test_self_level_sums_cost_linear_terms(kmax, monkeypatch):
    # each level takes its R = 10 first terms at m = 3, p = 2.5, at most 2R
    # more where the root's window meets [R, k], two end values per non-empty
    # segment and n = 11 Gauss-Legendre nodes per far segment: at most
    # 3R + 4 + 2n = 56 terms a level, and on random delta2 well under 40
    assert 0 < counted_terms(monkeypatch, kmax) < 40 * kmax


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("q", ["szego", "bergman"])
def test_self_level_sums_cost_where_every_root_is_negative(m, q, monkeypatch):
    # hp families, delta2(k) = (k+m)/(k+q) with q = m (szego) or m + 1
    # (bergman): every root is x_k = 1 - q < 0, so no level has a window
    # about its root or a segment left of it, and each takes its R first
    # terms and the two ends of [R, k]: R + 2 a level, against 3R + 4 when
    # every level paid for a window and both segments
    kmax, p = 10_000, 2.5
    k = np.arange(kmax + 1.0)
    d2 = (k + m) / (k + {"szego": m, "bergman": m + 1}[q])
    R = _kernels._rules(m, p)[0]
    assert 0 < count_terms(monkeypatch, d2, m, p) < (R + 3) * kmax


def test_rules_are_derived_without_warnings():
    # the search for the least R tries only candidates R >= 1, so it takes
    # no log of a non-positive number, inside an errstate block or not
    _kernels._rules.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (m, p), rules in {(2, 1.45): (9, 11), (3, 2.58): (10, 11), (4, 5.26): (12, 13)}.items():
            R, _, _, n = _kernels._rules(m, p)
            assert (R, n) == rules
        for m in range(2, 9):
            for p in (1.0, 1.5, 2.5, 4.0, 7.3, 12.0, 20.0, 40.0, 80.0):
                _kernels._rules(m, p)


def test_rules_keep_the_euler_maclaurin_remainder_within_2_53():
    # (pi^2/3) (P)_2r (2 pi R)^-2r e^(P/R), P = p + m - 2, recomputed in log
    # space for the (R, r) each (m, p) gets; the search ends on the least
    # integer R that fits, so no pair lands above the bound
    for m in range(2, 9):
        for p in np.arange(1.0, 80.001, 0.05).tolist():
            R, coef, _, _ = _kernels._rules(m, p)
            r, P = coef.shape[1] // 2, p + m - 2.0
            log_bound = (math.log(math.pi ** 2 / 3) + math.fsum(math.log(P + i) for i in range(2 * r))
                         - 2 * r * math.log(2 * math.pi * R) + P / R)
            assert log_bound <= -53 * math.log(2.0), (m, p, R, r)


def test_kahan_cumsum_matches_fsum(rng):
    x = rng.uniform(-1, 1, size=2000)
    got = _kernels.kahan_cumsum(x)
    assert got[-1] == pytest.approx(math.fsum(x.tolist()), rel=1e-14, abs=1e-14)
    assert got[3] == pytest.approx(math.fsum(x[:4].tolist()), rel=1e-14, abs=1e-14)


def test_self_level_sums_m1():
    d2 = np.array([1.0, 2.0, 0.5])
    # level k holds the single index (k): coefficient (k+1)d2[k]/(k+1) - k d2[k-1]/k
    out = _kernels.self_level_powersums(d2, 1, 1.0)
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(abs(2 * 2.0 / 2 - 1 * 1.0 / 1))
    assert out[2] == pytest.approx(abs(3 * 0.5 / 3 - 2 * 2.0 / 2))


def fit_slope_whole(x, y):
    """The closed-form fit with whole-array temporaries, as fit_slope was
    before it centred x in blocks and y in place."""
    xc = x - x.mean()
    with np.errstate(invalid="ignore"):
        prod = y - y.mean()
        prod *= xc
        num = prod.sum()
    np.multiply(xc, xc, out=prod)
    return float(num / prod.sum())


@pytest.mark.parametrize("n", [2, 21, _kernels.CHUNK - 1, _kernels.CHUNK, _kernels.CHUNK + 1,
                               3 * _kernels.CHUNK + 7])
def test_fit_slope_is_the_whole_array_fit_bit_for_bit(n, rng):
    x = np.log(np.arange(n, 2 * n, dtype=np.float64))
    x_before = x.copy()
    for y in (-1.3 * x + rng.normal(scale=0.1, size=n), rng.uniform(-5, 5, size=n)):
        want = fit_slope_whole(x, y)
        assert repr(_kernels.fit_slope(x, y.copy())) == repr(want)
    assert np.array_equal(x, x_before)  # x may be shared by several fits


def test_fit_slope_of_inf_or_nan_is_nan_without_warning():
    x = np.log(np.arange(100, 300, dtype=np.float64))
    for bad in (np.inf, np.nan):
        y = -2.0 * x
        y[150] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(_kernels.fit_slope(x, y))
