import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from exact_reference import nabla_gamma
from sphshift.multiindex import enumerate_level
from sphshift.scalarseq import (
    AlternatingTwelve,
    ConstantDelta,
    HpSpace,
    PolynomialGamma,
    RhoEta,
    Tabulated,
    default_suite,
)
from sphshift.shift import SphericalShift
from sphshift import _kernels, schatten
from sphshift.schatten import (
    asymptotic_lemma_check,
    closed_form_level_sums,
    closed_form_norm,
    criterion_term_arrays,
    cutoff_check,
    decide,
)


def compact_tabulated():
    return Tabulated([1], tail=lambda k: Fraction(1, (k + 1) ** 2))


class TestCriterionTerms:
    # criterion_term_arrays(seq, m, p, K)[i][k - 1] is term i + 1 at k

    def test_szego(self):
        t1, t2 = criterion_term_arrays(HpSpace(2, 2), 2, 2.0, 40)
        for k in (1, 5, 40):
            assert t1[k - 1] == pytest.approx(float(k) ** (2 - 2 - 1), rel=1e-14)
            assert t2[k - 1] == 0.0

    def test_alternating_twelve(self):
        _, t2 = criterion_term_arrays(AlternatingTwelve(), 2, 2.0, 9)
        for k in (1, 2, 9):
            assert t2[k - 1] == pytest.approx((1 / 12) ** 2 * k, rel=1e-12)

    def test_rho_eta_difference_terms(self):
        # |delta2(k) - delta2(k-1)| = eta(k-1): jumps land at k = 2^(2^l) + 1
        _, t2 = criterion_term_arrays(RhoEta(), 2, 1.0, 5)
        assert t2[3 - 1] == pytest.approx(1.0 * 3)  # eta(2) = 1
        assert t2[5 - 1] == pytest.approx(0.5 * 5)  # eta(4) = 1/2
        assert t2[4 - 1] == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            criterion_term_arrays(HpSpace(2, 2), 1, 1.0, 10)
        with pytest.raises(ValueError):
            decide(HpSpace(2, 2), 2, 0.5)


class TestDecide:
    def test_bergman_m2_straddle(self):
        seq = HpSpace(2, 3)
        assert decide(seq, 2, 2.0, K=10_000).verdict == "diverges"
        assert decide(seq, 2, 2.5, K=10_000).verdict == "converges"

    def test_rho_eta_all_p_diverge(self):
        seq = RhoEta()
        for p in (1, 2, 4, 8):
            v = decide(seq, 2, float(p), K=2_000)
            assert v.verdict == "diverges"
            assert v.analytic

    def test_compact_family_converges_below_cutoff(self):
        # derivation oracle: partial sums stabilize by K = 1e6
        seq = compact_tabulated()
        t1, t2 = schatten.criterion_term_arrays(seq, 2, 1.0, 1_000_000)
        s1, s2 = np.cumsum(t1), np.cumsum(t2)
        assert s1[-1] - s1[len(s1) // 2] < 1e-5 * s1[-1]
        assert s2[-1] - s2[len(s2) // 2] < 1e-5 * s2[-1]
        v = decide(seq, 2, 1.0, K=100_000)
        assert v.verdict == "converges"
        assert v.cutoff_consistent is True  # compact: cut-off does not bind

    def test_p_infinity_routes_to_essential_normality(self):
        assert decide(RhoEta(), 2, math.inf).verdict == "converges"
        assert decide(AlternatingTwelve(), 2, math.inf).verdict == "diverges"

    @pytest.mark.parametrize("seq", [AlternatingTwelve(), AlternatingTwelve().scale(7)],
                             ids=["alt-twelve", "scaled"])
    def test_not_essentially_normal_diverges_at_every_finite_p(self, seq):
        # no family override: not compact, so in no S_p
        for p in (1.0, 2.5, 40.0):
            v = decide(seq, 2, p, K=10_000)
            assert (v.verdict, v.analytic) == ("diverges", True)
            assert v.reason.startswith("not essentially normal, so the cross-commutators "
                                       "are not compact")

    def test_rejects_quasinorm_and_small_K(self):
        with pytest.raises(ValueError):
            decide(HpSpace(2, 2), 2, 0.99)
        with pytest.raises(ValueError):
            decide(HpSpace(2, 2), 2, 1.0, K=100)

    def test_partial_sums_attached_and_monotone(self):
        v = decide(HpSpace(2, 3), 2, 2.0, K=5_000)
        assert v.checkpoints == sorted(v.checkpoints)
        assert all(b >= a for a, b in zip(v.partial_sums_1, v.partial_sums_1[1:]))
        assert all(b >= a for a, b in zip(v.partial_sums_2, v.partial_sums_2[1:]))

    def test_analytic_flag_only_with_declared_asymptotics(self):
        fitted = decide(compact_tabulated(), 2, 2.0, K=50_000)
        assert not fitted.analytic
        declared = decide(HpSpace(2, 3), 2, 2.0, K=50_000)
        assert declared.analytic

    def test_szego_zero_tail_second_series(self):
        v = decide(ConstantDelta(1), 3, 3.5, K=10_000)
        assert v.verdict == "converges"
        assert v.tail_exponents[1] is None  # second series is identically zero

    def test_boundary_exponent_is_honestly_inconclusive(self):
        # undeclared family with first-series terms exactly 1/k: the fitted
        # slope sits inside the indeterminacy band and no verdict is forced
        seq = Tabulated([1], tail=lambda k: Fraction(1))
        v = decide(seq, 2, 2.0, K=50_000)
        assert not v.analytic
        assert v.verdict == "inconclusive"
        assert abs(v.tail_exponents[0] + 1.0) < 0.05


def polyfit_slopes(seq, m, p, K):
    """np.polyfit slopes of the log terms of both series over k in [K // 2, K],
    fitted where the base (delta2, or its difference) is nonzero; None for a
    series with fewer than MIN_FIT_POINTS such terms, or with one of them
    not finite and positive."""
    d2 = seq.delta2_array(K)
    bases = (d2[K // 2 :], np.abs(np.diff(d2[K // 2 - 1 :])))
    logk = np.log(np.arange(K // 2, K + 1, dtype=np.float64))
    slopes = []
    for base, terms in zip(bases, criterion_term_arrays(seq, m, p, K)):
        tail, nonzero = terms[K // 2 - 1 :], base > 0
        with np.errstate(divide="ignore"):
            usable = np.isfinite(np.log(tail[nonzero])).all()
        if np.count_nonzero(nonzero) < schatten.MIN_FIT_POINTS or not usable:
            slopes.append(None)
        else:
            slopes.append(np.polyfit(logk[nonzero], np.log(tail[nonzero]), 1)[0])
    return slopes


def assert_slopes_match_polyfit(got, seq, m, p, K, label) -> int:
    """Check each derived tail slope against its polyfit reference; the
    number of slopes compared."""
    compared = 0
    for g, want in zip(got, polyfit_slopes(seq, m, p, K)):
        if want is not None:
            assert g == pytest.approx(want, rel=1e-10), label
            compared += 1
    return compared


class TestTailFit:
    @pytest.mark.parametrize("m", [2, 3])
    def test_slope_matches_polyfit_on_suite_tails(self, m):
        # the slopes derived from the two log-space fits are the fits of
        # the log terms, wherever those terms are finite and positive
        K = schatten.DEFAULT_K
        compared = 0
        for label, seq in default_suite(m):
            for p in (m - 0.5, m + 0.5, m + 1.5):
                got = schatten._verdict(seq, m, p, K).tail_exponents
                compared += assert_slopes_match_polyfit(got, seq, m, p, K, (label, p))
        assert compared >= 30  # 7 series 1 and 3 series 2 at each of three p, at least

    def test_infinite_tail_term_gives_a_finite_slope_without_warning(self):
        seq = huge_every_997th()
        t1 = criterion_term_arrays(seq, 2, 2.5, 2000)[0]
        assert np.isinf(t1[999:]).any()  # delta2^2.5 = inf at k = 1994
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = schatten._verdict(seq, 2, 2.5, 2000)
        assert math.isfinite(v.tail_exponents[0])


B = _kernels.CHUNK


def whole_array_sums(seq, m, p, K):
    """Checkpoint partial sums from the whole-horizon term arrays, as decide
    formed them before it scanned in blocks."""
    at = np.array(schatten._checkpoint_grid(K)) - 1
    return [np.cumsum(terms)[at].tolist() for terms in criterion_term_arrays(seq, m, p, K)]


def huge_every_997th():
    # delta2 = 1e200 at every 997th k: its p-th power and its differences'
    # are inf, in every block and in every fit window
    return Tabulated([1], tail=lambda k: Fraction(10) ** 200 if k % 997 == 0 else Fraction(1))


class TestBlockedScan:
    @pytest.mark.parametrize("K", [1000, B - 1, B, B + 1, 3 * B + 7])
    def test_sums_and_slopes_are_the_whole_array_ones(self, K):
        cases = [(seq, 3, p) for _, seq in default_suite(3) for p in (2.5, 3.5)]
        cases.append((huge_every_997th(), 2, 2.5))
        for seq, m, p in cases:
            v = decide(seq, m, p, K)
            label = (seq.name, p)
            assert [v.partial_sums_1, v.partial_sums_2] == whole_array_sums(seq, m, p, K), label
            assert_slopes_match_polyfit(v.tail_exponents, seq, m, p, K, label)
        # inf terms reach the partial sums, but not the log-space fits
        assert math.isinf(v.partial_sums_1[-1]) and math.isfinite(v.tail_exponents[0])

    def test_block_terms_are_slices_of_the_whole_horizon(self):
        seq = HpSpace(3, 4)
        whole = criterion_term_arrays(seq, 3, 3.5, B + 9)
        for lo in (1, 2, B, B + 1):
            blocks = criterion_term_arrays(seq, 3, 3.5, B + 9, lo=lo)
            for s in (1, 2):
                assert blocks[s - 1].tobytes() == whole[s - 1][lo - 1 :].tobytes()

    def test_decide_walks_the_horizon_once_for_both_series(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("lo", 1))
            return criterion_term_arrays(*args, **kwargs)

        monkeypatch.setattr(schatten, "criterion_term_arrays", counted)
        v = decide(HpSpace(3, 4), 3, 3.5, 3 * B + 7)
        assert calls == [1, B + 1, 2 * B + 1, 3 * B + 1]  # one call per block
        assert [v.partial_sums_1, v.partial_sums_2] == whole_array_sums(
            HpSpace(3, 4), 3, 3.5, 3 * B + 7)

    def test_decide_allocates_at_most_two_horizon_arrays(self):
        K = 3 * B + 7
        for label, seq in default_suite(3) + [("table", compact_tabulated())]:
            seq.delta2_array(K)  # the shared snapshot is not the scan's to count
            tracemalloc.start()
            try:
                decide(seq, 3, 3.5, K)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 8 * (K + 1), label


class TestRhoEtaWitness:
    def test_partial_sums_grow_with_term_bounds(self):
        seq = RhoEta()
        K = 2 ** 16 + 1
        for p in (1.0, 2.0, 4.0, 8.0):
            v = decide(seq, 2, p, K=K)
            sums = []
            for l in range(1, 5):
                cp = 2 ** (2 ** l) + 1
                assert cp in v.checkpoints
                s = v.partial_sums_2[v.checkpoints.index(cp)]
                assert s >= 2 ** (2 ** l) * 2.0 ** (-l * p)
                sums.append(s)
            assert all(b > a for a, b in zip(sums, sums[1:]))


class TestClosedFormNorm:
    def test_szego_m2_levels01(self):
        s = SphericalShift(2, HpSpace(2, 2))
        # level 0: 1/2; level 1: |2/3 - 1/2| + 1/3
        assert closed_form_norm(s, 1, 1, 1.0, 1) == pytest.approx(1.0, rel=1e-14)

    def test_cross_level0_empty(self, suite_m2):
        for label, seq in suite_m2:
            s = SphericalShift(2, seq)
            assert closed_form_level_sums(s, 1, 2, 2.0, 0)[0] == 0.0, label

    def test_against_enumeration(self, suite_m2):
        for label, seq in suite_m2:
            s = SphericalShift(2, seq)
            for p in (1.0, 2.0):
                levels = closed_form_level_sums(s, 1, 2, p, 50)
                for k in (0, 1, 7, 50):
                    direct = 0.0
                    for n in enumerate_level(2, k):
                        coeff, target = s.cross_comm_coeff(1, 2, n)
                        if target is not None:
                            direct += abs(coeff) ** p
                    assert levels[k] == pytest.approx(direct, rel=1e-11, abs=1e-300), (label, k)

    def test_rejects_m1(self):
        with pytest.raises(ValueError):
            closed_form_norm(SphericalShift(1, HpSpace(1, 1)), 1, 1, 1.0, 5)

    @pytest.mark.parametrize("j,l", [(1, 1), (1, 2)])
    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_exponent(self, j, l, p):
        # NaN gave NaN levels; the block rule of (1,1) needs a finite p
        s = SphericalShift(2, HpSpace(2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                closed_form_level_sums(s, j, l, p, 10)

    @pytest.mark.parametrize("j,l", [(1, 1), (1, 2)])
    def test_rejects_a_negative_horizon(self, j, l):
        # kmax = -1 leaked numpy's IndexError for (1,1) and "negative
        # dimensions are not allowed" for (1,2)
        s = SphericalShift(2, HpSpace(2, 3))
        with pytest.raises(ValueError, match="kmax"):
            closed_form_level_sums(s, j, l, 2.0, -1)


# the CLI's default exponent grid at m = 3
CLI_GRID_M3 = [1.0, 2.0, 2.5, 3.0, 3.25, 4.0]


class TestCutoff:
    def test_hp_m2_grid(self):
        rep = cutoff_check(HpSpace(2, 4), 2, [1, 1.5, 2, 2.25, 3], K=50_000)
        assert rep["verdicts"] == {
            "1.0": "diverges",
            "1.5": "diverges",
            "2.0": "diverges",
            "2.25": "converges",
            "3.0": "converges",
        }
        assert rep["transition"] == 2.25
        assert rep["violations"] == []

    def test_repeated_exponents_decided_once(self, monkeypatch):
        fits, verdicts = [], []
        real_slopes, real_verdict = schatten._tail_slopes, schatten._verdict

        def counting_slopes(seq, K):
            fits.append(K)
            return real_slopes(seq, K)

        def counting_verdict(seq, m, p, K, slopes=None):
            verdicts.append(p)
            return real_verdict(seq, m, p, K, slopes)

        monkeypatch.setattr(schatten, "_tail_slopes", counting_slopes)
        monkeypatch.setattr(schatten, "_verdict", counting_verdict)
        rep = cutoff_check(HpSpace(2, 4), 2, [3, 1.5, 1.5, 1, 3.0], K=10_000)
        assert rep["grid"] == [1.0, 1.5, 3.0]
        assert fits == [10_000]  # one pair of fits for the whole grid
        assert sorted(verdicts) == [1.0, 1.5, 3.0]
        assert list(rep["verdicts"]) == ["1.0", "1.5", "3.0"]

    def test_compactness_decided_once(self, monkeypatch):
        calls = []
        real_is_compact = schatten.is_compact

        def counting_is_compact(seq, K):
            calls.append(K)
            return real_is_compact(seq, K)

        monkeypatch.setattr(schatten, "is_compact", counting_is_compact)
        cutoff_check(HpSpace(2, 4), 2, [1, 1.5, 2, 3], K=10_000)
        assert calls == [10_000]  # one compactness verdict for the whole grid

    def test_forms_no_terms_and_no_partial_sums(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cutoff_check formed terms or partial sums")

        for name in ("decide", "criterion_term_arrays"):
            monkeypatch.setattr(schatten, name, refuse)
        monkeypatch.setattr(_kernels, "kahan_cumsum", refuse)
        kernel_scale = ["diverges"] * 4 + ["converges"] * 2
        pinned = {label: kernel_scale for label in
                  ("szego", "bergman", "drury-arveson", "constant-half", "poly-gamma-sq")}
        pinned.update({"rho-eta": ["diverges"] * 6, "alt-twelve": ["diverges"] * 6})
        for label, seq in default_suite(3):
            rep = cutoff_check(seq, 3, CLI_GRID_M3, K=10_000)
            assert list(rep["verdicts"].values()) == pinned[label], label

    def test_allocates_at_most_one_and_a_half_horizon_arrays(self):
        K = 3 * B + 7
        for label, seq in default_suite(3):
            seq.delta2_array(K)  # the shared snapshot is not the fits' to count
            tracemalloc.start()
            try:
                cutoff_check(seq, 3, CLI_GRID_M3, K)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * 8 * (K + 1), label

    def test_hardy_m3_grid(self):
        rep = cutoff_check(HpSpace(3, 3), 3, [2, 3, 3.5], K=50_000)
        assert list(rep["verdicts"].values()) == ["diverges", "diverges", "converges"]

    def test_compact_skipped(self):
        rep = cutoff_check(compact_tabulated(), 2, [1, 2], K=10_000)
        assert rep["skipped"] and rep["reason"] == "compact"

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            cutoff_check(HpSpace(2, 2), 2, [], K=10_000)


class TestAsymptoticLemmas:
    def test_windows_tight(self):
        for m in (2, 3):
            for p in (1.0, 2.0):
                rep = asymptotic_lemma_check(m, p, (100, 10_000))
                assert rep["pass"], (m, p, rep)
                assert rep["pair_sum"]["spread"] <= 1.2

    def test_zero_s_limit_matches_combinatorics(self):
        # sum over the level of 1 is C(k+m-1, m-1) ~ k^(m-1)/(m-1)!
        rep = asymptotic_lemma_check(3, 1.0, (1000, 10_000))
        assert rep["abs_sum"]["zero"]["ratios"][-1] == pytest.approx(0.5, rel=1e-2)

    def test_s_one_m2_p1_exact_small_k(self):
        # closed form for sum |n_1 - 1| over n_1 + n_2 = k, checked by hand:
        # 1 (n_1 = 0) + 0 (n_1 = 1) + sum_{t=2}^{k} (t-1) = 1 + (k-1)k/2 - ...
        from sphshift._kernels import abs_sum
        for k in (2, 10, 100, 200):
            direct = sum(abs(n[0] - 1) for n in enumerate_level(2, k))
            assert abs_sum(k, 2, 1.0, 1.0) == pytest.approx(direct, rel=1e-13)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            asymptotic_lemma_check(2, 1.0, (100, 100))

    def test_exponent_beyond_the_float_range_is_refused(self):
        # k^(p+m-1) at k = 10^4 is a float up to p = ln(DBL_MAX)/ln(10^4) - m + 1
        assert asymptotic_lemma_check(2, 76.0, (100, 10_000), points=4)["m"] == 2
        with pytest.raises(ValueError, match=r"allows p <= 76\.06 at m = 2"):
            asymptotic_lemma_check(2, 77.0, (100, 10_000))
        with pytest.raises(ValueError, match=r"allows p <= 75\.06 at m = 3"):
            asymptotic_lemma_check(3, 76.0, (100, 10_000))


class TestConcaveGammaDifferenceDecay:
    def test_concave_gamma_yields_1_over_k_decay(self):
        # gamma(k) = 1 + k/2 is concave with delta not tending to 0, so the
        # delta2 differences must decay like C/k and the transition sits at m
        seq = PolynomialGamma([1, Fraction(1, 2)])
        assert all(nabla_gamma(seq, k, 2) == 0 for k in range(50))
        d2 = seq.delta2_array(10_000)
        k = np.arange(1, 10_000)
        scaled = k * np.abs(np.diff(d2))[1:]
        assert float(np.max(scaled)) < 1.0
        rep = cutoff_check(seq, 2, [1, 2, 2.25, 3], K=50_000)
        assert rep["verdicts"]["2.0"] == "diverges"
        assert rep["verdicts"]["2.25"] == "converges"
