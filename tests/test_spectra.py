import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import ZERO_SHARES, zero_step_table
from exact_reference import fit_slope_whole
from sphshift.scalarseq import (
    AlternatingTwelve,
    ConstantDelta,
    HpSpace,
    PolynomialGamma,
    RhoEta,
    Tabulated,
    default_suite,
)
from sphshift import spectra
from sphshift.spectra import (
    NotEssentiallyNormalError,
    convergence_radius,
    essential_shell,
    inner_radius,
    outer_radius,
    point_spectrum_boundary,
    spectral_report,
)

K = 20_000
J = 40


def loop_lag_sequence(logbb, J, reduce):
    """The per-lag loop that the chunked scan replaced: one full window per lag."""
    js, vals = [], []
    K = len(logbb) - 1
    for j in range(1, J + 1):
        if j >= K:
            break
        window = (logbb[j:] - logbb[: K + 1 - j]) / j
        js.append(j)
        vals.append(float(reduce(window)))
    return js, vals


def chunked_lag_sequence(cum, J, reduce):
    ext = spectra._lag_extremes(cum, J, reduce)
    js = list(range(1, len(ext) + 1))
    return js, (ext / js).tolist()


def old_point_spectrum_boundary(seq, m, K, r):
    """The lgamma and np.polyfit fit that point_spectrum_boundary replaced."""
    logbb = seq.log_bbeta_array(K)
    ks = np.arange(K // 2, K + 1)
    lgamma = np.vectorize(math.lgamma)
    logterms = (
        lgamma(m + ks)
        - math.lgamma(m)
        - lgamma(ks + 1.0)
        + 2.0 * ks * math.log(r)
        - 2.0 * logbb[ks]
    )
    return float(np.polyfit(np.log(ks), logterms, 1)[0])


class TestRadii:
    def test_constant_exact(self):
        seq = ConstantDelta(Fraction(1, 2))
        assert outer_radius(seq, J, K).value == 0.5
        assert convergence_radius(seq, K).value == 0.5
        assert inner_radius(seq, J, K).value == 0.5

    def test_bergman_unit(self):
        seq = HpSpace(2, 3)
        est = outer_radius(seq, J, K)
        assert est.value == 1.0
        assert est.mode == "analytic"

    def test_rho_eta_sqrt3(self):
        assert outer_radius(RhoEta(), J, K).value == pytest.approx(math.sqrt(3), rel=1e-12)

    def test_drury_arveson_inner_unit(self):
        assert inner_radius(HpSpace(2, 1), J, K).value == 1.0

    def test_alt_twelve_sampled(self):
        # no declared limit: the sampled path must find 12^(-1/4) on its own
        seq = AlternatingTwelve()
        r = convergence_radius(seq, 100_000)
        assert r.value == pytest.approx(12 ** -0.25, abs=1e-4)
        est_i = inner_radius(seq, 60, 100_000)
        est_r = outer_radius(seq, 60, 100_000)
        assert est_i.value == pytest.approx(12 ** -0.25, abs=1e-4)
        assert est_r.value == pytest.approx(12 ** -0.25, abs=1e-3)
        assert est_i.mode.startswith("sampled")

    def test_ordering_all_suite(self, suite_m2):
        for label, seq in suite_m2:
            i = inner_radius(seq, J, K).value
            r = convergence_radius(seq, K).value
            R = outer_radius(seq, J, K).value
            assert i <= r + 1e-9 and r <= R + 1e-9, (label, i, r, R)

    def test_scaling_covariance(self):
        for base in (HpSpace(2, 3), AlternatingTwelve()):
            c = 2.5
            scaled = base.scale(c)
            for fn in (
                lambda s: outer_radius(s, J, K).value,
                lambda s: convergence_radius(s, K).value,
                lambda s: inner_radius(s, J, K).value,
            ):
                assert fn(scaled) == pytest.approx(c * fn(base), rel=1e-9)

    def test_tabulated_alternating_with_flat_tail(self):
        seq = Tabulated([1, 4] * 10 + [1], tail="hold")
        est = inner_radius(seq, J, K)
        assert est.value == pytest.approx(1.0, rel=1e-12)
        assert len(est.sequence) == len(est.j_grid)
        r = convergence_radius(seq, K).value
        R = outer_radius(seq, J, K).value
        assert est.value <= r + 1e-9 <= R + 2e-9

    def test_unbounded_suspicion(self):
        seq = Tabulated([1], tail=lambda k: Fraction(k + 1))
        est = outer_radius(seq, J, 2000)
        assert est.value == math.inf
        assert est.mode == "unbounded-suspected"

    def test_richardson_attached(self):
        est = outer_radius(AlternatingTwelve(), 60, 50_000)
        assert est.richardson is not None
        assert est.richardson == pytest.approx(12 ** -0.25, abs=1e-2)

    def test_rejects_bad_horizons(self):
        with pytest.raises(ValueError):
            outer_radius(HpSpace(2, 2), 0, K)
        with pytest.raises(ValueError):
            convergence_radius(HpSpace(2, 2), 1)


class TestChunkedLagScan:
    CHUNK = spectra.CHUNK

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    def test_bit_identical_to_loop_across_chunk_edges(self, n, rng):
        cum = np.cumsum(rng.normal(size=n + 1))
        for numpy_reduce, ufunc in ((np.max, np.maximum), (np.min, np.minimum)):
            assert chunked_lag_sequence(cum, 60, ufunc) == loop_lag_sequence(cum, 60, numpy_reduce)

    @pytest.mark.parametrize("chunk", [1, 3, 7, CHUNK])
    def test_bit_identical_when_lags_reach_the_horizon(self, chunk, rng, monkeypatch):
        monkeypatch.setattr(spectra, "CHUNK", chunk)
        for n in (2, 3, 5, 8, 20):
            cum = np.cumsum(rng.normal(size=n + 1))
            for lags in (n - 1, n, n + 5):
                for numpy_reduce, ufunc in ((np.max, np.maximum), (np.min, np.minimum)):
                    assert chunked_lag_sequence(cum, lags, ufunc) == loop_lag_sequence(
                        cum, lags, numpy_reduce)

    @pytest.mark.parametrize("chunk", [4, CHUNK])
    def test_infinities_and_nan_match_loop(self, chunk, rng, monkeypatch):
        monkeypatch.setattr(spectra, "CHUNK", chunk)
        cum = np.cumsum(rng.normal(size=41))
        cum[[5, 30]] = np.inf
        cum[17] = -np.inf
        with_nan = cum.copy()
        with_nan[23] = np.nan
        with np.errstate(invalid="ignore"):
            for data in (cum, with_nan):
                for numpy_reduce, ufunc in ((np.max, np.maximum), (np.min, np.minimum)):
                    got = chunked_lag_sequence(data, 12, ufunc)
                    want = loop_lag_sequence(data, 12, numpy_reduce)
                    assert np.array_equal(got[1], want[1], equal_nan=True)
                    assert got[0] == want[0]
        assert any(math.isnan(v) for v in chunked_lag_sequence(with_nan, 12, np.maximum)[1])

    def test_report_peak_memory_is_the_snapshots_and_a_few_blocks(self):
        # the two snapshots, built here, and the streamed fit's three
        # blocks of scratch; one more array of the horizon is 15 blocks
        n = 1_000_000
        seq = HpSpace(2, 3)
        tracemalloc.start()
        try:
            seq.log_bbeta_array(n)
            seq.delta2_array(n)
            spectral_report(seq, 2, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * (n + 1) + 4 * 8 * spectra.CHUNK


def whole_array_radius_and_boundary(seq, m, K):
    """convergence_radius's value and tail end, and point_spectrum_boundary's
    slope, from whole-window arrays, as both formed them before they
    worked in blocks."""
    logbb = seq.log_bbeta_array(K)
    tail = logbb[K // 2 :] / np.arange(K // 2, K + 1)
    low, last = math.exp(float(np.min(tail))), math.exp(float(tail[-1]))
    r = math.sqrt(seq.delta2_limit) if seq.delta2_limit is not None else low
    ks = np.arange(K // 2, K + 1, dtype=np.float64)
    logterms = 2.0 * math.log(r) * ks - 2.0 * logbb[K // 2 :]
    for i in range(1, m):
        logterms += np.log((ks + i) / i)
    return low, last, fit_slope_whole(np.log(ks), logterms)


class TestBlockedWindows:
    B = spectra.CHUNK

    @pytest.mark.parametrize("K", [1000, B - 1, B, B + 1, 3 * B + 7])
    def test_radius_and_boundary_are_the_whole_array_ones(self, K):
        for label, seq in default_suite(3):
            rep = spectral_report(seq, 3, K=K, J=8)
            low, last, slope = whole_array_radius_and_boundary(seq, 3, K)
            assert rep.convergence_radius.sequence == [low, last], label
            assert repr(rep.point_spectrum_exponent) == repr(slope), label

    @pytest.mark.parametrize("K", [3 * B + 7, 1_000_000])
    def test_report_allocates_a_few_blocks(self, K):
        for label, seq in default_suite(3):
            seq.log_bbeta_array(K)
            seq.delta2_array(K)  # the shared snapshots are not the report's to count
            tracemalloc.start()
            try:
                spectral_report(seq, 3, K)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 8 * self.B, label

    @pytest.mark.parametrize("K", [1000, 2 * B + 5, 300_001])
    @pytest.mark.parametrize("zero_share", ZERO_SHARES)
    def test_boundary_of_tables_is_the_whole_array_one(self, K, zero_share):
        seq = zero_step_table(K, zero_share)
        _, _, slope = whole_array_radius_and_boundary(seq, 2, K)
        assert repr(point_spectrum_boundary(seq, 2, K)[1]) == repr(slope)


class TestEssentialShell:
    def test_bergman_unit_sphere(self):
        assert essential_shell(HpSpace(2, 3), K) == (1.0, 1.0)

    def test_rho_eta(self):
        lo, hi = essential_shell(RhoEta(), K)
        assert lo == hi == pytest.approx(math.sqrt(3), rel=1e-12)

    def test_alt_twelve_refused(self):
        with pytest.raises(NotEssentiallyNormalError):
            essential_shell(AlternatingTwelve(), K)

    def test_sampled_gate_passes_for_decaying_differences(self):
        seq = Tabulated([1], tail=lambda k: Fraction(1, (k + 1) ** 2))
        lo, hi = essential_shell(seq, K)
        assert hi < 1e-3  # compact: shell collapses toward the origin

    def test_sampled_gate_refuses(self):
        seq = Tabulated([1, 4] * 1000, tail="hold")
        with pytest.raises(NotEssentiallyNormalError):
            essential_shell(seq, 1500, window=400)


class TestPointSpectrum:
    def test_open_ball_cases(self):
        verdict, slope = point_spectrum_boundary(HpSpace(2, 2), 2, K)
        assert verdict == "open-ball" and slope > 0.9
        verdict, _ = point_spectrum_boundary(ConstantDelta(Fraction(1, 2)), 3, K)
        assert verdict == "open-ball"

    def test_closed_ball_case(self):
        # gamma(k) = (k+1)^4 makes the boundary series terms ~ k^-3
        seq = PolynomialGamma([1, 4, 6, 4, 1])
        verdict, slope = point_spectrum_boundary(seq, 2, K)
        assert verdict == "closed-ball" and slope == pytest.approx(-3, abs=0.05)

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_lgamma_polyfit_fit(self, m):
        for label, seq in default_suite(m):
            r = convergence_radius(seq, K).value
            verdict, slope = point_spectrum_boundary(seq, m, K, r=r)
            want = old_point_spectrum_boundary(seq, m, K, r)
            assert slope == pytest.approx(want, rel=1e-10, abs=1e-10), label


class TestCombinatorialCorrectionFactor:
    def test_window_and_limit(self):
        # rho(k, j) = [(k+2)...(k+m)] / [(k+j+2)...(k+j+m)] increases in k,
        # and its (2j)-th root at k = 0 already tends to 1
        for m in (1, 2, 3, 4):
            for j in (1, 5, 50, 200):
                def root(k):
                    num = math.fsum(math.log(k + i) for i in range(2, m + 1))
                    den = math.fsum(math.log(k + j + i) for i in range(2, m + 1))
                    return math.exp((num - den) / (2 * j))

                vals = [root(k) for k in (0, 1, 2, 10, 100, 1000)]
                assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
                assert all(vals[0] - 1e-15 <= v <= 1.0 + 1e-15 for v in vals)
            assert abs(root(0) - 1.0) < 0.05  # j = 200 root at k = 0

    def test_inner_outer_unchanged_by_factor(self):
        # the two displayed limits coincide: radii computed with the factor
        # (here via its bounds) agree with the plain formulas at large j
        seq = HpSpace(2, 3)
        est = outer_radius(seq, 60, K)
        assert est.sequence[-1] == pytest.approx(est.value, abs=2e-2)


class TestFullReport:
    def test_report_fields(self):
        rep = spectral_report(HpSpace(2, 3), 2, K=K, J=J)
        assert rep.outer_radius.value == 1.0
        assert rep.essential_inner == 1.0
        assert rep.essential_refusal is None
        assert rep.point_spectrum_boundary in ("open-ball", "closed-ball", "inconclusive")
        assert rep.essentially_normal["value"] is True

    def test_report_refusal_branch(self):
        rep = spectral_report(AlternatingTwelve(), 2, K=K, J=J)
        assert rep.essential_inner is None
        assert rep.essential_refusal is not None
        assert rep.essentially_normal["value"] is False
