"""Acceptance suite: one test per release criterion, stated tolerances only.

Each test prints a single PASS line (visible with -s or on failure); the
tolerances and runtime ceilings are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sphshift.multiindex import enumerate_level
from sphshift.scalarseq import (
    AlternatingTwelve,
    ConstantDelta,
    HpSpace,
    RhoEta,
    default_suite,
)
from sphshift.shift import SphericalShift
from sphshift.truncation import (
    build_basis,
    build_tuple_matrices,
    commutator,
    oracle_suite,
    q_powers,
    schatten_power_sum,
)
from sphshift.schatten import (
    asymptotic_lemma_check,
    closed_form_level_sums,
    decide,
)
from sphshift.spectra import (
    NotEssentiallyNormalError,
    convergence_radius,
    essential_shell,
    inner_radius,
    outer_radius,
)
from sphshift.classify import (
    is_compact,
    is_essentially_normal,
    is_hyponormal,
    is_q_expansion,
    q_isometry_order,
    subnormal_consistency,
)


def _done(n, detail):
    print(f"ACCEPTANCE {n}: PASS - {detail}")


def test_criterion_01_closed_form_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (2, 3):
        for label, seq in default_suite(m):
            rows = oracle_suite(SphericalShift(m, seq), N=10, tol=1e-10)
            for row in rows:
                worst = max(worst, row["max_deviation"])
                assert row["pass"], (m, label, row)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 10s"
    _done(1, f"matrix oracle matches closed forms, worst deviation {worst:.2e}, "
             f"{elapsed:.1f}s")


def test_criterion_02_schatten_norm_oracle():
    t0 = time.perf_counter()
    N = 10
    for m in (2, 3):
        basis = build_basis(m, N)
        for label, seq in default_suite(m):
            s = SphericalShift(m, seq)
            ts = build_tuple_matrices(s, basis)
            pairs = [(1, 1, commutator(ts[0].adjoint(), ts[0])),
                     (1, 2, commutator(ts[0].adjoint(), ts[1]))]
            for j, l, c in pairs:
                for p in (1.0, 2.0, 4.0):
                    closed = float(
                        math.fsum(closed_form_level_sums(s, j, l, p, N - 1).tolist())
                    )
                    oracle = schatten_power_sum(c, p, kmax=N - 1)
                    assert closed == pytest.approx(oracle, rel=1e-8), (m, label, j, l, p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 2 runtime {elapsed:.1f}s exceeds 10s"
    _done(2, f"closed-form Schatten sums match gram-diagonal oracle, {elapsed:.1f}s")


def test_criterion_03_cutoff_reproduction():
    t0 = time.perf_counter()
    K = 100_000
    for m in (2, 3):
        grid_low = [1.0, m - 0.5, float(m)]
        grid_high = [m + 0.25, m + 1.0]
        for p_space in (m, m + 1, m + 2):
            seq = HpSpace(m, p_space)
            for p in grid_low:
                if p < 1:
                    continue
                assert decide(seq, m, p, K).verdict == "diverges", (m, p_space, p)
            for p in grid_high:
                assert decide(seq, m, p, K).verdict == "converges", (m, p_space, p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 3 runtime {elapsed:.1f}s exceeds 30s"
    _done(3, f"membership flips exactly past p = m for all six kernel-scale "
             f"families, {elapsed:.1f}s")


def test_criterion_04_classification_table_exact():
    for m in (2, 3):
        grid = [Fraction(m) - Fraction(3, 2), Fraction(m) - 1, Fraction(m) - Fraction(1, 2)]
        grid += [Fraction(i) for i in range(1, m + 1)]
        grid += [Fraction(m) + Fraction(1, 2), Fraction(m) + 1]
        for p in sorted(set(q for q in grid if q > 0)):
            seq = HpSpace(m, p)
            assert is_hyponormal(seq, 200).value == (p >= m), (m, p)
            assert is_q_expansion(seq, 2, 200).value == (m - 1 <= p <= m), (m, p)
            order, mode = q_isometry_order(seq, m + 2, 200)
            integer_p = p.denominator == 1 and p <= m
            assert mode == "exact"
            assert order == ((m - int(p) + 1) if integer_p else None), (m, p)
    _done(4, "hyponormality, 2-expansion and isometry-order table reproduced "
             "with rational arithmetic, zero tolerance")


def test_criterion_05_rho_eta_counterexample():
    t0 = time.perf_counter()
    seq = RhoEta()
    assert is_hyponormal(seq).value is True
    assert is_essentially_normal(seq).value is True
    assert is_compact(seq).value is False
    K = 2 ** 16 + 1
    for p in (1.0, 2.0, 4.0, 8.0):
        v = decide(seq, 2, p, K=K)
        assert v.verdict == "diverges"
        sums = []
        for l in range(1, 5):
            cp = 2 ** (2 ** l) + 1
            s = v.partial_sums_2[v.checkpoints.index(cp)]
            assert s >= 2 ** (2 ** l) / 2 ** (l * p), (p, l)
            sums.append(s)
        assert all(b > a for a, b in zip(sums, sums[1:])), p
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 5 runtime {elapsed:.1f}s exceeds 60s"
    _done(5, f"sparse-jump family: hyponormal, essentially normal, non-compact, "
             f"out of every Schatten class with growing witnesses, {elapsed:.1f}s")


def test_criterion_06_alternating_twelve_counterexample():
    seq = AlternatingTwelve()
    assert is_essentially_normal(seq).value is False
    for k in range(500):
        diff = abs(seq.delta2_exact(k + 1) - seq.delta2_exact(k))
        assert diff == Fraction(1, 12), k
    _done(6, "alternating family: not essentially normal, |delta2 difference| "
             "= 1/12 at every k, exact")


def test_criterion_07_spectral_radii():
    K, J = 100_000, 60
    reports = []
    for m in (2, 3):
        for p_space in (1, m, m + 1):
            seq = HpSpace(m, p_space)
            i = inner_radius(seq, J, K)
            r = convergence_radius(seq, K)
            R = outer_radius(seq, J, K)
            for est in (i, r, R):
                assert abs(est.value - 1.0) < 1e-3, (m, p_space)
            reports.append((f"hp(m={m},p={p_space})", i, r, R))
    for c in (Fraction(1, 2), Fraction(2)):
        seq = ConstantDelta(c)
        i = inner_radius(seq, J, 20_000)
        r = convergence_radius(seq, 20_000)
        R = outer_radius(seq, J, 20_000)
        assert i.value == r.value == R.value == float(c)
        reports.append((f"constant({c})", i, r, R))
    for label, seq in default_suite(2):
        i = inner_radius(seq, J, 50_000)
        r = convergence_radius(seq, 50_000)
        R = outer_radius(seq, J, 50_000)
        reports.append((label, i, r, R))
    for label, i, r, R in reports:
        assert i.value <= r.value + 1e-9 <= R.value + 2e-9, label
    # the per-lag scans against the matrix oracle: on level k the diagonal
    # of Q^s(I) is delta2(k)...delta2(k+s-1) = (bbeta_{k+s}/bbeta_k)^2,
    # known on k <= N - s, so its min and max to the power 1/(2s) are the
    # lag-s infimum and supremum over k <= N - s
    lags = 0
    for m, N in ((2, 14), (3, 7), (4, 5)):
        basis = build_basis(m, N)
        for label, seq in default_suite(m):
            i, R = inner_radius(seq, J, N), outer_radius(seq, J, N)
            assert len(i.sequence) == len(R.sequence) == N - 1, (label, m)
            powers = q_powers(build_tuple_matrices(SphericalShift(m, seq), basis), N - 1)
            for s in range(1, N):
                cols = np.arange(basis.bounds[powers[s].known])
                assert np.array_equal(powers[s].rows[cols], cols), (label, m, s)
                diag = powers[s].vals[cols]
                lo, hi = diag.min() ** (1 / (2 * s)), diag.max() ** (1 / (2 * s))
                assert i.sequence[s - 1] == pytest.approx(lo, rel=1e-9), (label, m, s)
                assert R.sequence[s - 1] == pytest.approx(hi, rel=1e-9), (label, m, s)
                lags += 1
    _done(7, f"radii ordered and unit for all kernel-scale families; "
             f"the lag scans of i and R agree with the Q^s(I) diagonals of the "
             f"matrix oracle ({len(reports)} reports, {lags} lags)")


def test_criterion_08_essential_shell_gate():
    lo, hi = essential_shell(HpSpace(2, 3), K=100_000)
    assert abs(lo - 1.0) < 1e-3 and abs(hi - 1.0) < 1e-3
    with pytest.raises(NotEssentiallyNormalError):
        essential_shell(AlternatingTwelve(), K=100_000)
    _done(8, "essential shell collapses to the unit sphere for the p = m+1 "
             "family; the alternating family is refused by the gate")


def test_criterion_09_asymptotic_lemma_windows():
    t0 = time.perf_counter()
    for m in (2, 3):
        for p in (1.0, 2.0):
            rep = asymptotic_lemma_check(m, p, (100, 10_000), window_bound=5.0)
            assert rep["pair_sum"]["pass"], (m, p, rep["pair_sum"])
            for mode, sub in rep["abs_sum"].items():
                assert sub["pass"], (m, p, mode, sub)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 9 runtime {elapsed:.1f}s exceeds 30s"
    _done(9, f"per-level growth ratios stay within a 5x window over "
             f"k in [1e2, 1e4], {elapsed:.1f}s")


def test_criterion_10_subnormal_consistency():
    for m in (2, 3):
        assert subnormal_consistency(HpSpace(m, m + 1), 8, 200)["pass"], f"bergman m={m}"
        assert subnormal_consistency(HpSpace(m, m), 8, 200)["pass"], f"hardy m={m}"
    rep = subnormal_consistency(HpSpace(2, 1), 8, 200)
    assert not rep["pass"]
    assert rep["witness"] is not None
    p, k = rep["witness"]
    assert Fraction(rep["witness_value"]) < 0
    _done(10, f"moment-type inequalities pass to order 8 for the subnormal "
              f"families; the p = 1 family fails with witness (p={p}, k={k})")
