import ast
import inspect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exact_reference import (FACTS, declared_facts, delta2_float, derived_facts, eta,
                             gamma_exact, nabla_gamma)
from sphshift.classify import classification
from sphshift.scalarseq import (
    FAMILIES,
    AlternatingTwelve,
    ConstantDelta,
    HpSpace,
    PolynomialGamma,
    RhoEta,
    ScalarSequence,
    Tabulated,
    TableRangeError,
    UnknownFamilyError,
    descartes_sign,
    make_family,
    default_suite,
)
from sphshift.schatten import cutoff_check, decide
from sphshift.spectra import spectral_report


class TestHpSpace:
    def test_szego_delta2_is_one(self):
        seq = HpSpace(2, 2)
        assert all(seq.delta2_exact(k) == 1 for k in range(100))

    def test_drury_arveson_delta2_zero(self):
        assert HpSpace(2, 1).delta2_exact(0) == 2

    def test_formula(self):
        seq = HpSpace(3, Fraction(5, 2))
        for k in (0, 1, 7, 40):
            assert seq.delta2_exact(k) == Fraction(k + 3) / (k + Fraction(5, 2))

    def test_gamma_drury_arveson_linear(self):
        seq = HpSpace(2, 1)
        # telescoping product of (k+2)/(k+1)
        assert all(gamma_exact(seq, k) == k + 1 for k in range(60))

    def test_gamma_bergman_m2(self):
        seq = HpSpace(2, 3)
        assert all(gamma_exact(seq, k) == Fraction(2, k + 2) for k in range(60))

    def test_declared_sup(self):
        assert HpSpace(2, 1).is_bounded().sup_delta2 == 2.0
        assert HpSpace(2, 1).is_bounded().verdict == "family-declared"
        assert HpSpace(2, 5).is_bounded().sup_delta2 == 1.0
        assert HpSpace(2, 1).sup_delta2() == 2
        assert isinstance(HpSpace(2, 1).sup_delta2(), Fraction)
        assert HpSpace(2, 0.5).sup_delta2() == 4.0
        assert isinstance(HpSpace(2, 0.5).sup_delta2(), float)

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            HpSpace(2, 0)


class TestRhoEta:
    def test_recursion_unroll(self):
        # eta jumps: eta_2 = 1, eta_4 = 1/2, eta_16 = 1/4, ...
        seq = RhoEta()
        expect = [1, 1, 1, 2, 2, Fraction(5, 2)]
        assert [seq.delta2_exact(k) for k in range(6)] == expect

    def test_eta_support(self):
        assert eta(2) == 1
        assert eta(4) == Fraction(1, 2)
        assert eta(16) == Fraction(1, 4)
        assert eta(256) == Fraction(1, 8)
        for k in (0, 1, 3, 5, 8, 32, 64, 100, 255):
            assert eta(k) == 0

    def test_closed_form_is_the_recursion(self):
        seq, rho = RhoEta(), Fraction(1)
        exact = seq.delta2_exact_array(70_000)
        for k in range(70_001):
            assert exact[k] == rho, k
            rho += eta(k)

    def test_declared_limit_three(self):
        seq = RhoEta()
        assert seq.delta2_limit == 3.0
        # increments sum to 2, so rho climbs from 1 towards 3
        assert float(seq.delta2_exact(70000)) > 2.9

    def test_array_matches_exact(self):
        seq = RhoEta()
        arr = seq.delta2_array(300)
        assert all(arr[k] == float(seq.delta2_exact(k)) for k in range(301))


class TestAlternatingTwelve:
    def test_delta2_alternates(self):
        seq = AlternatingTwelve()
        assert seq.delta2_exact(0) == Fraction(1, 3)
        assert seq.delta2_exact(1) == Fraction(1, 4)
        assert seq.delta2_exact(144) == Fraction(1, 3)

    def test_gamma_values(self):
        seq = AlternatingTwelve()
        for k in range(8):
            expect = Fraction(1, 12 ** k)
            assert gamma_exact(seq, 2 * k) == expect
            assert gamma_exact(seq, 2 * k + 1) == expect / 3

    def test_nabla_gamma_first(self):
        assert nabla_gamma(AlternatingTwelve(), 0, 1) == Fraction(1, 3) - 1

    def test_third_differences_negative(self):
        # the concavity-type sign that makes this example bite
        seq = AlternatingTwelve()
        for k in range(0, 12, 2):
            assert nabla_gamma(seq, k, 3) == Fraction(-2, 9) * Fraction(1, 12) ** (k // 2)
            assert nabla_gamma(seq, k + 1, 3) == Fraction(-23, 144) * Fraction(1, 12) ** (k // 2)


class TestPolynomialGamma:
    def test_difference_annihilation(self):
        # gamma(k) = (k+1)^2: third differences vanish identically, second do not
        seq = PolynomialGamma([1, 2, 1])
        assert seq.degree == 2
        assert all(nabla_gamma(seq, k, 3) == 0 for k in range(100))
        assert any(nabla_gamma(seq, k, 2) != 0 for k in range(100))

    def test_gamma_normalized_at_zero(self):
        seq = PolynomialGamma([2, 0, 2])  # S(k) = 2 + 2k^2, gamma(0) = 1
        assert gamma_exact(seq, 0) == 1
        assert gamma_exact(seq, 3) == Fraction(2 + 18, 2)

    def test_positivity_rejected(self):
        with pytest.raises(ValueError):
            PolynomialGamma([2, -3, 1])  # roots at k = 1, 2
        with pytest.raises(ValueError):
            PolynomialGamma([1, -1])  # negative leading after trim? no: S = 1 - k
        with pytest.raises(ValueError):
            PolynomialGamma([0])


class TestTabulated:
    def test_error_tail_is_default(self):
        seq = Tabulated([1, Fraction(1, 2)])
        assert seq.delta2_array(1)[1] == 0.5
        with pytest.raises(TableRangeError):
            seq.delta2_array(2)
        with pytest.raises(TableRangeError):
            seq.delta2_exact(2)

    def test_error_tail_in_range_log_path(self):
        # cache growth must not overshoot a finite table for in-range queries
        seq = Tabulated([1, Fraction(1, 2), Fraction(1, 3)])
        assert seq.log_bbeta_array(2)[2] == pytest.approx(0.5 * math.log(0.5))
        assert math.exp(2.0 * seq.log_bbeta_array(3)[3]) == pytest.approx(1 / 6)
        assert seq.log_bbeta_array(3)[3] == pytest.approx(0.5 * math.log(1 / 6))
        with pytest.raises(TableRangeError):
            seq.log_bbeta_array(4)

    def test_hold_tail(self):
        seq = Tabulated([1, 4], tail="hold")
        assert seq.delta2_array(100)[100] == 4.0
        assert seq.sup_delta2() == 4

    def test_const_tail(self):
        seq = Tabulated([1, 4], tail=("const", Fraction(1, 2)))
        assert seq.delta2_exact(17) == Fraction(1, 2)
        assert seq.is_bounded().verdict == "family-declared"
        assert seq.is_bounded().sup_delta2 == 4.0

    def test_formula_tail(self):
        seq = Tabulated([1], tail=lambda k: Fraction(1, (k + 1) ** 2))
        assert seq.delta2_exact(9) == Fraction(1, 100)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tabulated([1, 0])

    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_nonpositive_const_tail(self, value):
        with pytest.raises(ValueError, match="const tail"):
            Tabulated([1], tail=("const", Fraction(value)))


class TestSnapshot:
    def test_exact_snapshot_grows_by_appending(self, monkeypatch):
        seq = Tabulated([Fraction(1, 2), 0.75, Fraction(4, 5)], tail="hold")
        calls = []
        real = seq.delta2_exact
        monkeypatch.setattr(seq, "delta2_exact", lambda k: calls.append(k) or real(k))
        assert seq.delta2_exact_array(1) == (Fraction(1, 2), None)
        snapshot = seq.delta2_exact_array(4)
        assert snapshot == (Fraction(1, 2), None) + (Fraction(4, 5),) * 3
        assert seq.delta2_exact_array(2) == snapshot[:3]
        assert calls == [0, 1, 2, 3, 4]
        with pytest.raises(TypeError):
            snapshot[0] = Fraction(1)

    @staticmethod
    def assert_windows_are_products(seq, kmax, smax):
        num, den, ok = seq.exact_windows(kmax, smax)
        assert len(num) == len(den) == len(ok) == smax + 1
        for s in range(smax + 1):
            assert len(num[s]) == len(den[s]) == len(ok[s]) == kmax + 1
            for k in range(kmax + 1):
                window = [seq.delta2_exact(i) for i in range(k, k + s)]
                assert ok[s][k] == (None not in window), (seq.name, s, k)
                if ok[s][k]:
                    assert num[s][k] == math.prod(x.numerator for x in window)
                    assert den[s][k] == math.prod(x.denominator for x in window)
                    assert Fraction(num[s][k], den[s][k]) == math.prod(window, start=Fraction(1))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_exact_windows_are_products_of_the_exact_values(self, m):
        for _, seq in default_suite(m):
            self.assert_windows_are_products(seq, 30, 8)

    def test_exact_windows_are_exact_per_window(self):
        # delta2(2) is a float: exactly the windows that read it are not exact
        seq = Tabulated([Fraction(1, 2), Fraction(2, 3), 0.75]
                        + [Fraction(k + 2, k + 5) for k in range(20)], tail="hold")
        self.assert_windows_are_products(seq, 15, 8)
        ok = seq.exact_windows(15, 8)[2]
        assert [k for k in range(16) if not ok[3][k]] == [0, 1, 2]

    def test_exact_windows_read_an_error_tail_table_up_to_its_last_row(self):
        seq = Tabulated([Fraction(k + 1, k + 3) for k in range(23)])
        self.assert_windows_are_products(seq, 15, 8)  # reads rows 0..22
        with pytest.raises(TableRangeError):
            seq.exact_windows(16, 8)

    def test_negative_kmax_gives_empty_snapshots(self):
        seq = HpSpace(2, 3)
        seq.delta2_array(5), seq.delta2_exact_array(5), seq.log_bbeta_array(5)
        for kmax in (-1, -2, -3, -7):
            assert len(seq.delta2_array(kmax)) == 0
            assert seq.delta2_exact_array(kmax) == ()
            assert len(seq.log_bbeta_array(kmax)) == 0

    @pytest.mark.parametrize("make", [
        lambda: Tabulated([1, math.inf], tail="hold"),
        lambda: Tabulated([1], tail=lambda k: math.nan),
        lambda: Tabulated([1], tail=lambda k: Fraction(10) ** 400),
        lambda: HpSpace(2, Fraction(1, 10 ** 400)),
        lambda: PolynomialGamma([1, Fraction(10) ** 400]),
    ], ids=["inf-row", "nan-tail", "huge-tail", "tiny-p", "huge-coefficient"])
    def test_snapshot_rejects_non_finite_values(self, make):
        with pytest.raises(ValueError, match="finite and positive|float range"):
            make().delta2_array(3)

    def test_exact_constant_weight_is_rounded_once(self):
        # float(7/10) ** 2 rounds twice, to 0.48999999999999994
        seq = ConstantDelta(Fraction(7, 10))
        assert seq.sup_delta2() == Fraction(49, 100)
        assert seq.delta2_array(3).tolist() == [float(seq.sup_delta2())] * 4 == [0.49] * 4
        assert seq.delta2_limit == 0.49
        assert seq.scale(Fraction(7, 10)).delta2_array(0)[0] == 0.49 * 0.49

    def test_views_are_read_only(self):
        seq = HpSpace(2, 3)
        for arr in (seq.delta2_array(100), seq.log_bbeta_array(100)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 2.0
            with pytest.raises(ValueError):
                arr.flags.writeable = True

    @pytest.mark.parametrize("make", [
        lambda: HpSpace(2, 3),
        lambda: Tabulated([Fraction(1, k + 1) for k in range(20_000)], tail="hold"),
    ], ids=["hp", "held-table"])
    def test_every_layer_reads_one_snapshot(self, make, monkeypatch):
        seq = make()
        hook = type(seq)._delta2_values
        sizes = []

        def counting(self, kmax):
            sizes.append(kmax + 1)
            return hook(self, kmax)

        monkeypatch.setattr(type(seq), "_delta2_values", counting)
        K = 10_000
        spectral_report(seq, 2, K=K, J=20)
        cutoff_check(seq, 2, [1.0, 3.0], K=K)
        classification(seq, P=2, Q=2, K=20, horizon=K)
        assert sizes == [K + 1]

    def test_blocked_scan_grows_the_snapshot_once(self, monkeypatch):
        # each block of the Schatten scan reads a view of one snapshot,
        # grown to the horizon before the first block
        hook = HpSpace._delta2_values
        sizes = []
        monkeypatch.setattr(HpSpace, "_delta2_values",
                            lambda self, kmax: sizes.append(kmax + 1) or hook(self, kmax))
        K = 3 * (1 << 16) + 7
        decide(HpSpace(2, 3), 2, 2.5, K)
        assert sizes == [K + 1]


# delta2 as each generator formed it with whole-array temporaries, before
# it filled its result in place
WHOLE_ARRAY_DELTA2 = {
    "hp": lambda seq, k: (k + seq.m) / (k + float(seq.p)),
    "poly-gamma": lambda seq, k: _whole_array_poly_gamma(seq.coefficients, k),
    "rho-eta": lambda seq, k: _whole_array_rho_eta(len(k) - 1),
}


def _whole_array_poly_gamma(coefficients, k):
    # S(k+1)/S(k), each polynomial in k by Horner; S(k+1) expanded exactly
    shifted = [sum(math.comb(i, j) * c for i, c in enumerate(coefficients))
               for j in range(len(coefficients))]
    num, den = np.full(len(k), float(shifted[-1])), np.full(len(k), float(coefficients[-1]))
    for a, b in zip(reversed(shifted[:-1]), reversed(coefficients[:-1])):
        num, den = num * k + float(a), den * k + float(b)
    return num / den


def _whole_array_rho_eta(kmax):
    eta = np.zeros(kmax + 1)
    l = 0
    while 2 ** (2 ** l) <= kmax:
        eta[2 ** (2 ** l)] = 0.5 ** l
        l += 1
    rho = np.ones(kmax + 1)
    rho[1:] += np.cumsum(eta[:-1])
    return rho


class TestInPlaceGenerators:
    @pytest.mark.parametrize("kmax", [0, 1, 2, 3, 4, 5, 16, 17, 1000, 70_000])
    @pytest.mark.parametrize("make", [
        lambda: HpSpace(2, 3), lambda: HpSpace(3, Fraction(5, 2)), lambda: HpSpace(4, 1),
        lambda: PolynomialGamma([1, 2, 1]), lambda: PolynomialGamma([3, -1, Fraction(1, 7), 2]),
        lambda: RhoEta(),
    ], ids=["bergman", "hp-5/2", "drury-arveson", "poly-sq", "poly-cubic", "rho-eta"])
    def test_snapshot_is_the_whole_array_formula(self, make, kmax):
        seq = make()
        k = np.arange(kmax + 1, dtype=np.float64)
        want = WHOLE_ARRAY_DELTA2[seq.name](seq, k)
        assert seq.delta2_array(kmax).tobytes() == want.tobytes()
        logbb = np.zeros(kmax + 2)
        logbb[1:] = np.cumsum(0.5 * np.log(want))
        assert seq.log_bbeta_array(kmax + 1).tobytes() == logbb.tobytes()

    @pytest.mark.parametrize("make,arrays", [
        (lambda: HpSpace(2, 3), 2), (lambda: ConstantDelta(Fraction(1, 2)), 1.375),
        (lambda: AlternatingTwelve(), 1.375), (lambda: PolynomialGamma([1, 2, 1]), 3),
    ], ids=["hp", "constant", "alt-twelve", "poly-gamma"])
    def test_generator_peak_memory(self, make, arrays):
        # hp forms its denominator inside the k array, a constant branch is
        # a fill, poly-gamma holds k, S(k+1) and S(k); 0.375 is _ensure's
        # byte masks over the snapshot
        K = 200_000
        seq = make()
        tracemalloc.start()
        try:
            seq.delta2_array(K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 8 * (K + 1) + 8192

    def test_log_bbeta_is_built_inside_its_own_array(self):
        K = 200_000
        seq = HpSpace(2, 3)
        seq.delta2_array(K)
        tracemalloc.start()
        try:
            seq.log_bbeta_array(K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (K + 2) + 4096


class TestSequenceMachinery:
    def test_gamma_ratio_identity_float(self, suite_m2):
        # value scale where gamma is representable, log scale out to 1e4
        # (log is the storage format, so this is the honest large-k check)
        for label, seq in suite_m2:
            d2 = seq.delta2_array(10_000)
            logbb = seq.log_bbeta_array(10_000)
            for k in (0, 1, 2, 17, 100):
                lhs = math.exp(2.0 * logbb[k + 1])
                rhs = math.exp(2.0 * logbb[k]) * d2[k]
                assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), abs(rhs)), label
            for k in (999, 9_999):
                lhs = 2.0 * (logbb[k + 1] - logbb[k])
                rhs = math.log(d2[k])
                assert abs(lhs - rhs) <= 1e-12, label

    def test_gamma_ratio_identity_exact(self):
        seq = HpSpace(2, Fraction(7, 3))
        for k in range(200):
            assert gamma_exact(seq, k + 1) == gamma_exact(seq, k) * seq.delta2_exact(k)

    def test_nabla_binomial_equals_iterated(self):
        seq = HpSpace(2, 3)
        for q in range(1, 9):
            iterated = [gamma_exact(seq, k) for k in range(200 + q + 1)]
            for _ in range(q):
                iterated = [b - a for a, b in zip(iterated, iterated[1:])]
            for k in range(201):
                assert nabla_gamma(seq, k, q) == iterated[k], (k, q)

    def test_nabla_szego_zero(self):
        seq = HpSpace(3, 3)
        assert all(nabla_gamma(seq, k, q) == 0 for q in range(1, 5) for k in range(20))

    def test_nabla_drury_arveson(self):
        seq = HpSpace(2, 1)
        assert all(nabla_gamma(seq, k, 1) == 1 for k in range(50))
        assert all(nabla_gamma(seq, k, 2) == 0 for k in range(50))

    def test_nabla_rejects_q0(self):
        with pytest.raises(ValueError):
            nabla_gamma(HpSpace(2, 2), 0, 0)

    def test_log_bbeta_recurrence(self, suite_m2):
        for label, seq in suite_m2:
            for k in (0, 5, 113):
                logbb = seq.log_bbeta_array(k + 1)
                lhs = logbb[k + 1] - logbb[k]
                rhs = 0.5 * math.log(delta2_float(seq, k))
                assert abs(lhs - rhs) < 1e-12, label

    def test_weight_square_must_be_a_positive_float(self):
        for c in ("1e300", "1e-200", 1e300):
            with pytest.raises(ValueError):
                ConstantDelta(c)
            with pytest.raises(ValueError):
                HpSpace(2, 3).scale(c)

    def test_scale(self):
        base = HpSpace(2, 3)
        scaled = base.scale(Fraction(3, 2))
        for k in range(20):
            assert scaled.delta2_exact(k) == Fraction(9, 4) * base.delta2_exact(k)
        assert scaled.delta2_limit == pytest.approx(9 / 4)

    def test_sup_type_says_how_it_is_known(self):
        assert ConstantDelta(Fraction(7, 10)).sup_delta2() == Fraction(49, 100)
        assert ConstantDelta(0.5).sup_delta2() == 0.25
        assert Tabulated([1, 0.5], tail="hold").sup_delta2() == 1.0
        assert isinstance(Tabulated([1, 0.5], tail="hold").sup_delta2(), float)
        assert Tabulated([1, 2], tail="error").sup_delta2() is None
        assert PolynomialGamma([1, 1]).sup_delta2() == Fraction(2)
        assert isinstance(PolynomialGamma([1, 1]).sup_delta2(), Fraction)
        assert RhoEta().scale(Fraction(1, 2)).sup_delta2() == Fraction(3, 4)
        assert RhoEta().scale(0.5).sup_delta2() == 0.75

    def test_constant_bounded(self):
        rep = ConstantDelta(Fraction(1, 2)).is_bounded()
        assert rep.sup_delta2 == 0.25

    def test_no_evidence_path(self):
        seq = Tabulated([1, 2], tail=lambda k: Fraction(1))
        rep = seq.is_bounded(500)
        assert rep.verdict == "no-evidence"
        assert rep.horizon == 500
        assert rep.sup_delta2 == 2.0


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.integers(-3, 3) | st.fractions(-50, 50, max_denominator=9),
                min_size=1, max_size=7), st.data())
def test_descartes_sign_holds_at_every_drawn_k(coeffs, data):
    sign = descartes_sign(coeffs)
    if sign is None:
        return
    nonzero = [c for c in coeffs if c]
    # beyond the Cauchy bound of the nonzero part no root is left
    top = 2 + int(max((abs(c / nonzero[-1]) for c in nonzero), default=0))
    for k in data.draw(st.lists(st.integers(0, 2 * top), min_size=1, max_size=8)) + [0, 1]:
        value = sum(c * k ** i for i, c in enumerate(coeffs))
        if sign == 0:
            assert value == 0, (coeffs, k)
        elif k == 0:  # f(0) is the constant term, which may be 0
            assert value * sign >= 0, (coeffs, k)
        else:
            assert value * sign > 0, (coeffs, k)


# the families whose facts are now derived: each default_suite rational
# family, criterion 4's hp grid, and float inputs to the Python API
RATIONAL_FAMILIES = [seq for m in (2, 3, 4) for label, seq in default_suite(m)
                     if label != "rho-eta"]
RATIONAL_FAMILIES += [HpSpace(m, p) for m in (2, 3) for p in sorted(
    {q for q in [Fraction(m) - Fraction(3, 2), Fraction(m) - 1, Fraction(m) - Fraction(1, 2),
                 *map(Fraction, range(1, m + 1)), Fraction(m) + Fraction(1, 2), Fraction(m) + 1]
     if q > 0})]
RATIONAL_FAMILIES += [HpSpace(2, 0.5), ConstantDelta(0.5)]


@pytest.mark.parametrize("seq", RATIONAL_FAMILIES + [seq.scale(c) for seq in RATIONAL_FAMILIES
                                                     for c in (Fraction(3, 2), 0.5)], ids=repr)
def test_derived_facts_are_the_declared_ones(seq):
    want = declared_facts(seq)
    base = getattr(seq, "base", seq)
    if base.name == "poly-gamma":  # now also known: delta2 falls from its sup S(1)/S(0)
        sup = Fraction(4) if seq is base else seq.c * seq.c * 4
        want.update(monotone_nondecreasing=False, sup=sup)
    got = derived_facts(seq)
    assert [(type(got[key]), got[key]) for key in FACTS] == \
        [(type(want[key]), want[key]) for key in FACTS]


def test_make_family_registry():
    assert isinstance(make_family("szego", 2), HpSpace)
    assert make_family("bergman", 3).p == 4
    assert make_family("drury-arveson", 3).p == 1
    assert isinstance(make_family("rho-eta", 2), RhoEta)
    assert isinstance(make_family("alt-twelve", 2), AlternatingTwelve)
    assert make_family("constant", 2, c=Fraction(1, 2)).c == Fraction(1, 2)
    assert make_family("poly-gamma", 2, gamma_coeffs=[1, 1]).degree == 1
    with pytest.raises(UnknownFamilyError):
        make_family("nope", 2)
    with pytest.raises(ValueError):
        make_family("hp", 2)


def test_make_family_accepts_exactly_the_registry():
    # the names make_family compares its key against, read from its source
    tree = ast.parse(inspect.getsource(make_family))
    dispatched = {c.value for node in ast.walk(tree) if isinstance(node, ast.Compare)
                  for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    assert dispatched == set(FAMILIES)
    params = {"hp": {"p": 3}, "poly-gamma": {"gamma_coeffs": [1, 1]}, "tabulated": {"table": [1]}}
    for name in FAMILIES:
        assert isinstance(make_family(name, 2, **params.get(name, {})), ScalarSequence), name


def test_default_suite_names(suite_m3):
    names = [label for label, _ in suite_m3]
    assert "szego" in names and "rho-eta" in names and "alt-twelve" in names
