import ast
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from exact_reference import gamma_exact, nabla_gamma
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
    make_family,
    default_suite,
)
from sphshift.schatten import cutoff_check
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
        assert HpSpace(2, 1).sup_delta2_exact() == 2

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
        assert RhoEta.eta_exact(2) == 1
        assert RhoEta.eta_exact(4) == Fraction(1, 2)
        assert RhoEta.eta_exact(16) == Fraction(1, 4)
        assert RhoEta.eta_exact(256) == Fraction(1, 8)
        for k in (0, 1, 3, 5, 8, 32, 64, 100, 255):
            assert RhoEta.eta_exact(k) == 0

    def test_declared_limit_three(self):
        seq = RhoEta()
        assert seq.delta2_limit == 3.0
        # increments sum to 2, so rho climbs from 1 towards 3
        assert seq.delta2(70000) > 2.9

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
        assert seq.delta2(1) == 0.5
        with pytest.raises(TableRangeError):
            seq.delta2(2)

    def test_error_tail_in_range_log_path(self):
        # cache growth must not overshoot a finite table for in-range queries
        seq = Tabulated([1, Fraction(1, 2), Fraction(1, 3)])
        assert seq.log_bbeta(2) == pytest.approx(0.5 * math.log(0.5))
        assert seq.gamma(3) == pytest.approx(1 / 6)
        assert seq.log_bbeta(3) == pytest.approx(0.5 * math.log(1 / 6))
        with pytest.raises(TableRangeError):
            seq.log_bbeta(4)

    def test_hold_tail(self):
        seq = Tabulated([1, 4], tail="hold")
        assert seq.delta2(100) == 4.0
        assert seq.sup_delta2_exact() == 4

    def test_const_tail(self):
        seq = Tabulated([1, 4], tail=("const", Fraction(1, 2)))
        assert seq.delta2_exact(17) == Fraction(1, 2)
        assert seq.is_bounded().verdict == "yes"
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


class TestSequenceMachinery:
    def test_gamma_ratio_identity_float(self, suite_m2):
        # value scale where gamma is representable, log scale out to 1e4
        # (log is the storage format, so this is the honest large-k check)
        for label, seq in suite_m2:
            d2 = seq.delta2_array(10_000)
            for k in (0, 1, 2, 17, 100):
                lhs = seq.gamma(k + 1)
                rhs = seq.gamma(k) * d2[k]
                assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), abs(rhs)), label
            for k in (999, 9_999):
                lhs = 2.0 * (seq.log_bbeta(k + 1) - seq.log_bbeta(k))
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
                lhs = seq.log_bbeta(k + 1) - seq.log_bbeta(k)
                rhs = 0.5 * math.log(seq.delta2(k))
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

    def test_constant_bounded(self):
        rep = ConstantDelta(Fraction(1, 2)).is_bounded()
        assert rep.sup_delta2 == 0.25

    def test_no_evidence_path(self):
        seq = Tabulated([1, 2], tail=lambda k: Fraction(1))
        rep = seq.is_bounded(500)
        assert rep.verdict == "no-evidence"
        assert rep.horizon == 500
        assert rep.sup_delta2 == 2.0


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
