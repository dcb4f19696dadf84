import math
from fractions import Fraction

import numpy as np
import pytest

from exact_reference import add_unit, beta_norm, delta2_float, gamma_exact, nabla_gamma
from sphshift.multiindex import enumerate_level
from sphshift.scalarseq import AlternatingTwelve, ConstantDelta, HpSpace, Tabulated
from sphshift.schatten import decide
from sphshift.shift import SphericalShift
from sphshift.spectra import spectral_report
from sphshift.truncation import build_basis, build_shift_matrix


def szego(m=2):
    return SphericalShift(m, HpSpace(m, m))


def one_variable_shift(seq, kmax):
    """The 1-variable shift with the weights delta_0..delta_kmax of seq. It
    reads them from a table, which declares no arity of its own (hp's delta2
    depends on its m, so SphericalShift(1, HpSpace(2, p)) is refused)."""
    exact = [seq.delta2_exact(k) for k in range(kmax + 1)]
    return SphericalShift(1, Tabulated([delta2_float(seq, k) if v is None else v
                                        for k, v in enumerate(exact)]))


class TestWeights:
    def test_szego_origin(self):
        assert szego().weight(1, (0, 0)) == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_hp_weight_formula(self):
        # for the kernel-scale family the weight collapses to
        # sqrt((n_i+1)/(|n|+p)) independently of m in the denominator shift
        for m, p in [(2, 1), (2, 3), (3, 2)]:
            s = SphericalShift(m, HpSpace(m, p))
            for n in [(0,) * m, (1,) + (0,) * (m - 1), (2, 1) + (0,) * (m - 2)]:
                k = sum(n)
                for i in range(1, m + 1):
                    expect = math.sqrt((n[i - 1] + 1) / (k + p))
                    assert s.weight(i, n) == pytest.approx(expect, rel=1e-14)

    def test_constant_weight(self):
        c = Fraction(3, 4)
        s = SphericalShift(2, ConstantDelta(c))
        assert s.weight(2, (1, 1)) == pytest.approx(float(c) * math.sqrt(2 / 4), rel=1e-15)

    def test_axis_range(self):
        with pytest.raises(ValueError):
            szego().weight(3, (0, 0))


class TestBetaNorm:
    def test_szego_examples(self):
        s = szego()
        assert beta_norm(s, (1, 1)) == pytest.approx(math.sqrt(1 / 6), rel=1e-14)
        assert beta_norm(s, (2, 0)) == pytest.approx(math.sqrt(1 / 3), rel=1e-14)

    def test_origin_is_one(self):
        for seq in (HpSpace(2, 1), AlternatingTwelve(), ConstantDelta(2)):
            assert beta_norm(SphericalShift(2, seq), (0, 0)) == pytest.approx(1.0)

    def test_weight_is_beta_ratio(self, suite_m2):
        for label, seq in suite_m2:
            s = SphericalShift(2, seq)
            for n in (n for k in range(16) for n in enumerate_level(2, k).tolist()):
                for i in (1, 2):
                    ratio = beta_norm(s, add_unit(n, i)) / beta_norm(s, n)
                    w = s.weight(i, n)
                    assert abs(w - ratio) <= 1e-12 * max(w, ratio), (label, tuple(n))

    def test_weight_is_beta_ratio_m3(self, suite_m3):
        for label, seq in suite_m3:
            s = SphericalShift(3, seq)
            for n in (n for k in range(16) for n in enumerate_level(3, k).tolist()):
                for i in (1, 2, 3):
                    ratio = beta_norm(s, add_unit(n, i)) / beta_norm(s, n)
                    assert abs(s.weight(i, n) - ratio) <= 1e-12, (label, tuple(n))


class TestCommutationStructure:
    def test_commutativity_relation(self, suite_m2):
        # w_j(n) w_k(n+e_j) = w_k(n) w_j(n+e_k)
        for label, seq in suite_m2:
            s = SphericalShift(2, seq)
            for n in (n for k in range(16) for n in enumerate_level(2, k).tolist()):
                lhs = s.weight(1, n) * s.weight(2, add_unit(n, 1))
                rhs = s.weight(2, n) * s.weight(1, add_unit(n, 2))
                assert abs(lhs - rhs) <= 1e-12 * max(lhs, rhs), label

    def test_commutativity_relation_m3(self, suite_m3):
        for label, seq in suite_m3:
            s = SphericalShift(3, seq)
            for n in (n for k in range(16) for n in enumerate_level(3, k).tolist()):
                for j, l in ((1, 2), (1, 3), (2, 3)):
                    lhs = s.weight(j, n) * s.weight(l, add_unit(n, j))
                    rhs = s.weight(l, n) * s.weight(j, add_unit(n, l))
                    assert abs(lhs - rhs) <= 1e-12 * max(lhs, rhs), label

    def test_weight_square_sum_is_delta2(self, suite_m2):
        for label, seq in suite_m2:
            s = SphericalShift(2, seq)
            for n in (n for k in range(12) for n in enumerate_level(2, k).tolist()):
                total = sum(s.weight(i, n) ** 2 for i in (1, 2))
                assert total == pytest.approx(delta2_float(seq, sum(n)), rel=1e-13), label

    def test_unit_row_sum_iff_constant_one(self):
        s = szego(3)
        for n in ((0, 0, 0), (2, 1, 0), (4, 4, 4)):
            total = sum(s.weight(i, n) ** 2 for i in (1, 2, 3))
            assert total == pytest.approx(1.0, abs=1e-15)
        other = SphericalShift(3, HpSpace(3, 4))
        assert sum(other.weight(i, (0, 0, 0)) ** 2 for i in (1, 2, 3)) != pytest.approx(1.0)


class TestQDiagonal:
    def test_szego_all_one(self):
        s = szego()
        assert all(s.q_diag(k, j) == pytest.approx(1.0) for k in range(5) for j in range(5))

    def test_bergman_first(self):
        s = SphericalShift(2, HpSpace(2, 3))
        assert s.q_diag(0, 1) == float(Fraction(2, 3))

    def test_power_zero_is_identity(self, suite_m2):
        for label, seq in suite_m2:
            assert SphericalShift(2, seq).q_diag(7, 0) == 1.0

    def test_float_family_in_log_space(self):
        s = SphericalShift(2, ConstantDelta(0.5))
        assert s.q_diag(3, 2) == pytest.approx(0.0625, rel=1e-14)

    def test_overflow_is_inf(self):
        # exact path: float() of the product 10^400 overflows
        assert SphericalShift(2, ConstantDelta(10 ** 100)).q_diag(0, 2) == math.inf
        # float path: exp of the log-space sum 2 log(1e200) overflows
        assert SphericalShift(2, ConstantDelta(1e100)).q_diag(0, 2) == math.inf

    def test_one_variable_shift_power_norms(self, suite_m2):
        # independent route: build the associated 1-variable shift as a
        # truncation matrix and push basis vectors through s-fold products
        N = 12
        for label, seq in suite_m2:
            shift1 = one_variable_shift(seq, N)
            basis = build_basis(1, N)
            t = build_shift_matrix(shift1, 1, basis).matrix
            for k in range(4):
                for s in range(4):
                    e = np.zeros(basis.dimension)
                    e[basis.rows_of([(k,)])[0]] = 1.0
                    v = e
                    for _ in range(s):
                        v = t @ v
                    norm2 = float(v @ v)
                    q = SphericalShift(2, seq).q_diag(k, s)
                    assert abs(norm2 - q) <= 1e-12 * max(1.0, q), (label, k, s)


class TestBqDiagonal:
    def test_szego_vanishes(self):
        s = szego()
        assert s.bq_diag(3, 1) == 0.0

    def test_drury_arveson_two_isometry(self):
        s = SphericalShift(2, HpSpace(2, 1))
        assert all(s.bq_diag(k, 2) == 0.0 for k in range(40))

    def test_bergman_contraction_direction(self):
        s = SphericalShift(2, HpSpace(2, 3))
        assert s.bq_diag(0, 1) == pytest.approx(1 / 3, rel=1e-15)

    def test_matches_gamma_differences(self, suite_m2):
        # B_q diagonal is the signed q-th difference over gamma, rounded once
        for label, seq in suite_m2:
            if gamma_exact(seq, 0) is None:
                continue
            s = SphericalShift(2, seq)
            for q in range(1, 7):
                for k in range(101):
                    exact = (-1) ** q * nabla_gamma(seq, k, q) / gamma_exact(seq, k)
                    assert s.bq_diag(k, q) == float(exact), (label, k, q)

    def test_rejects_q0(self):
        with pytest.raises(ValueError):
            szego().bq_diag(0, 0)

    def test_exact_value_beyond_the_float_range_is_signed_inf(self):
        # delta2 = c^2 = 1e104: B_q = (1 - delta2)^q on every level, so B_3 is
        # about -1e312 and B_4 about 1e416, like the overflowing q-diagonals
        s = SphericalShift(2, ConstantDelta("1e52"))
        assert s.bq_diag(0, 2) == pytest.approx(1e208)
        assert s.bq_diags(3, range(4)).tolist() == [-math.inf] * 4
        assert s.bq_diags(4, range(4)).tolist() == [math.inf] * 4
        assert s.q_diag(0, 4) == math.inf


class TestCommutatorCoefficients:
    def test_self_szego_values(self):
        s = szego()
        assert s.self_comm_coeff(1, (0, 0)) == pytest.approx(0.5)
        assert s.self_comm_coeff(1, (1, 0)) == pytest.approx(2 / 3 - 1 / 2, rel=1e-14)

    def test_self_zero_branch(self, suite_m2):
        for label, seq in suite_m2:
            s = SphericalShift(2, seq)
            n = (0, 3)
            expect = delta2_float(seq, 3) / (3 + 2)
            assert s.self_comm_coeff(1, n) == pytest.approx(expect, rel=1e-13), label

    def test_cross_szego_m2(self):
        coeff, target = szego().cross_comm_coeff(1, 2, (1, 0))
        assert coeff == pytest.approx(-1 / 6, rel=1e-14)
        assert tuple(target) == (0, 1)

    def test_cross_zero_branch(self, suite_m2):
        for label, seq in suite_m2:
            coeff, target = SphericalShift(2, seq).cross_comm_coeff(1, 2, (0, 5))
            assert target is None and coeff == 0.0, label

    def test_cross_szego_m3(self):
        coeff, target = szego(3).cross_comm_coeff(1, 3, (1, 1, 0))
        assert coeff == pytest.approx(-1 / 20, rel=1e-14)
        assert type(target) is tuple and target == (0, 1, 1)

    def test_cross_same_axis_rejected(self):
        with pytest.raises(ValueError):
            szego().cross_comm_coeff(1, 1, (1, 0))


class TestMultiIndexArrays:
    """Every closed form taking multi-indices refuses, with a ValueError, an
    array that is not m wide or holds a negative entry, in its level-wise
    form and its one-row view alike."""

    @pytest.mark.parametrize("bad", [[[1, -1]], [[-1, 2]], [[1, 2, 3]], [[1]], [1, 2],
                                     [[[1, 2]]], [[0, 1], [2, -3]]])
    def test_level_wise_forms_refuse(self, bad):
        s = SphericalShift(2, HpSpace(2, 3))
        for form in (lambda e: s.weights(1, e), lambda e: s.self_comm_coeffs(1, e),
                     lambda e: s.cross_comm_coeffs(1, 2, e)):
            with pytest.raises(ValueError, match="multi-indices of arity 2"):
                form(bad)

    @pytest.mark.parametrize("bad", [(1, -1), (-1, 2), (1, 2, 3), (1,), ()])
    def test_one_row_views_refuse(self, bad):
        s = SphericalShift(2, HpSpace(2, 3))
        for view in (lambda n: s.weight(1, n), lambda n: s.self_comm_coeff(1, n),
                     lambda n: s.cross_comm_coeff(1, 2, n)):
            with pytest.raises(ValueError, match="multi-indices of arity 2"):
                view(bad)


def test_degenerate_arity_one_is_classical_shift():
    seq = HpSpace(1, 3)
    s = SphericalShift(1, seq)
    for k in range(10):
        assert s.weight(1, (k,)) == pytest.approx(math.sqrt(float(seq.delta2_exact(k))), rel=1e-15)


def test_arity_must_match_the_family_arity():
    # the hp delta2 (k+m)/(k+p) depends on m, so another arity is refused
    for seq in (HpSpace(2, 3), HpSpace(2, 3).scale(2)):
        with pytest.raises(ValueError, match="does not match"):
            SphericalShift(3, seq)
        assert SphericalShift(2, seq).m == 2
    assert SphericalShift(3, AlternatingTwelve()).m == 3  # declares no arity


def test_every_layer_taking_an_arity_refuses_a_foreign_one():
    # the same check as the shift's: hp at m = 2 is not a family at m = 3
    with pytest.raises(ValueError, match="does not match"):
        decide(HpSpace(2, 3), 3, 2.5)
    with pytest.raises(ValueError, match="does not match"):
        spectral_report(HpSpace(2, 3), 3)
    assert decide(HpSpace(3, 4), 3, 2.5).verdict == "diverges"
    assert spectral_report(AlternatingTwelve(), 3).m == 3  # declares no arity


def test_library_imposes_no_arity_cap():
    s = SphericalShift(9, HpSpace(9, 9))
    assert s.weight(5, (0,) * 9) == pytest.approx(1 / 3, rel=1e-15)


def test_diagonal_forms_of_no_levels_are_empty():
    # no level reads nothing, not even the first rows of a table without a tail
    for seq in (HpSpace(2, 3), Tabulated([Fraction(1, 2)])):
        s = SphericalShift(2, seq)
        for form in (s.q_diags, s.bq_diags):
            for order in (1, 3):
                out = form(order, [])
                assert out.dtype == np.float64 and out.shape == (0,)


def test_each_form_reads_each_snapshot_once_at_its_top_level(monkeypatch):
    seq = AlternatingTwelve()
    reads = []
    for name in ("delta2_array", "delta2_exact_array", "log_bbeta_array"):
        def counting(kmax, _name=name, _real=getattr(seq, name)):
            reads.append((_name, kmax))
            return _real(kmax)
        monkeypatch.setattr(seq, name, counting)
    s = SphericalShift(2, seq)
    exps = np.array([[1, 2], [0, 0], [4, 1], [2, 0]])
    s.weights(1, exps)
    assert reads == [("delta2_array", 5)]
    for form in (lambda: s.self_comm_coeffs(1, exps), lambda: s.cross_comm_coeffs(1, 2, exps)):
        reads.clear()
        form()
        assert reads == [("delta2_array", 5), ("delta2_exact_array", 5)]
    for form in (s.q_diags, s.bq_diags):
        reads.clear()
        form(3, [0, 7, 2, 7])
        assert reads == [("delta2_exact_array", 9), ("log_bbeta_array", 10)]
