import math
from fractions import Fraction

import numpy as np
import pytest

from sphshift import truncation
from sphshift.multiindex import enumerate_level, multinomial
from sphshift.scalarseq import AlternatingTwelve, HpSpace, default_suite
from sphshift.shift import SphericalShift
from sphshift.truncation import (
    StructuralAssumptionError,
    build_basis,
    build_shift_matrix,
    build_tuple_matrices,
    commutator,
    compare_with_closed_form,
    gram_diagonal_singular_values,
    oracle_suite,
    q_power_bruteforce,
    schatten_power_sum,
    DenseOperator,
)
from sphshift.schatten import closed_form_level_sums


def szego(m=2):
    return SphericalShift(m, HpSpace(m, m))


class TestBasis:
    def test_dimension(self):
        assert build_basis(2, 10).dimension == 66
        assert build_basis(3, 10).dimension == math.comb(13, 3)

    def test_index_map_bijective(self):
        basis = build_basis(3, 6)
        seen = {basis.index_of(n) for n in basis.indices}
        assert seen == set(range(basis.dimension))

    def test_level_slices_partition(self):
        basis = build_basis(2, 5)
        covered = []
        for k in range(6):
            sl = basis.level_slice(k)
            covered.extend(range(sl.start, sl.stop))
            assert all(basis.indices[i].degree() == k for i in range(sl.start, sl.stop))
        assert covered == list(range(basis.dimension))


class TestShiftMatrix:
    def test_szego_n1_single_entry(self):
        basis = build_basis(2, 1)
        t1 = build_shift_matrix(szego(), 1, basis).matrix
        expected = np.zeros((3, 3))
        expected[basis.index_of((1, 0)), basis.index_of((0, 0))] = math.sqrt(0.5)
        np.testing.assert_allclose(t1, expected)

    def test_n0_everything_truncated(self):
        basis = build_basis(2, 0)
        t1 = build_shift_matrix(szego(), 1, basis).matrix
        assert t1.shape == (1, 1) and t1[0, 0] == 0.0

    def test_column_square_sums(self, suite_m2):
        N = 7
        basis = build_basis(2, N)
        for label, seq in suite_m2:
            s = SphericalShift(2, seq)
            ts = build_tuple_matrices(s, basis)
            total = sum(t.matrix ** 2 for t in ts)
            for col, n in enumerate(basis.indices):
                if n.degree() < N:
                    assert total[:, col].sum() == pytest.approx(
                        seq.delta2(n.degree()), rel=1e-13
                    ), label

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_entries_are_the_weights_bit_for_bit(self, m):
        N = 5
        basis = build_basis(m, N)
        for label, seq in default_suite(m):
            s = SphericalShift(m, seq)
            for j in range(1, m + 1):
                mat = build_shift_matrix(s, j, basis).matrix
                expected = np.zeros_like(mat)
                for col, n in enumerate(basis.indices):
                    if n.degree() < N:
                        expected[basis.index_of(n.add_unit(j)), col] = s.weight(j, n)
                assert np.array_equal(mat, expected), (label, j)


class TestCommutator:
    def test_self_commutator_is_zero(self):
        basis = build_basis(2, 4)
        t1 = build_shift_matrix(szego(), 1, basis)
        assert np.max(np.abs(commutator(t1, t1).matrix)) == 0.0

    def test_tuple_commutes(self, suite_m2):
        basis = build_basis(2, 8)
        for label, seq in suite_m2:
            ts = build_tuple_matrices(SphericalShift(2, seq), basis)
            dev = np.max(np.abs(commutator(ts[0], ts[1]).matrix))
            assert dev <= 1e-13, label

    def test_szego_self_comm_origin(self):
        basis = build_basis(2, 3)
        ts = build_tuple_matrices(szego(), basis)
        c = commutator(ts[0].adjoint(), ts[0]).matrix
        assert c[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_dimension_mismatch(self):
        a = DenseOperator(np.zeros((2, 2)), build_basis(1, 1), "a")
        b = DenseOperator(np.zeros((3, 3)), build_basis(1, 2), "b")
        with pytest.raises(ValueError):
            commutator(a, b)


class TestQPower:
    def test_k0_identity(self):
        basis = build_basis(2, 3)
        ts = build_tuple_matrices(szego(), basis)
        np.testing.assert_allclose(q_power_bruteforce(ts, 0).matrix, np.eye(basis.dimension))

    def test_k1_diagonal(self, suite_m2):
        N = 6
        basis = build_basis(2, N)
        for label, seq in suite_m2:
            ts = build_tuple_matrices(SphericalShift(2, seq), basis)
            q1 = q_power_bruteforce(ts, 1).matrix
            for col, n in enumerate(basis.indices):
                if n.degree() <= N - 1:
                    assert q1[col, col] == pytest.approx(seq.delta2(n.degree()), rel=1e-13), label

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_recursion_matches_multinomial_expansion(self, m):
        # reference: sum over |alpha| = k of (k!/alpha!) (T^alpha)* T^alpha
        N = 6 if m < 4 else 5
        basis = build_basis(m, N)
        for label, seq in default_suite(m):
            ts = build_tuple_matrices(SphericalShift(m, seq), basis)
            for k in range(4):
                expansion = np.zeros((basis.dimension, basis.dimension))
                for alpha in enumerate_level(m, k):
                    t_alpha = np.eye(basis.dimension)
                    for i, a in enumerate(alpha):
                        for _ in range(a):
                            t_alpha = ts[i].matrix @ t_alpha
                    expansion += multinomial(alpha) * (t_alpha.T @ t_alpha)
                stop = basis.level_slice(N - k).stop
                dev = np.max(np.abs(q_power_bruteforce(ts, k).matrix - expansion)[:stop, :stop])
                assert dev <= 1e-13, (label, k, dev)

    def test_k2_szego_origin(self):
        basis = build_basis(2, 5)
        ts = build_tuple_matrices(szego(), basis)
        assert q_power_bruteforce(ts, 2).matrix[0, 0] == pytest.approx(1.0, rel=1e-14)


class TestCompareClosedForm:
    def test_margin_too_small(self):
        with pytest.raises(ValueError):
            compare_with_closed_form(szego(), ("q_power", 3), 6, margin=2)
        with pytest.raises(ValueError):
            compare_with_closed_form(szego(), ("self_comm", 1), 6, margin=0)
        with pytest.raises(ValueError):
            compare_with_closed_form(szego(), ("bq", 2), 1, margin=2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            compare_with_closed_form(szego(), ("spectral_gap", 1), 6)

    def test_examples(self):
        assert compare_with_closed_form(szego(), ("self_comm", 1), 6) <= 1e-12
        berg = SphericalShift(2, HpSpace(2, 3))
        assert compare_with_closed_form(berg, ("q_power", 3), 8, margin=3) <= 1e-12
        alt = SphericalShift(2, AlternatingTwelve())
        assert compare_with_closed_form(alt, ("cross_comm", 1, 2), 8) <= 1e-12

    def test_oracle_suite_all_families(self, suite_m2, suite_m3):
        for m, suite, N in ((2, suite_m2, 8), (3, suite_m3, 8), (4, default_suite(4), 5)):
            for label, seq in suite:
                rows = oracle_suite(SphericalShift(m, seq), N=N, tol=1e-10)
                assert all(r["pass"] for r in rows), (m, label, rows)

    @pytest.mark.parametrize("planted", [("self_comm", 1), ("cross_comm", 1, 2), ("bq", 2)])
    def test_defect_at_one_index_is_caught(self, planted, monkeypatch):
        # one interior column of one closed form is off by 1e-6: only that
        # row may fail, so every interior column is compared
        n0 = (1, 1, 1)
        original = truncation._expected_interior

        def perturbed(shift, kind, basis, interior):
            expected = original(shift, kind, basis, interior)
            if kind == planted:
                col = basis.index_of(n0)
                row = basis.index_of((0, 2, 1)) if kind[0] == "cross_comm" else col
                expected[row, col] += 1e-6
            return expected

        monkeypatch.setattr(truncation, "_expected_interior", perturbed)
        rows = oracle_suite(SphericalShift(3, HpSpace(3, 4)), N=6, tol=1e-10)
        assert [r["kind"] for r in rows if not r["pass"]] == ["/".join(map(str, planted))]

    def test_wrong_target_is_caught(self):
        class Misplaced(SphericalShift):
            def cross_comm_coeff(self, j, l, n):
                coeff, target = super().cross_comm_coeff(j, l, n)
                return coeff, (None if target is None else n)

        rows = oracle_suite(Misplaced(2, HpSpace(2, 3)), N=6, tol=1e-10)
        assert {r["kind"] for r in rows if not r["pass"]} == {"cross_comm/1/2", "cross_comm/2/1"}


class TestGramSingularValues:
    def test_diagonal_matrix(self):
        basis = build_basis(2, 2)
        d = np.diag([3.0, -1.0, 0.5, 0.0, 2.0, 1.0])
        sv = gram_diagonal_singular_values(DenseOperator(d, basis, "diag"))
        np.testing.assert_allclose(sv, sorted([3.0, 1.0, 0.5, 0.0, 2.0, 1.0]))

    def test_zero_matrix(self):
        basis = build_basis(2, 1)
        sv = gram_diagonal_singular_values(DenseOperator(np.zeros((3, 3)), basis, "zero"))
        assert np.all(sv == 0.0)

    def test_cross_commutator_contains_expected_value(self):
        basis = build_basis(2, 2)
        ts = build_tuple_matrices(szego(), basis)
        sv = gram_diagonal_singular_values(commutator(ts[0].adjoint(), ts[1]))
        assert np.any(np.isclose(sv, 1 / 6, atol=1e-14))

    def test_structural_violation_detected(self):
        basis = build_basis(2, 1)
        mat = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(StructuralAssumptionError):
            gram_diagonal_singular_values(DenseOperator(mat, basis, "dense"))

    def test_gram_off_diagonal_vanishes_for_suite(self, suite_m2):
        basis = build_basis(2, 8)
        for label, seq in suite_m2:
            ts = build_tuple_matrices(SphericalShift(2, seq), basis)
            c = commutator(ts[0].adjoint(), ts[1])
            gram = c.matrix.T @ c.matrix
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) <= 1e-10, label


class TestSchattenOracle:
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_closed_form_matches_gram_sums(self, p, suite_m2, suite_m3):
        N = 9
        for m, suite in ((2, suite_m2), (3, suite_m3)):
            basis = build_basis(m, N)
            for label, seq in suite:
                s = SphericalShift(m, seq)
                ts = build_tuple_matrices(s, basis)
                levels = closed_form_level_sums(s, 1, 2, p, N - 1)
                closed = float(math.fsum(levels.tolist()))
                c = commutator(ts[0].adjoint(), ts[1])
                oracle = schatten_power_sum(c, p, kmax=N - 1)
                assert closed == pytest.approx(oracle, rel=1e-8), (m, label, p)
                levels_self = closed_form_level_sums(s, 1, 1, p, N - 1)
                closed_self = float(math.fsum(levels_self.tolist()))
                c_self = commutator(ts[0].adjoint(), ts[0])
                oracle_self = schatten_power_sum(c_self, p, kmax=N - 1)
                assert closed_self == pytest.approx(oracle_self, rel=1e-8), (m, label, p)

    def test_norm_monotonicity_in_p(self):
        basis = build_basis(2, 8)
        ts = build_tuple_matrices(SphericalShift(2, HpSpace(2, 3)), basis)
        c = commutator(ts[0].adjoint(), ts[1])
        sv = gram_diagonal_singular_values(DenseOperator(c.restrict_to_levels(7).copy(), basis, "i"))
        norms = {p: float(np.sum(sv ** p)) ** (1 / p) for p in (1, 2, 4)}
        assert norms[1] >= norms[2] >= norms[4]

    def test_axis_symmetry_via_oracle(self):
        # the tuple's coordinates are exchangeable: same singular values
        basis = build_basis(2, 8)
        ts = build_tuple_matrices(SphericalShift(2, HpSpace(2, 3)), basis)
        sv_11 = gram_diagonal_singular_values(commutator(ts[0].adjoint(), ts[0]))
        sv_22 = gram_diagonal_singular_values(commutator(ts[1].adjoint(), ts[1]))
        np.testing.assert_allclose(sv_11, sv_22, atol=1e-12)
        sv_12 = gram_diagonal_singular_values(commutator(ts[0].adjoint(), ts[1]))
        sv_21 = gram_diagonal_singular_values(commutator(ts[1].adjoint(), ts[0]))
        np.testing.assert_allclose(sv_12, sv_21, atol=1e-12)
