import dataclasses
import math
import os
import pathlib
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from exact_reference import add_unit, delta2_float, grevlex_level, multinomial
from sphshift import cli, truncation
from sphshift.multiindex import enumerate_level
from sphshift.scalarseq import (AlternatingTwelve, ConstantDelta, HpSpace, PolynomialGamma,
                                Tabulated, default_suite)
from sphshift.shift import SphericalShift
from sphshift.truncation import (
    LevelOperator,
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
)
from sphshift.schatten import closed_form_level_sums


# the (m, N) of every verify request of the benchmark's oracle-verify workload
VERIFY_SIZES = [(2, 8), (2, 10), (2, 12), (2, 14), (3, 6), (3, 7), (4, 4), (4, 5)]


def szego(m=2):
    return SphericalShift(m, HpSpace(m, m))


def row(basis, n):
    """The row of the multi-index n."""
    return int(basis.rows_of([n])[0])


class TestBasis:
    def test_dimension(self):
        assert build_basis(2, 10).dimension == 66
        assert build_basis(3, 10).dimension == math.comb(13, 3)

    def test_bound_counts_the_basis_columns(self, monkeypatch):
        # each operator holds one row and one value per basis column, so the
        # bound is on C(N + m, m); N one past the largest accepted is refused
        def enumerated(*args):
            raise LookupError("enumerated")

        monkeypatch.setattr(truncation, "enumerate_level", enumerated)
        for m in range(1, 9):
            N = 0
            while math.comb(N + 1 + m, m) <= truncation.ORACLE_COLUMNS:
                N += 1
            with pytest.raises(LookupError):
                build_basis(m, N)
            with pytest.raises(ValueError, match=rf"needs {math.comb(N + 1 + m, m)} basis columns"):
                build_basis(m, N + 1)

    def test_bound_refuses_only_beyond_the_column_bound(self, monkeypatch):
        def enumerated(*args):
            raise LookupError("enumerated")

        monkeypatch.setattr(truncation, "enumerate_level", enumerated)
        for m, N in VERIFY_SIZES + [(m, 10) for m in range(5, 9)]:
            with pytest.raises(LookupError):
                build_basis(m, N)
        for m, N in [(8, 11), (7, 12), (2, 100_000), (1, 10**12)]:
            with pytest.raises(ValueError, match=rf"^the section m = {m}, N = {N} needs "
                                                 rf"{math.comb(N + m, m)} basis columns, "
                                                 rf"beyond the oracle's 50000$"):
                build_basis(m, N)

    def test_index_map_bijective(self):
        basis = build_basis(3, 6)
        seen = {row(basis, n) for k in range(7) for n in enumerate_level(3, k)}
        assert seen == set(range(basis.dimension))

    @pytest.mark.parametrize("m,N", [(1, 30), (2, 14), (3, 8), (8, 10), (12, 3)])
    def test_rank_is_the_enumeration_order(self, m, N):
        # m = 12 is an arity only the Python API reaches
        basis = build_basis(m, N)
        order = [n for k in range(N + 1) for n in grevlex_level(m, k)]
        rows = {n: c for c, n in enumerate(order)}
        assert np.array_equal(basis.exponents, order)
        assert np.array_equal(basis.rows_of(basis.exponents), np.arange(basis.dimension))
        assert np.array_equal(basis.rows_of(order), np.arange(basis.dimension))
        up = [[rows[add_unit(n, j)] if sum(n) < N else -1 for n in order] for j in range(1, m + 1)]
        assert np.array_equal(basis.up, up)
        too_high = (0,) * (m - 1) + (N + 1,)
        negative = (-1,) if m == 1 else (-1, 1) + (0,) * (m - 2)
        for bad in (too_high, negative):
            with pytest.raises(KeyError, match=re.escape(f"{bad} lies outside |n| <= {N}")):
                basis.rows_of([order[-1], bad])

    def test_level_slices_partition(self):
        basis = build_basis(2, 5)
        covered = []
        for k in range(6):
            start, stop = basis.bounds[k], basis.bounds[k + 1]
            covered.extend(range(start, stop))
            assert all(sum(basis.exponents[i]) == k for i in range(start, stop))
        assert covered == list(range(basis.dimension))


class TestShiftMatrix:
    def test_szego_n1_single_entry(self):
        basis = build_basis(2, 1)
        t1 = build_shift_matrix(szego(), 1, basis).matrix
        expected = np.zeros((3, 3))
        expected[row(basis, (1, 0)), row(basis, (0, 0))] = math.sqrt(0.5)
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
            for col, n in enumerate(basis.exponents.tolist()):
                if sum(n) < N:
                    assert total[:, col].sum() == pytest.approx(
                        delta2_float(seq, sum(n)), rel=1e-13
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
                for col, n in enumerate(basis.exponents.tolist()):
                    if sum(n) < N:
                        expected[row(basis, add_unit(n, j)), col] = s.weight(j, n)
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
        a = LevelOperator(np.full(3, -1), np.zeros(3), 0, 2, build_basis(1, 1), "a")
        b = LevelOperator(np.full(4, -1), np.zeros(4), 0, 3, build_basis(1, 2), "b")
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
            for col, n in enumerate(basis.exponents.tolist()):
                if sum(n) <= N - 1:
                    assert q1[col, col] == pytest.approx(delta2_float(seq, sum(n)), rel=1e-13), label

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
                stop = basis.bounds[N - k + 1]
                dev = np.max(np.abs(q_power_bruteforce(ts, k).matrix - expansion)[:stop, :stop])
                assert dev <= 1e-13, (label, k, dev)

    def test_k2_szego_origin(self):
        basis = build_basis(2, 5)
        ts = build_tuple_matrices(szego(), basis)
        assert q_power_bruteforce(ts, 2).matrix[0, 0] == pytest.approx(1.0, rel=1e-14)


class TestCompareClosedForm:
    def test_N_below_the_reach_is_refused(self):
        # a row is compared on |n| <= N - reach, so N must cover the reach
        with pytest.raises(ValueError, match=r"row bq/2 needs N >= 2, got N = 1"):
            compare_with_closed_form(szego(), ("bq", 2), 1)
        with pytest.raises(ValueError, match=r"row self_comm/1 needs N >= 1, got N = 0"):
            compare_with_closed_form(szego(), ("self_comm", 1), 0)
        assert compare_with_closed_form(szego(), ("q_power", 3), 3) <= 1e-12
        for N in (-1, 0, 2):
            with pytest.raises(ValueError, match=rf"Q\^3 rows .*got N = {N}$"):
                oracle_suite(szego(), N)

    def test_matrix_entries_beyond_the_float_range_are_refused(self):
        # delta2 = 6.4e103, so Q^3(I) ~ 2.6e311 overflows in the matrix products
        shift = SphericalShift(2, ConstantDelta("8e51"))
        with pytest.raises(ValueError, match=r"row q_power/3 of the section m = 2, N = 4 "):
            oracle_suite(shift, 4)
        with pytest.raises(ValueError, match=r"row bq/3 of the section m = 2, N = 4 "):
            compare_with_closed_form(shift, ("bq", 3), 4)

    def test_closed_form_beyond_the_float_range_fails_its_row(self):
        class InfiniteQ(SphericalShift):
            def q_diags(self, s, levels):  # inf for Q^2(I), nan for Q^3(I)
                if s < 2:
                    return super().q_diags(s, levels)
                return np.full(len(levels), math.inf if s == 2 else math.nan)

        rows = {r["kind"]: r for r in oracle_suite(InfiniteQ(2, HpSpace(2, 3)), 5)}
        assert [rows[f"q_power/{s}"]["max_deviation"] for s in (2, 3)] == [math.inf] * 2
        assert [r["pass"] for r in rows.values()] == [True] * 6 + [False] * 2 + [True] * 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            compare_with_closed_form(szego(), ("spectral_gap", 1), 6)

    def test_examples(self):
        assert compare_with_closed_form(szego(), ("self_comm", 1), 6) <= 1e-12
        berg = SphericalShift(2, HpSpace(2, 3))
        assert compare_with_closed_form(berg, ("q_power", 3), 8) <= 1e-12
        alt = SphericalShift(2, AlternatingTwelve())
        assert compare_with_closed_form(alt, ("cross_comm", 1, 2), 8) <= 1e-12

    def test_oracle_suite_all_families(self, suite_m2, suite_m3):
        for m, suite, N in ((2, suite_m2, 8), (3, suite_m3, 8), (4, default_suite(4), 5),
                            (6, default_suite(6), 10)):
            for label, seq in suite:
                rows = oracle_suite(SphericalShift(m, seq), N=N, tol=1e-10)
                assert all(r["pass"] for r in rows), (m, label, rows)

    @pytest.mark.parametrize("planted", [("self_comm", 1), ("cross_comm", 1, 2), ("bq", 2)])
    def test_defect_at_one_index_is_caught(self, planted, monkeypatch):
        # one interior column of one closed form is off by 1e-6: only that
        # row may fail, so every interior column is compared
        n0 = (1, 1, 1)
        original = truncation._expected_interior

        def perturbed(shift, kind, basis, kmax):
            rows, values = original(shift, kind, basis, kmax)
            if kind == planted:
                col = row(basis, n0)
                want = row(basis, (0, 2, 1)) if kind[0] == "cross_comm" else col
                assert (col if rows is None else rows[col]) == want
                values[col] += 1e-6
            return rows, values

        monkeypatch.setattr(truncation, "_expected_interior", perturbed)
        rows = oracle_suite(SphericalShift(3, HpSpace(3, 4)), N=6, tol=1e-10)
        assert [r["kind"] for r in rows if not r["pass"]] == ["/".join(map(str, planted))]

    def test_wrong_target_is_caught(self):
        class Misplaced(SphericalShift):
            def cross_comm_coeffs(self, j, l, exps):
                coeffs, targets = super().cross_comm_coeffs(j, l, exps)
                return coeffs, np.where(targets >= 0, exps, -1)

        rows = oracle_suite(Misplaced(2, HpSpace(2, 3)), N=6, tol=1e-10)
        assert {r["kind"] for r in rows if not r["pass"]} == {"cross_comm/1/2", "cross_comm/2/1"}

    def test_target_off_its_level_is_refused(self):
        # every compared operator preserves the level, so a closed form that
        # names a target on another level is a structural failure
        class Lifted(SphericalShift):
            def cross_comm_coeffs(self, j, l, exps):
                coeffs, targets = super().cross_comm_coeffs(j, l, exps)
                return coeffs, np.where(targets >= 0, targets + [1, 0], -1)  # one level up

        with pytest.raises(StructuralAssumptionError):
            oracle_suite(Lifted(2, HpSpace(2, 3)), N=6, tol=1e-10)


class TestGramSingularValues:
    def test_diagonal_matrix(self):
        basis = build_basis(2, 2)
        rows, vals = np.append(np.arange(6), -1), np.array([3.0, -1.0, 0.5, 0.0, 2.0, 1.0, 0.0])
        sv = gram_diagonal_singular_values(LevelOperator(rows, vals, 0, 3, basis, "diag"))
        np.testing.assert_allclose(sv, sorted([3.0, 1.0, 0.5, 0.0, 2.0, 1.0]))

    def test_zero_matrix(self):
        basis = build_basis(2, 1)
        zero = LevelOperator(np.append(np.arange(3), -1), np.zeros(4), 0, 2, basis, "zero")
        sv = gram_diagonal_singular_values(zero)
        assert sv.shape == (3,) and np.all(sv == 0.0)

    def test_cross_commutator_contains_expected_value(self):
        basis = build_basis(2, 2)
        ts = build_tuple_matrices(szego(), basis)
        sv = gram_diagonal_singular_values(commutator(ts[0].adjoint(), ts[1]))
        assert np.any(np.isclose(sv, 1 / 6, atol=1e-14))

    def test_structural_violation_detected(self):
        # both columns of level 1 land on one row: C*C has 1 * 0.5 off its diagonal
        basis = build_basis(2, 1)
        rows, vals = np.array([0, 1, 1, -1]), np.array([1.0, 1.0, 0.5, 0.0])
        with pytest.raises(StructuralAssumptionError,
                           match="row 1 of mixing holds two nonzero entries, so C[*]C is not "
                                 "diagonal"):
            gram_diagonal_singular_values(LevelOperator(rows, vals, 0, 2, basis, "mixing"))

    def test_structural_violation_of_any_size_is_detected(self):
        # 1e-200 * 1e-200 underflows to 0, yet the two entries still share a
        # row; a zero entry in that row puts nothing off the diagonal, and a
        # singular value is its entry's size at either end of the float range
        basis = build_basis(2, 1)
        rows = np.array([0, 1, 1, -1])
        with pytest.raises(StructuralAssumptionError, match="row 1 of tiny"):
            gram_diagonal_singular_values(
                LevelOperator(rows, np.array([1.0, 1e-200, 1e-200, 0.0]), 0, 2, basis, "tiny"))
        sv = gram_diagonal_singular_values(
            LevelOperator(rows, np.array([-1e200, 1e-200, 0.0, 0.0]), 0, 2, basis, "one-zero"))
        assert sv.tolist() == [0.0, 1e-200, 1e200]

    def test_gram_off_diagonal_vanishes_for_suite(self, suite_m2):
        basis = build_basis(2, 8)
        for label, seq in suite_m2:
            ts = build_tuple_matrices(SphericalShift(2, seq), basis)
            c = commutator(ts[0].adjoint(), ts[1]).matrix
            gram = c.T @ c
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
        sv = gram_diagonal_singular_values(c.restrict_to_levels(7))
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


# -- reference: the per-key evaluation that the level-wise forms replaced ------
# Each closed form evaluated through exact Fractions one multi-index at a
# time, once per distinct input it reads, then broadcast over the columns.


def _ref_pair(shift, k):
    seq, m = shift.seq, shift.m
    return (seq.delta2_exact(k) / (k + m),
            seq.delta2_exact(k - 1) / (k + m - 1) if k >= 1 else Fraction(0))


def ref_weight(shift, i, n):
    k = sum(n)
    return math.sqrt(delta2_float(shift.seq, k) * (n[i - 1] + 1) / (k + shift.m))


def ref_self_comm(shift, j, n):
    cur, prev = _ref_pair(shift, sum(n))
    t = n[j - 1]
    return float(cur) if t == 0 else float((t + 1) * cur - t * prev)


def ref_cross_comm(shift, j, l, n):
    if n[j - 1] == 0:
        return 0.0, None
    cur, prev = _ref_pair(shift, sum(n))
    target = list(add_unit(n, l))
    target[j - 1] -= 1
    return math.sqrt(n[j - 1] * (n[l - 1] + 1)) * float(cur - prev), tuple(target)


def ref_q_exact(shift, k, s):
    # the window's product alone, whatever the levels before it
    window = [shift.seq.delta2_exact(i) for i in range(k, k + s)]
    return math.prod(window, start=Fraction(1))


def ref_q(shift, k, s):
    try:
        return float(ref_q_exact(shift, k, s))
    except OverflowError:
        return math.inf


def ref_bq(shift, k, q):
    return float(sum((-1) ** s * math.comb(q, s) * ref_q_exact(shift, k, s)
                     for s in range(q + 1)))


def _per_key(basis, cols, keys, value):
    flat = np.ravel_multi_index(keys, (basis.N + 1,) * len(keys))
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    reps = cols[first]
    return [value(tuple(basis.exponents[c].tolist())) for c in reps], inverse, reps


def reference_expected_interior(shift, kind, basis, interior):
    expected = np.zeros((interior, interior))
    cols = np.arange(interior)
    levels = basis.levels[:interior]
    exps = basis.exponents[:interior]
    op = kind[0]
    if op in ("q_power", "bq"):
        diag = ref_q if op == "q_power" else ref_bq
        per_level = np.array([diag(shift, k, kind[1]) for k in range(levels[-1] + 1)])
        expected[cols, cols] = per_level[levels]
    elif op == "self_comm":
        j = kind[1]
        coeffs, inverse, _ = _per_key(basis, cols, (levels, exps[:, j - 1]),
                                      lambda n: ref_self_comm(shift, j, n))
        expected[cols, cols] = np.array(coeffs)[inverse]
    elif op == "cross_comm":
        j, l = kind[1], kind[2]
        found, inverse, reps = _per_key(basis, cols, (levels, exps[:, j - 1], exps[:, l - 1]),
                                        lambda n: ref_cross_comm(shift, j, l, n))
        below = np.full(basis.dimension, -1)
        lifted = np.flatnonzero(basis.up[j - 1] >= 0)
        below[basis.up[j - 1, lifted]] = lifted
        src = below[:interior]
        rows = np.where(src >= 0, basis.up[l - 1, src], -1)
        for rep, (_, target) in zip(reps, found):
            if target is not None:
                rows[rep] = row(basis, target)
        hit = np.array([target is not None for _, target in found])[inverse] & (rows >= 0)
        coeffs = np.array([coeff for coeff, _ in found])[inverse]
        expected[rows[hit], cols[hit]] = coeffs[hit]
    return expected


def suite_kinds(m):
    kinds = [("self_comm", j) for j in range(1, m + 1)]
    kinds += [("cross_comm", j, l) for j in range(1, m + 1) for l in range(1, m + 1) if j != l]
    return kinds + [("q_power", s) for s in range(4)] + [("bq", q) for q in range(1, 4)]


class TestLevelWiseForms:
    @pytest.mark.parametrize("m,N", [(2, 8), (3, 7), (4, 5)])
    def test_expected_interior_matches_per_key_reference(self, m, N):
        basis = build_basis(m, N)
        for label, seq in default_suite(m):
            shift = SphericalShift(m, seq)
            for kind in suite_kinds(m):
                kmax = N - truncation.required_margin(kind)
                interior = basis.bounds[kmax + 1]
                rows, values = truncation._expected_interior(shift, kind, basis, kmax)
                cols = np.arange(interior)
                rows = cols if rows is None else rows
                got = np.zeros((interior, interior))
                got[rows[rows >= 0], cols[rows >= 0]] = values[rows >= 0]
                want = reference_expected_interior(shift, kind, basis, interior)
                assert np.array_equal(got, want), (label, kind)
            for j in range(1, m + 1):
                cols = np.flatnonzero(basis.up[j - 1] >= 0)
                want = [ref_weight(shift, j, tuple(basis.exponents[c].tolist())) for c in cols]
                assert np.array_equal(shift.weights(j, basis.exponents[cols]), want), (label, j)

    @pytest.mark.parametrize("m", [2, 3])
    def test_per_index_views_match_reference(self, m):
        for label, seq in default_suite(m) + [("float-constant", ConstantDelta(0.5)),
                                              ("float-hp", HpSpace(m, 2.5))]:
            shift = SphericalShift(m, seq)
            for k in range(7):
                for n in enumerate_level(m, k).tolist():
                    assert shift.weight(1, n) == ref_weight(shift, 1, n), (label, n)
                    assert shift.self_comm_coeff(m, n) == ref_self_comm(shift, m, n), (label, n)
                    assert shift.cross_comm_coeff(1, 2, n) == ref_cross_comm(shift, 1, 2, n)
                for s in range(5):
                    assert shift.q_diag(k, s) == ref_q(shift, k, s), (label, k, s)
                for q in range(1, 5):
                    assert shift.bq_diag(k, q) == ref_bq(shift, k, q), (label, k, q)

    def test_mixed_table_is_exact_per_window(self):
        # delta2(2) is the float 0.75: the windows that read it hold its binary value
        seq = Tabulated([Fraction(1, 2), Fraction(2, 3), 0.75, Fraction(4, 5)], tail="hold")
        shift = SphericalShift(2, seq)
        assert shift.q_diags(2, [0])[0] == float(Fraction(1, 3))
        assert shift.q_diags(1, [3])[0] == float(Fraction(4, 5))
        assert shift.bq_diags(2, [3])[0] == float(1 - 2 * Fraction(4, 5) + Fraction(4, 5) ** 2)
        assert ref_q_exact(shift, 0, 3) == Fraction(1, 4)
        assert ref_q_exact(shift, 3, 2) == Fraction(16, 25)
        assert shift.q_diags(3, [0])[0] == 0.25
        for k in range(4):
            for s in range(3):
                assert shift.q_diag(k, s) == ref_q(shift, k, s)
            assert shift.bq_diag(k, 2) == ref_bq(shift, k, 2)
            for n in enumerate_level(2, k):
                assert shift.self_comm_coeff(1, n) == ref_self_comm(shift, 1, n)

    def test_oracle_reads_each_level_once_and_no_per_index_form(self, monkeypatch):
        calls = Counter()
        for name in ("weight", "q_diag", "bq_diag", "self_comm_coeff", "cross_comm_coeff"):
            def counted(*args, _name=name, **kwargs):
                calls[_name] += 1
            monkeypatch.setattr(SphericalShift, name, counted)
        for label, seq in default_suite(3):
            levels = Counter()
            exact = seq.delta2_exact

            def counting(k, _exact=exact, _levels=levels):
                _levels[k] += 1
                return _exact(k)

            seq.delta2_exact = counting
            rows = oracle_suite(SphericalShift(3, seq), N=7)
            assert all(r["pass"] for r in rows), label
            assert levels and max(levels.values()) == 1, (label, levels)
        assert calls == Counter()

    def test_cross_targets_come_from_the_closed_form(self):
        shift = szego(3)
        exps = np.array([[1, 1, 0], [0, 2, 1], [2, 0, 3]])
        coeffs, targets = shift.cross_comm_coeffs(1, 3, exps)
        assert targets.tolist() == [[0, 1, 1], [-1, -1, -1], [1, 0, 4]]
        assert coeffs[1] == 0.0

    def test_families_share_one_read_only_basis(self, monkeypatch):
        built = []

        def counting(m, N):
            built.append((m, N))
            return build_basis(m, N)

        # cli.cmd_verify imports build_basis from truncation when it runs
        monkeypatch.setattr(truncation, "build_basis", counting)
        code = cli.main(["verify", "--m", "2", "--N", "5", "--out", os.devnull])
        assert code == 0 and built == [(2, 5)]
        with pytest.raises(ValueError):
            build_basis(3, 5).levels[0] = 1
        with pytest.raises(ValueError):
            oracle_suite(szego(2), N=5, basis=build_basis(2, 4))

    def test_rows_of_inverts_the_enumeration(self):
        basis = build_basis(3, 6)
        assert basis.rows_of(basis.exponents).tolist() == list(range(basis.dimension))


class TestRoundingBound:
    # every (m, N) the benchmark's verify requests use, and analyze's default N = 10
    SIZES = VERIFY_SIZES + [(3, 10)]

    @pytest.mark.parametrize("m,N", SIZES)
    def test_bound_stays_below_default_tol_on_the_suite(self, m, N):
        basis = build_basis(m, N)
        for label, seq in default_suite(m):
            shift = SphericalShift(m, seq)
            ts = build_tuple_matrices(shift, basis)
            powers = truncation.q_powers(ts, 3)
            for kind in suite_kinds(m):
                stop = basis.bounds[N - truncation.required_margin(kind) + 1]
                bound = truncation.rounding_bound(shift, kind, N, ts, powers)
                assert bound.shape == (stop,) and np.all(bound < 1e-10), (label, kind)

    @pytest.mark.parametrize("m,N", VERIFY_SIZES + [(3, 10), (4, 10), (6, 10), (8, 10)])
    def test_the_bound_alone_passes_every_row(self, m, N):
        # tol = 5e-324 leaves every nonzero deviation to the per-entry bound
        basis = truncation.suite_basis(m, N)
        tiny_p = [(f"hp p={p}", HpSpace(m, p)) for p in ("1e-300", "1e-100")]
        for label, seq in default_suite(m) + tiny_p:
            rows = oracle_suite(SphericalShift(m, seq), N, tol=5e-324, basis=basis)
            assert [r["kind"] for r in rows if not r["pass"]] == [], (label, m, N)

    def test_snapshot_error_is_counted(self):
        # Horner's rule cancels in S(1) = 1 - 1.999 + 1, so the float delta2
        # is about 990 ulps off; a count without eps fails every nonzero row
        seq = PolynomialGamma([1, "-1.999", 1])
        assert 900 < seq.float_snapshot_error(9) / 2.0 ** -53 < 1100
        for m in (2, 3, 4):
            rows = oracle_suite(SphericalShift(m, seq), 10, tol=5e-324)
            assert max(r["max_deviation"] for r in rows) > 1e-10
            assert all(r["pass"] for r in rows), (m, [r for r in rows if not r["pass"]])

    def test_tiny_p_passes_on_rounding_alone(self):
        rows = oracle_suite(SphericalShift(2, HpSpace(2, "1e-300")), N=10, tol=1e-10)
        assert max(r["max_deviation"] for r in rows) > 1e280
        assert all(r["pass"] for r in rows), rows

    def test_each_row_takes_its_deviations_once(self, monkeypatch):
        # the rounding allowance reuses the per-level deviations of the row
        kinds = []
        original = truncation._deviation

        def counted(shift, kind, *args):
            kinds.append(truncation._label(kind))
            return original(shift, kind, *args)

        monkeypatch.setattr(truncation, "_deviation", counted)
        rows = oracle_suite(SphericalShift(2, HpSpace(2, "1e-300")), N=10, tol=1e-10)
        assert sum(r["max_deviation"] > 1e-10 for r in rows) == 8
        assert kinds == [r["kind"] for r in rows]

    def test_zero_tol_turns_the_allowance_off(self):
        rows = oracle_suite(SphericalShift(2, HpSpace(2, "1e-300")), N=10, tol=0.0)
        assert not rows[0]["pass"]

    @pytest.mark.parametrize("planted,n0", [(("self_comm", 1), (0, 0)),
                                            (("self_comm", 1), (2, 0)),
                                            (("cross_comm", 1, 2), (1, 0)),
                                            (("cross_comm", 2, 1), (2, 1)),
                                            (("q_power", 2), (0, 0)),
                                            (("bq", 1), (2, 3))])
    def test_relative_defect_on_tiny_p_is_caught(self, planted, n0, monkeypatch):
        original = truncation._expected_interior

        def perturbed(shift, kind, basis, kmax):
            rows, values = original(shift, kind, basis, kmax)
            if kind == planted:
                col = row(basis, n0)
                assert values[col] != 0.0 and (rows is None or rows[col] >= 0)
                values[col] *= 1 + 1e-6
            return rows, values

        monkeypatch.setattr(truncation, "_expected_interior", perturbed)
        rows = oracle_suite(SphericalShift(2, HpSpace(2, "1e-300")), N=10, tol=1e-10)
        assert [r["kind"] for r in rows if not r["pass"]] == ["/".join(map(str, planted))]

    @pytest.mark.parametrize("planted", [("self_comm", 1), ("cross_comm", 1, 2), ("q_power", 2),
                                         ("bq", 1)])
    def test_relative_defect_of_1e12_at_m8_is_caught(self, planted, monkeypatch):
        # the bound is a few ulps of each entry's terms, not a count over dim
        original = truncation._expected_interior

        def perturbed(shift, kind, basis, kmax):
            rows, values = original(shift, kind, basis, kmax)
            if kind == planted:
                values[np.argmax(np.abs(values))] *= 1 + 1e-12
            return rows, values

        monkeypatch.setattr(truncation, "_expected_interior", perturbed)
        rows = oracle_suite(SphericalShift(8, HpSpace(8, "1e-300")), N=10, tol=1e-10)
        assert [r["kind"] for r in rows if not r["pass"]] == ["/".join(map(str, planted))]

    def test_readme_states_the_rule(self):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = " ".join(readme.split())
        assert "within the rounding bound of that one entry" in text
        assert "`--tol 0` asks for exact agreement" in text


def dense_tuple(shift, basis):
    """T_1..T_m as dense dim x dim matrices: zeros with the weights scattered
    by ``basis.up``, built independently of the one-entry-per-column form."""
    mats = []
    for j in range(1, shift.m + 1):
        mat = np.zeros((basis.dimension, basis.dimension))
        cols = np.flatnonzero(basis.up[j - 1] >= 0)
        mat[basis.up[j - 1, cols], cols] = shift.weights(j, basis.exponents[cols])
        mats.append(mat)
    return mats


class TestLevelBlocks:
    @pytest.mark.parametrize("m,N", VERIFY_SIZES)
    def test_blocks_equal_dense_products_bit_for_bit(self, m, N):
        # each entry of these products has at most one nonzero term, so the
        # one-entry-per-column form must give exactly the floats of the
        # dense products
        basis = build_basis(m, N)
        for label, seq in default_suite(m):
            shift = SphericalShift(m, seq)
            ts, dense = build_tuple_matrices(shift, basis), dense_tuple(shift, basis)
            stop = basis.bounds[N]
            for j in range(m):
                for l in range(m):
                    c = commutator(ts[j].adjoint(), ts[l])
                    want = dense[j].T @ dense[l] - dense[l] @ dense[j].T
                    assert c.known == N, (label, j, l)
                    assert np.array_equal(c.matrix[:stop, :stop], want[:stop, :stop]), (label, j, l)
            x = np.eye(basis.dimension)
            for s, power in enumerate(truncation.q_powers(ts, 3)):
                if s:
                    x = sum(t.T @ x @ t for t in dense)
                stop = basis.bounds[N - s + 1]
                assert power.known == N - s + 1, (label, s)
                assert np.array_equal(power.matrix[:stop, :stop], x[:stop, :stop]), (label, s)

    def test_oracle_holds_no_dense_matrix(self):
        # one dense float64 matrix at dim C(14, 4) = 1001 is 8.0 MB
        dim = math.comb(10 + 4, 4)
        shift = SphericalShift(4, HpSpace(4, 5))
        tracemalloc.start()
        try:
            rows = oracle_suite(shift, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r["pass"] for r in rows)
        assert peak < dim * dim * 8, f"peak {peak / 1e6:.2f} MB"

    def test_builder_refuses_a_target_outside_the_next_level(self):
        basis = build_basis(2, 4)
        shift = SphericalShift(2, HpSpace(2, 3))
        col = row(basis, (1, 1))  # level 2, so T_1 must send it into level 3
        for target in (row(basis, (1, 0)), row(basis, (4, 0)), -1):
            up = basis.up.copy()
            up[0, col] = target
            tampered = dataclasses.replace(basis, up=up)
            with pytest.raises(StructuralAssumptionError):
                build_shift_matrix(shift, 1, tampered)
            with pytest.raises(StructuralAssumptionError):
                oracle_suite(shift, 4, basis=tampered)
        untouched = dataclasses.replace(basis, up=basis.up.copy())
        assert np.array_equal(build_shift_matrix(shift, 1, untouched).matrix,
                              dense_tuple(shift, basis)[0])

    def test_two_columns_sent_to_one_row_are_refused(self):
        # a target on the next level passes the builder, but T_1* would then
        # hold two entries in one column, which the form cannot hold
        basis = build_basis(2, 4)
        shift = SphericalShift(2, HpSpace(2, 3))
        up = basis.up.copy()
        up[0, row(basis, (0, 2))] = row(basis, (2, 1))  # where T_1 sends (1, 1)
        tampered = dataclasses.replace(basis, up=up)
        t1 = build_shift_matrix(shift, 1, tampered)
        with pytest.raises(StructuralAssumptionError, match="two entries in column"):
            t1.adjoint()
        with pytest.raises(StructuralAssumptionError):
            oracle_suite(shift, 4, basis=tampered)

    def test_terms_on_different_rows_are_refused(self):
        basis = build_basis(2, 4)
        t1, t2 = build_tuple_matrices(SphericalShift(2, HpSpace(2, 3)), basis)
        with pytest.raises(StructuralAssumptionError, match="different rows in one column"):
            truncation._sum([t1, t2], (1, 1), "T_1 + T_2")
