"""Brute-force finite sections: dense matrices of the tuple on |n| <= N.

This module is the independent oracle for every closed form in
``shift``: it builds T_1..T_m as explicit matrices from the weights alone,
forms adjoints, commutators and the iterated positive map by matrix
arithmetic, and compares entrywise on interior indices.

Q^s(I) comes from the recursion X_s = sum_i T_i^T X_{s-1} T_i, which is
the definition of the positive map Q_T(X) = sum_i T_i* X T_i; one suite
computes X_0..X_3 once and forms every defect operator from them. The
closed forms come from the level-wise forms of ``SphericalShift``, which
evaluate each formula once per degree level, over the basis index arrays,
so every interior entry is still compared. A cross-commutator entry is
placed at the target the closed form names, looked up in the basis.

Hard truncation drops images above degree N, so an operator assembled
from s factors of the tuple is only trustworthy on columns with
|n| <= N - s; that is the margin discipline enforced here. All compared
operators preserve the degree level, which is also why their gram matrices
C*C are diagonal and yield singular values without any factorization
library.

A comparison passes when every interior entry is within ``tol`` of the
closed form, or within the forward rounding bound of the dense side:
``rounding_bound`` gives, for each column, the number of floating-point
terms behind each entry times the unit roundoff times the largest
magnitude those terms reach on the column's degree level. Entries near
1e300 (hp with a tiny p) are then judged relative to their size, while
on every ``default_suite`` input the bound stays below 1e-10. A zero
``tol`` asks for exact agreement and turns the rounding allowance off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .multiindex import enumerate_level
from .shift import SphericalShift


class StructuralAssumptionError(Exception):
    """The operator under test does not have the promised shift structure."""


@dataclass(frozen=True, eq=False)
class Basis:
    """Orthonormal basis {e_n : |n| <= N}, levels concatenated in order.

    The index arrays are built once and are read-only, so one basis serves
    every shift of the same (m, N): ``exponents[c]`` is the multi-index of
    column c, ``levels[c]`` its degree and ``up[j-1, c]`` the row of
    n + e_j, or -1 on the top level, where hard truncation drops it.
    """

    m: int
    N: int
    indices: tuple = field(repr=False)
    offsets: tuple = field(repr=False)  # offsets[k] = first row of level k
    rows: dict = field(repr=False)  # multi-index -> row
    exponents: np.ndarray = field(repr=False)
    levels: np.ndarray = field(repr=False)
    up: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return len(self.indices)

    def index_of(self, n) -> int:
        return self.rows[tuple(n)]

    def rows_of(self, exps) -> np.ndarray:
        """Rows of the multi-indices in ``exps``, one per row of the array."""
        return np.array([self.rows[n] for n in map(tuple, np.asarray(exps).tolist())],
                        dtype=np.intp)

    def level_slice(self, k: int) -> slice:
        end = self.offsets[k + 1] if k + 1 < len(self.offsets) else self.dimension
        return slice(self.offsets[k], end)


def build_basis(m: int, N: int) -> Basis:
    if N < 0:
        raise ValueError("maximum degree N must be >= 0")
    indices = []
    offsets = []
    for k in range(N + 1):
        offsets.append(len(indices))
        indices.extend(enumerate_level(m, k))
    dim = len(indices)
    assert dim == math.comb(N + m, m)
    rows = {n: c for c, n in enumerate(indices)}
    up = np.full((m, dim), -1, dtype=np.intp)
    for c, n in enumerate(indices[: offsets[N]]):
        for j in range(m):
            up[j, c] = rows[n[:j] + (n[j] + 1,) + n[j + 1:]]
    exponents = np.array(indices, dtype=np.intp).reshape(dim, m)
    levels = exponents.sum(axis=1)
    for arr in (exponents, levels, up):
        arr.flags.writeable = False
    return Basis(m=m, N=N, indices=tuple(indices), offsets=tuple(offsets), rows=rows,
                 exponents=exponents, levels=levels, up=up)


@dataclass
class DenseOperator:
    matrix: np.ndarray
    basis: Basis
    provenance: str

    def adjoint(self) -> "DenseOperator":
        return DenseOperator(self.matrix.T.copy(), self.basis, f"adjoint({self.provenance})")

    def restrict_to_levels(self, kmax: int) -> np.ndarray:
        """Principal sub-block on basis indices with |n| <= kmax."""
        stop = self.basis.level_slice(kmax).stop
        return self.matrix[:stop, :stop]


def build_shift_matrix(shift: SphericalShift, j: int, basis: Basis) -> DenseOperator:
    """Matrix of T_j: entry w_j(n) at (row of n+eps_j, column of n) for
    |n| < N; columns at the top level are zero (hard truncation)."""
    if shift.m != basis.m:
        raise ValueError("shift and basis arity mismatch")
    if not 1 <= j <= basis.m:
        raise ValueError(f"axis {j} out of range for arity {basis.m}")
    dim = basis.dimension
    mat = np.zeros((dim, dim))
    cols = np.flatnonzero(basis.up[j - 1] >= 0)
    mat[basis.up[j - 1, cols], cols] = shift.weights(j, basis.exponents[cols])
    return DenseOperator(mat, basis, f"shift-matrix T_{j}")


def build_tuple_matrices(shift: SphericalShift, basis: Basis) -> list:
    return [build_shift_matrix(shift, j, basis) for j in range(1, shift.m + 1)]


def commutator(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    if a.matrix.shape != b.matrix.shape:
        raise ValueError(
            f"dimension mismatch: {a.matrix.shape} vs {b.matrix.shape}"
        )
    mat = a.matrix @ b.matrix - b.matrix @ a.matrix
    return DenseOperator(mat, a.basis, f"[{a.provenance}, {b.provenance}]")


def q_powers(ts: Sequence[DenseOperator], smax: int) -> list:
    """[Q^0(I), ..., Q^smax(I)] as arrays, from the shift matrices by the
    recursion X_s = sum_i T_i^T X_{s-1} T_i that defines Q_T."""
    if smax < 0:
        raise ValueError("power k must be >= 0")
    powers = [np.eye(ts[0].matrix.shape[0])]
    for _ in range(smax):
        x = np.zeros_like(powers[-1])
        for t in ts:
            x += t.matrix.T @ powers[-1] @ t.matrix
        powers.append(x)
    return powers


def _defect(powers: Sequence[np.ndarray], q: int) -> np.ndarray:
    """sum_s (-1)^s C(q,s) Q^s(I) from the powers s = 0..q."""
    out = powers[0].copy()
    for s in range(1, q + 1):
        out += (-1) ** s * math.comb(q, s) * powers[s]
    return out


def q_power_bruteforce(ts: Sequence[DenseOperator], k: int) -> DenseOperator:
    """Q^k(I), which equals sum over |alpha| = k of (k!/alpha!)
    (T^alpha)* T^alpha, from the shift matrices by the recursion."""
    return DenseOperator(q_powers(ts, k)[k], ts[0].basis, f"q-power {k}")


def bq_bruteforce(ts: Sequence[DenseOperator], q: int) -> DenseOperator:
    """Order-q defect operator sum_s (-1)^s C(q,s) Q^s(I) from matrices."""
    if q < 1:
        raise ValueError("order q must be >= 1")
    return DenseOperator(_defect(q_powers(ts, q), q), ts[0].basis, f"bq-defect {q}")


def required_margin(kind: Tuple) -> int:
    op = kind[0]
    if op in ("self_comm", "cross_comm"):
        return 1
    if op == "q_power" and kind[1] >= 0:
        return kind[1]
    if op == "bq" and kind[1] >= 1:
        return kind[1]
    raise ValueError(f"unknown comparison kind {kind!r}")


def _expected_interior(shift: SphericalShift, kind: Tuple, basis: Basis,
                       interior: int) -> np.ndarray:
    """The closed form of ``kind`` on the first ``interior`` basis vectors."""
    expected = np.zeros((interior, interior))
    cols = np.arange(interior)
    exps = basis.exponents[:interior]
    op = kind[0]
    if op == "q_power":
        expected[cols, cols] = shift.q_diags(kind[1], basis.levels[:interior])
    elif op == "bq":
        expected[cols, cols] = shift.bq_diags(kind[1], basis.levels[:interior])
    elif op == "self_comm":
        expected[cols, cols] = shift.self_comm_coeffs(kind[1], exps)
    elif op == "cross_comm":
        coeffs, targets = shift.cross_comm_coeffs(kind[1], kind[2], exps)
        hit = targets[:, 0] >= 0  # T_j^* T_l sends e_n nowhere when n_j = 0
        expected[basis.rows_of(targets[hit]), cols[hit]] = coeffs[hit]
    return expected


def _deviation(shift, kind, N, margin, ts, powers):
    """|closed form - matrix entry| on the interior block |n| <= N - margin,
    with the shift matrices and Q^s(I) powers it was computed from."""
    need = required_margin(kind)
    margin = need if margin is None else margin
    if margin < need:
        raise ValueError(f"margin {margin} too small for kind {kind!r}; need >= {need}")
    if margin > N:
        raise ValueError(f"margin {margin} exceeds truncation degree {N}")
    basis = build_basis(shift.m, N) if ts is None else ts[0].basis
    if ts is None:
        ts = build_tuple_matrices(shift, basis)

    op = kind[0]
    if op == "self_comm":
        j = kind[1]
        built = commutator(ts[j - 1].adjoint(), ts[j - 1]).matrix
    elif op == "cross_comm":
        j, l = kind[1], kind[2]
        built = commutator(ts[j - 1].adjoint(), ts[l - 1]).matrix
    else:
        s = kind[1]
        if powers is None:
            powers = q_powers(ts, s)
        built = powers[s] if op == "q_power" else _defect(powers, s)

    interior = basis.level_slice(N - margin).stop
    deviation = _expected_interior(shift, kind, basis, interior)
    deviation -= built[:interior, :interior]
    return np.abs(deviation, out=deviation), ts, powers


def compare_with_closed_form(
    shift: SphericalShift,
    kind: Tuple,
    N: int,
    margin: Optional[int] = None,
    ts: Optional[Sequence[DenseOperator]] = None,
    powers: Optional[Sequence[np.ndarray]] = None,
) -> float:
    """Max absolute deviation |matrix entry - closed form| over the interior
    block |n| <= N - margin.

    kind is ("self_comm", j), ("cross_comm", j, l), ("q_power", k) or
    ("bq", q). The margin must cover the operator's reach; boundary rows
    are never compared. ``powers`` are Q^s(I) from ``q_powers(ts, s)`` for
    s up to at least the order of a q_power or bq kind, so one suite
    shares them across kinds.
    """
    return float(np.max(_deviation(shift, kind, N, margin, ts, powers)[0]))


_U = 2.0 ** -53  # unit roundoff of float64


def rounding_bound(kind: Tuple, ts: Sequence[DenseOperator],
                   powers: Optional[Sequence[np.ndarray]], interior: int) -> np.ndarray:
    """Forward rounding bound of the dense entries of ``kind``, one per
    column of the first ``interior`` basis vectors.

    gamma_n = n u / (1 - n u), for n the floating-point terms behind one
    entry, times the largest magnitude those terms reach on the column's
    degree level (every compared operator preserves the level):
      * [T_j*, T_l]: two products of inner length dim and one subtraction,
        n = dim + 1; by Cauchy-Schwarz a term of T_j^T T_l is at most the
        product of column norms of T_j and T_l, a term of T_l T_j^T the
        product of their row norms;
      * Q^s(I): s steps of sum_i T_i^T X T_i over nonnegative terms,
        n = s (2 dim + m), magnitude the entries of Q^s(I) themselves;
      * the order-q defect: n = q (2 dim + m) + q + 1, magnitude
        sum_s C(q,s) |Q^s(I)|.
    """
    basis = ts[0].basis
    dim, m = basis.dimension, basis.m
    levels = basis.levels[:interior]
    starts = np.asarray(basis.offsets[: levels[-1] + 1])

    def level_max(per_column):
        return np.maximum.reduceat(per_column[:interior], starts)[levels]

    op = kind[0]
    if op in ("self_comm", "cross_comm"):
        a, b = ts[kind[1] - 1].matrix, ts[kind[-1] - 1].matrix
        col_a, col_b = np.sqrt((a * a).sum(axis=0)), np.sqrt((b * b).sum(axis=0))
        row_a, row_b = np.sqrt((a * a).sum(axis=1)), np.sqrt((b * b).sum(axis=1))
        terms = dim + 1
        magnitude = level_max(col_a) * level_max(col_b) + level_max(row_b) * level_max(row_a)
    else:
        q = kind[1]
        total = sum(math.comb(q, s) * np.abs(powers[s][:interior, :interior])
                    for s in (range(q + 1) if op == "bq" else (q,)))
        terms = q * (2 * dim + m) + (q + 1 if op == "bq" else 0)
        magnitude = level_max(total.max(axis=0))
    return terms * _U / (1.0 - terms * _U) * magnitude


def _within_rounding(shift, kind, N, margin, ts, powers, tol) -> bool:
    """Every interior entry within tol or within its column's rounding bound."""
    deviation, ts, powers = _deviation(shift, kind, N, margin, ts, powers)
    interior = deviation.shape[0]
    allowed = np.maximum(tol, rounding_bound(kind, ts, powers, interior))
    return bool(np.all(deviation <= allowed))


def gram_diagonal_singular_values(c: DenseOperator, tol: float = 1e-10) -> np.ndarray:
    """Singular values of C via the diagonal of C*C, sorted ascending.

    Requires C*C to be diagonal up to ``tol``; the operators produced by
    the closed forms here send basis vectors to multiples of distinct basis
    vectors, so a violation means the structural assumption failed and is
    reported, never papered over with a general SVD.
    """
    gram = c.matrix.T @ c.matrix
    off = gram - np.diag(np.diag(gram))
    worst = float(np.max(np.abs(off))) if off.size else 0.0
    if worst > tol:
        raise StructuralAssumptionError(
            f"C*C has off-diagonal magnitude {worst:.3e} > {tol:.1e} for "
            f"{c.provenance}; not a shift-structured operator"
        )
    diag = np.clip(np.diag(gram), 0.0, None)
    return np.sort(np.sqrt(diag))


def schatten_power_sum(c: DenseOperator, p: float, kmax: Optional[int] = None) -> float:
    """sum of sigma^p over the singular values of C, optionally restricted
    to the interior levels |n| <= kmax."""
    if kmax is not None:
        sub = DenseOperator(c.restrict_to_levels(kmax).copy(), c.basis, c.provenance)
        svals = gram_diagonal_singular_values(sub)
    else:
        svals = gram_diagonal_singular_values(c)
    return float(np.sum(svals ** p))


def oracle_suite(shift: SphericalShift, N: int, tol: float = 1e-10,
                 basis: Optional[Basis] = None) -> list:
    """Run every comparison kind for one shift; returns a list of dicts
    {kind, margin, max_deviation, pass}. ``basis`` is ``build_basis(m, N)``,
    built here when not given, so the shifts of one suite can share one."""
    if basis is None:
        basis = build_basis(shift.m, N)
    elif (basis.m, basis.N) != (shift.m, N):
        raise ValueError(f"basis is for (m, N) = ({basis.m}, {basis.N}), not ({shift.m}, {N})")
    ts = build_tuple_matrices(shift, basis)
    results = []

    def record(kind, margin, powers=None):
        dev = compare_with_closed_form(shift, kind, N, margin, ts=ts, powers=powers)
        # tol = 0 asks for exact agreement, which no rounding allowance may relax
        ok = dev <= tol or (tol > 0 and _within_rounding(shift, kind, N, margin, ts, powers, tol))
        results.append(
            {
                "kind": "/".join(str(x) for x in kind),
                "margin": margin,
                "max_deviation": dev,
                "pass": bool(ok),
            }
        )

    for j in range(1, shift.m + 1):
        record(("self_comm", j), 1)
    for j in range(1, shift.m + 1):
        for l in range(1, shift.m + 1):
            if j != l:
                record(("cross_comm", j, l), 1)
    # after the commutators, so their products and the powers are not held together
    powers = q_powers(ts, 3)
    for k in range(0, 4):
        record(("q_power", k), k, powers)
    for q in range(1, 4):
        record(("bq", q), q, powers)
    return results
