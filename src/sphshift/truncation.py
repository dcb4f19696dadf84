"""Brute-force finite sections: dense matrices of the tuple on |n| <= N.

This module is the independent oracle for every closed form in
``shift``: it builds T_1..T_m as explicit matrices from the weights alone,
forms adjoints, commutators and the iterated positive map by matrix
arithmetic, and compares entrywise on interior indices.

Q^s(I) comes from the recursion X_s = sum_i T_i^T X_{s-1} T_i, which is
the definition of the positive map Q_T(X) = sum_i T_i* X T_i; one suite
computes X_0..X_3 once and forms every defect operator from them. The
closed forms are evaluated once per distinct input they read (the level
k, and the components n_j, n_l the formula uses) through the per-index
``SphericalShift`` methods, then broadcast over the basis index arrays,
so every interior entry is still compared.

Hard truncation drops images above degree N, so an operator assembled
from s factors of the tuple is only trustworthy on columns with
|n| <= N - s; that is the margin discipline enforced here. All compared
operators preserve the degree level, which is also why their gram matrices
C*C are diagonal and yield singular values without any factorization
library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .multiindex import enumerate_level
from .shift import SphericalShift


class StructuralAssumptionError(Exception):
    """The operator under test does not have the promised shift structure."""


@dataclass(frozen=True, eq=False)
class Basis:
    """Orthonormal basis {e_n : |n| <= N}, levels concatenated in order.

    The index arrays are built once: ``exponents[c]`` is the multi-index
    of column c, ``levels[c]`` its degree and ``up[j-1, c]`` the row of
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
    return Basis(m=m, N=N, indices=tuple(indices), offsets=tuple(offsets), rows=rows,
                 exponents=exponents, levels=exponents.sum(axis=1), up=up)


def _per_key(basis: Basis, cols: np.ndarray, keys: Sequence[np.ndarray], value: Callable):
    """value(n) for the multi-index n of each column in cols, called once
    per distinct tuple of ``keys`` values (the inputs the formula reads,
    one array per input) on the first column that has it.

    Returns (values, inverse, reps): column cols[i] takes values[inverse[i]],
    and reps are the columns the values were evaluated at.
    """
    flat = np.ravel_multi_index(keys, (basis.N + 1,) * len(keys))
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    reps = cols[first]
    return [value(basis.indices[c]) for c in reps], inverse, reps


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
    weights, inverse, _ = _per_key(basis, cols, (basis.levels[cols], basis.exponents[cols, j - 1]),
                                   lambda n: shift.weight(j, n))
    mat[basis.up[j - 1, cols], cols] = np.array(weights)[inverse]
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
    levels = basis.levels[:interior]
    exps = basis.exponents[:interior]
    op = kind[0]
    if op in ("q_power", "bq"):
        diag = shift.q_diag if op == "q_power" else shift.bq_diag
        per_level = np.array([diag(k, kind[1]) for k in range(levels[-1] + 1)])
        expected[cols, cols] = per_level[levels]
    elif op == "self_comm":
        j = kind[1]
        coeffs, inverse, _ = _per_key(basis, cols, (levels, exps[:, j - 1]),
                                      lambda n: shift.self_comm_coeff(j, n))
        expected[cols, cols] = np.array(coeffs)[inverse]
    elif op == "cross_comm":
        j, l = kind[1], kind[2]
        found, inverse, reps = _per_key(basis, cols, (levels, exps[:, j - 1], exps[:, l - 1]),
                                        lambda n: shift.cross_comm_coeff(j, l, n))
        # rows of n - e_j + e_l, where T_j^* T_l sends e_n; -1 when n_j = 0
        below = np.full(basis.dimension, -1)
        lifted = np.flatnonzero(basis.up[j - 1] >= 0)
        below[basis.up[j - 1, lifted]] = lifted
        src = below[:interior]
        rows = np.where(src >= 0, basis.up[l - 1, src], -1)
        # the closed form's own target at the column it was evaluated on
        for rep, (_, target) in zip(reps, found):
            if target is not None:
                rows[rep] = basis.index_of(target)
        hit = np.array([target is not None for _, target in found])[inverse] & (rows >= 0)
        coeffs = np.array([coeff for coeff, _ in found])[inverse]
        expected[rows[hit], cols[hit]] = coeffs[hit]
    return expected


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
    return float(np.max(np.abs(deviation, out=deviation)))


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


def oracle_suite(shift: SphericalShift, N: int, tol: float = 1e-10) -> list:
    """Run every comparison kind for one shift; returns a list of dicts
    {kind, margin, max_deviation, pass}."""
    basis = build_basis(shift.m, N)
    ts = build_tuple_matrices(shift, basis)
    results = []

    def record(kind, margin, powers=None):
        dev = compare_with_closed_form(shift, kind, N, margin, ts=ts, powers=powers)
        results.append(
            {
                "kind": "/".join(str(x) for x in kind),
                "margin": margin,
                "max_deviation": dev,
                "pass": bool(dev <= tol),
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
