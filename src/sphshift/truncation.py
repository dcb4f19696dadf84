"""Brute-force finite sections: the tuple on |n| <= N, held as level blocks.

The independent oracle for every closed form in ``shift``: T_1..T_m are
built from the weights alone, and adjoints, commutators and the iterated
positive map come from matrix arithmetic. T_i maps the degree level
{|n| = k} into level k+1, so it is held as its blocks B_i[k] of shape
(n_{k+1}, n_k), and so is every operator formed from it
(``LevelOperator``); the compared operators preserve the level, one square
block each, and no dim x dim array is formed. A row or column of T_i holds
at most one weight, so each entry of these products has at most one
nonzero term, and the blocks give the floats dense products give.

Q^s(I) comes from the recursion X_s[k] = sum_i B_i[k]^T X_{s-1}[k+1] B_i[k],
the definition of Q_T(X) = sum_i T_i* X T_i, once per suite for s <= 3.
Each closed form (the level-wise forms of ``SphericalShift``) is compared
on every interior entry; hard truncation drops images above degree N, so
an operator assembled from s factors is only trusted on |n| <= N - s, and
a product is held only on the levels where its factors are known. A row
passes when every entry is within ``tol`` of the closed form, or within
``rounding_bound`` of the matrix products, which judges entries near 1e300
(hp with a tiny p) relative to their size and stays below 1e-10 on every
``default_suite`` input; a zero ``tol`` asks for exact agreement.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from typing import Optional, Sequence, Tuple

import numpy as np

from .multiindex import enumerate_level
from .scalarseq import VerificationError
from .shift import SphericalShift


class StructuralAssumptionError(VerificationError):
    """The operator under test does not have the promised shift structure."""


@dataclass(frozen=True, eq=False)
class Basis:
    """Orthonormal basis {e_n : |n| <= N}, levels concatenated in order.

    The index arrays are built once and are read-only, so one basis serves
    every shift of the same (m, N): ``exponents[c]`` is the multi-index of
    column c, ``levels[c]`` its degree and ``up[j-1, c]`` the row of
    n + e_j, or -1 on the top level, where hard truncation drops it. Level
    k is rows ``bounds[k]:bounds[k+1]``, n_k = ``sizes[k]`` of them. Laid
    row-major one after another, the square level blocks start at
    ``squares[k]`` and put entry (c, c) at ``diagonal[c]``.
    """

    m: int
    N: int
    indices: tuple = field(repr=False)
    rows: dict = field(repr=False)  # multi-index -> row
    exponents: np.ndarray = field(repr=False)
    levels: np.ndarray = field(repr=False)
    up: np.ndarray = field(repr=False)
    bounds: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    squares: np.ndarray = field(repr=False)
    diagonal: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return len(self.indices)

    def rows_of(self, exps) -> np.ndarray:
        """Rows of the multi-indices in ``exps``, one per row of the array."""
        return np.array([self.rows[n] for n in map(tuple, np.asarray(exps).tolist())],
                        dtype=np.intp)

    def level_slice(self, k: int) -> slice:
        return slice(int(self.bounds[k]), int(self.bounds[k + 1]))

    def level_size(self, k: int) -> int:
        """n_k, the number of basis vectors of degree k; 0 outside 0..N."""
        return int(self.sizes[k]) if 0 <= k <= self.N else 0


ORACLE_BYTES = 1 << 30  # the largest tuple of level blocks the oracle builds


def level_block_bytes(m: int, N: int) -> int:
    """8 m sum_{k<N} n_{k+1} n_k with n_k = C(k+m-1, m-1): the float64
    bytes of the level blocks of T_1..T_m on |n| <= N. The sum is a
    polynomial of degree 2m - 1 in N, so it is read off its values at
    N = 0..2m - 1 by Newton's forward differences, in O(m^2) steps for any N."""
    sums = list(accumulate((math.comb(k + m, m - 1) * math.comb(k + m - 1, m - 1)
                            for k in range(2 * m - 1)), initial=0))
    total = 0
    for i in range(2 * m):
        total += math.comb(N, i) * sums[0]
        sums = [b - a for a, b in zip(sums, sums[1:])]
    return 8 * m * total


def build_basis(m: int, N: int) -> Basis:
    """The basis on |n| <= N; refuses, before it enumerates anything, a
    section whose tuple would hold more than ORACLE_BYTES of level blocks."""
    if N < 0:
        raise ValueError("maximum degree N must be >= 0")
    need = level_block_bytes(m, N)
    if need > ORACLE_BYTES:
        raise ValueError(f"the section m = {m}, N = {N} needs {need / 2**30:.3g} GiB of "
                         f"level blocks, beyond the oracle's {ORACLE_BYTES / 2**30:g} GiB")
    indices = []
    bounds = [0]
    for k in range(N + 1):
        indices.extend(enumerate_level(m, k))
        bounds.append(len(indices))
    dim = len(indices)
    assert dim == math.comb(N + m, m)
    rows = {n: c for c, n in enumerate(indices)}
    up = np.full((m, dim), -1, dtype=np.intp)
    for c, n in enumerate(indices[: bounds[N]]):
        for j in range(m):
            up[j, c] = rows[n[:j] + (n[j] + 1,) + n[j + 1:]]
    exponents = np.array(indices, dtype=np.intp).reshape(dim, m)
    levels = exponents.sum(axis=1)
    bounds = np.array(bounds, dtype=np.intp)
    sizes = np.diff(bounds)
    squares = np.concatenate(([0], np.cumsum(sizes * sizes)))
    diagonal = squares[levels] + (np.arange(dim) - bounds[levels]) * (sizes[levels] + 1)
    arrays = dict(exponents=exponents, levels=levels, up=up, bounds=bounds, sizes=sizes,
                  squares=squares, diagonal=diagonal)
    for arr in arrays.values():
        arr.flags.writeable = False
    return Basis(m=m, N=N, indices=tuple(indices), rows=rows, **arrays)


@dataclass
class LevelOperator:
    """An operator sending level k into level k + step, held as its blocks:
    ``blocks[k]`` has shape (n_{k+step}, n_k), no rows when k + step < 0.
    It is known on the levels 0..len(blocks)-1; hard truncation leaves the
    levels above unknown."""

    blocks: tuple
    step: int
    basis: Basis
    provenance: str

    def adjoint(self) -> "LevelOperator":
        s, size = self.step, self.basis.level_size
        blocks = tuple(self.blocks[k - s].T if k >= s else np.zeros((0, size(k)))
                       for k in range(len(self.blocks) + s))
        return LevelOperator(blocks, -s, self.basis, f"adjoint({self.provenance})")

    def restrict_to_levels(self, kmax: int) -> "LevelOperator":
        """The operator on the levels |n| <= kmax."""
        return LevelOperator(self.blocks[: kmax + 1], self.step, self.basis, self.provenance)

    @property
    def matrix(self) -> np.ndarray:
        """The dim x dim matrix, zero off the known blocks, assembled on request."""
        out, rows = np.zeros((self.basis.dimension,) * 2), self.basis.level_slice
        for k, block in enumerate(self.blocks):
            if block.size:
                out[rows(k + self.step), rows(k)] = block
        return out


def build_shift_matrix(shift: SphericalShift, j: int, basis: Basis) -> LevelOperator:
    """Blocks of T_j: entry w_j(n) at (row of n+eps_j, column of n) for
    |n| < N; the top level's images are dropped (hard truncation)."""
    if shift.m != basis.m:
        raise ValueError("shift and basis arity mismatch")
    if not 1 <= j <= basis.m:
        raise ValueError(f"axis {j} out of range for arity {basis.m}")
    bounds, sizes = basis.bounds, basis.sizes
    below = bounds[basis.N]  # the columns with |n| < N
    levels, targets = basis.levels[:below], basis.up[j - 1, :below]
    local = targets - bounds[levels + 1]  # the target's place in level k+1
    bad = np.flatnonzero((local < 0) | (local >= sizes[levels + 1]))
    if bad.size:
        raise StructuralAssumptionError(f"basis.up sends column {bad[0]} of T_{j} to row "
                                        f"{targets[bad[0]]}, outside level {levels[bad[0]] + 1}")
    # block k: the row-major n_{k+1} x n_k array at starts[k] of one buffer
    starts = np.concatenate(([0], np.cumsum(sizes[1:] * sizes[:-1])))
    flat = np.zeros(starts[-1])
    flat[starts[levels] + local * sizes[levels] + np.arange(below) - bounds[levels]] = \
        shift.weights(j, basis.exponents[:below])
    at, n = starts.tolist(), sizes.tolist()
    blocks = tuple(flat[at[k]: at[k + 1]].reshape(n[k + 1], n[k]) for k in range(basis.N))
    return LevelOperator(blocks, 1, basis, f"shift-matrix T_{j}")


def build_tuple_matrices(shift: SphericalShift, basis: Basis) -> list:
    return [build_shift_matrix(shift, j, basis) for j in range(1, shift.m + 1)]


def _product(a: LevelOperator, b: LevelOperator):
    """The blocks of a b, level by level, where both are known."""
    for k, block in enumerate(b.blocks):
        mid = k + b.step
        if mid >= len(a.blocks):
            return
        yield a.blocks[mid].dot(block) if mid >= 0 else np.zeros(
            (a.basis.level_size(mid + a.step), block.shape[1]))


def commutator(a: LevelOperator, b: LevelOperator) -> LevelOperator:
    if (a.basis.m, a.basis.N) != (b.basis.m, b.basis.N):
        raise ValueError(f"basis mismatch: {(a.basis.m, a.basis.N)} vs {(b.basis.m, b.basis.N)}")
    blocks = tuple(x - y for x, y in zip(_product(a, b), _product(b, a)))
    return LevelOperator(blocks, a.step + b.step, a.basis, f"[{a.provenance}, {b.provenance}]")


def q_powers(ts: Sequence[LevelOperator], smax: int) -> list:
    """[Q^0(I), ..., Q^smax(I)] from the shift blocks by the recursion
    X_s[k] = sum_i B_i[k]^T X_{s-1}[k+1] B_i[k] that defines Q_T; X_s is
    held on the levels it is known on, |n| <= N - s."""
    if smax < 0:
        raise ValueError("power k must be >= 0")
    basis, powers = ts[0].basis, []
    for s in range(1, smax + 1):
        prev, blocks = powers[-1].blocks if powers else None, []
        for k in range(basis.N + 1 - s):
            terms = (b.T.dot(b) if prev is None else b.T.dot(prev[k + 1]).dot(b)  # X_0 = I
                     for b in (t.blocks[k] for t in ts))
            blocks.append(reduce(operator.add, terms))
        powers.append(LevelOperator(tuple(blocks), 0, basis, f"q-power {s}"))
    eye = np.eye(basis.level_size(basis.N))  # each level's identity is a corner of it
    blocks = tuple(eye[:n, :n] for n in basis.sizes.tolist())
    return [LevelOperator(blocks, 0, basis, "q-power 0")] + powers


def _defect(powers: Sequence[np.ndarray], q: int) -> np.ndarray:
    """sum_s (-1)^s C(q,s) Q^s(I) from arrays of the powers s = 0..q."""
    out = powers[0].copy()
    for s in range(1, q + 1):
        out += (-1) ** s * math.comb(q, s) * powers[s]
    return out


def q_power_bruteforce(ts: Sequence[LevelOperator], k: int) -> LevelOperator:
    """Q^k(I), which equals sum over |alpha| = k of (k!/alpha!)
    (T^alpha)* T^alpha, from the shift blocks by the recursion."""
    return q_powers(ts, k)[k]


def bq_bruteforce(ts: Sequence[LevelOperator], q: int) -> LevelOperator:
    """Order-q defect operator sum_s (-1)^s C(q,s) Q^s(I) from the blocks."""
    if q < 1:
        raise ValueError("order q must be >= 1")
    powers = q_powers(ts, q)
    blocks = tuple(_defect([x.blocks[k] for x in powers], q) for k in range(len(powers[q].blocks)))
    return LevelOperator(blocks, 0, ts[0].basis, f"bq-defect {q}")


def required_margin(kind: Tuple) -> int:
    op = kind[0]
    if op in ("self_comm", "cross_comm"):
        return 1
    if op == "q_power" and kind[1] >= 0:
        return kind[1]
    if op == "bq" and kind[1] >= 1:
        return kind[1]
    raise ValueError(f"unknown comparison kind {kind!r}")


def _expected_interior(shift: SphericalShift, kind: Tuple, basis: Basis, kmax: int):
    """The closed form of ``kind`` on the basis vectors with |n| <= kmax as
    (rows, values): each column's one entry, row -1 where there is none.
    rows is None for a diagonal form."""
    stop, op = basis.bounds[kmax + 1], kind[0]
    if op == "self_comm":
        return None, shift.self_comm_coeffs(kind[1], basis.exponents[:stop])
    if op in ("q_power", "bq"):
        diags = shift.q_diags if op == "q_power" else shift.bq_diags
        return None, diags(kind[1], basis.levels[:stop])
    coeffs, targets = shift.cross_comm_coeffs(kind[1], kind[2], basis.exponents[:stop])
    hit = targets[:, 0] >= 0  # T_j^* T_l sends e_n nowhere when n_j = 0
    rows = np.full(stop, -1)
    rows[hit] = basis.rows_of(targets[hit])
    return rows, coeffs


def _flat(op: LevelOperator, kmax: int) -> np.ndarray:
    """A fresh array of the blocks of levels 0..kmax, row-major, in order."""
    return np.concatenate([block.ravel() for block in op.blocks[: kmax + 1]])


def _deviation(shift, kind, N, margin, ts, powers) -> np.ndarray:
    """Per level k <= N - margin, max |closed form - built entry| on the
    level's block; a power kind needs only the powers."""
    need = required_margin(kind)
    margin = need if margin is None else margin
    if margin < need:
        raise ValueError(f"margin {margin} too small for kind {kind!r}; need >= {need}")
    if margin > N:
        raise ValueError(f"margin {margin} exceeds truncation degree {N}")
    op, kmax = kind[0], N - margin
    if ts is None and (powers is None or op.endswith("comm")):
        ts = build_tuple_matrices(shift, build_basis(shift.m, N))
    basis = (ts or powers)[0].basis
    if op.endswith("comm"):
        flat = _flat(commutator(ts[kind[1] - 1].adjoint(), ts[kind[-1] - 1]), kmax)
    else:
        s = kind[1]
        powers = q_powers(ts, s) if powers is None else powers
        flat = (_flat(powers[s], kmax) if op == "q_power"
                else _defect([_flat(x, kmax) for x in powers[: s + 1]], s))

    rows, values = _expected_interior(shift, kind, basis, kmax)
    if rows is None:
        flat[basis.diagonal[: values.size]] -= values
    else:  # entry (r, c) of a level block lies (r - c) rows below (c, c)
        cols = np.flatnonzero(rows >= 0)
        rows, levels = rows[cols], basis.levels[cols]
        if (basis.levels[rows] != levels).any():
            raise StructuralAssumptionError(f"{kind!r} names a target outside its level")
        flat[basis.diagonal[cols] + (rows - cols) * basis.sizes[levels]] -= values[cols]
    return np.maximum.reduceat(np.abs(flat, out=flat), basis.squares[: kmax + 1])


def compare_with_closed_form(
    shift: SphericalShift,
    kind: Tuple,
    N: int,
    margin: Optional[int] = None,
    ts: Optional[Sequence[LevelOperator]] = None,
    powers: Optional[Sequence[LevelOperator]] = None,
) -> float:
    """Max absolute deviation |matrix entry - closed form| over the interior
    block |n| <= N - margin.

    kind is ("self_comm", j), ("cross_comm", j, l), ("q_power", k) or
    ("bq", q). The margin must cover the operator's reach; boundary rows
    are never compared. ``powers`` are Q^s(I) from ``q_powers(ts, s)`` for
    s up to at least the order of a q_power or bq kind, so one suite
    shares them across kinds.
    """
    return float(_deviation(shift, kind, N, margin, ts, powers).max())


_U = 2.0 ** -53  # unit roundoff of float64


def rounding_bound(kind: Tuple, ts: Optional[Sequence[LevelOperator]],
                   powers: Optional[Sequence[LevelOperator]], kmax: int) -> np.ndarray:
    """Forward rounding bound of the entries of ``kind``, one per degree
    level k = 0..kmax, counted as for dim x dim matrix products.

    gamma_n = n u / (1 - n u), for n the floating-point terms behind one
    entry, times the largest magnitude those terms reach on the level
    (every compared operator preserves the level):
      * [T_j*, T_l]: two products of inner length dim and one subtraction,
        n = dim + 1; by Cauchy-Schwarz a term of T_j^T T_l is at most the
        product of column norms of T_j and T_l, a term of T_l T_j^T the
        product of their row norms;
      * Q^s(I): s steps of sum_i T_i^T X T_i over nonnegative terms,
        n = s (2 dim + m), magnitude the entries of Q^s(I) themselves;
      * the order-q defect: n = q (2 dim + m) + q + 1, magnitude
        sum_s C(q,s) |Q^s(I)|.
    """
    basis = (ts or powers)[0].basis
    dim, m, op = basis.dimension, basis.m, kind[0]
    if op.endswith("comm"):
        def norms(t, axis):  # largest column (axis 0) or row (axis 1) norm per level
            out = [np.sqrt((b * b).sum(axis=axis)).max() for b in t.blocks]
            return np.array(out[: kmax + 1] if axis == 0 else [0.0] + out[:kmax])

        a, b, terms = ts[kind[1] - 1], ts[kind[-1] - 1], dim + 1
        magnitude = norms(a, 0) * norms(b, 0) + norms(b, 1) * norms(a, 1)
    else:
        q = kind[1]
        terms = q * (2 * dim + m) + (q + 1 if op == "bq" else 0)
        magnitude = np.array([sum(math.comb(q, s) * np.abs(powers[s].blocks[k])
                                  for s in (range(q + 1) if op == "bq" else (q,))).max()
                              for k in range(kmax + 1)])
    return terms * _U / (1.0 - terms * _U) * magnitude


def _within_rounding(shift, kind, N, margin, ts, powers, tol) -> bool:
    """Every interior entry within tol or within its level's rounding bound."""
    deviation = _deviation(shift, kind, N, margin, ts, powers)
    allowed = np.maximum(tol, rounding_bound(kind, ts, powers, len(deviation) - 1))
    return bool(np.all(deviation <= allowed))


def gram_diagonal_singular_values(c: LevelOperator, tol: float = 1e-10) -> np.ndarray:
    """Singular values of C via the diagonal of C*C, sorted ascending.

    C*C is formed level by level. It must be diagonal up to ``tol``; the
    operators produced by the closed forms here send basis vectors to
    multiples of distinct basis vectors, so a violation means the
    structural assumption failed and is reported, never papered over with
    a general SVD.
    """
    grams = [block.T.dot(block) for block in c.blocks]
    diag = np.concatenate([gram.diagonal() for gram in grams] + [np.zeros(0)])
    worst = float(np.max([np.abs(g - np.diag(g.diagonal())).max() for g in grams], initial=0.0))
    if worst > tol:
        raise StructuralAssumptionError(
            f"C*C has off-diagonal magnitude {worst:.3e} > {tol:.1e} for "
            f"{c.provenance}; not a shift-structured operator"
        )
    return np.sort(np.sqrt(np.clip(diag, 0.0, None)))


def schatten_power_sum(c: LevelOperator, p: float, kmax: Optional[int] = None) -> float:
    """sum of sigma^p over the singular values of C, optionally restricted
    to the interior levels |n| <= kmax."""
    if kmax is not None:
        c = c.restrict_to_levels(kmax)
    return float(np.sum(gram_diagonal_singular_values(c) ** p))


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
    # after the commutators, so their blocks and the powers are not held
    # together; the power rows read only the powers, so the tuple goes
    powers = q_powers(ts, 3)
    ts = None
    for k in range(0, 4):
        record(("q_power", k), k, powers)
    for q in range(1, 4):
        record(("bq", q), q, powers)
    return results
