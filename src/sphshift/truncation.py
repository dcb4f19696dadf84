"""Brute-force finite sections: the tuple on |n| <= N, one entry per column.

The independent oracle for every closed form in ``shift``: T_1..T_m are
built from the weights alone, and adjoints, commutators and the iterated
positive map come from matrix arithmetic. T_i e_n = w_i(n) e_{n+eps_i}, so
each column of T_i holds one entry, and so does each column of T_i*
(T_i is injective), of a product of such operators and of [T_j*, T_l] and
Q^s(I), whose terms send e_n to multiples of one basis vector. An operator
is therefore held as that entry per column (``LevelOperator``): its row,
or -1 for none, and its value. A product is a gather, an adjoint a
scatter, and a sum adds the values in the order dense matrix sums add
them. Each entry of a dense product of such matrices has at most one
nonzero term, so these give exactly the floats dense products give. A
structure this form cannot hold (an adjoint with two entries in one
column, a sum whose terms name different rows in one column) is a
``StructuralAssumptionError``, never a silent merge.

Q^s(I) comes from the recursion X_s = sum_i (T_i* X_{s-1}) T_i, the
definition of Q_T(X) = sum_i T_i* X T_i, once per suite for s <= 3. Each
closed form (the level-wise forms of ``SphericalShift``) is compared on
every interior entry; hard truncation drops images above degree N, so an
operator assembled from s factors is only trusted on |n| <= N - s, and a
product is held only on the levels where its factors are known. A row
passes when every entry is within ``tol`` of the closed form, or within
its ``rounding_bound``, counted from the roundings behind that one entry
and the float snapshot's error in delta2, relative to the entry's terms,
so entries near 1e300 (hp with a tiny p) are judged by their size; a zero
``tol`` asks for exact agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional, Sequence, Tuple

import numpy as np

from .multiindex import enumerate_level, rank
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
    k is columns ``bounds[k]:bounds[k+1]``, each in graded-reverse-lex order.
    """

    m: int
    N: int
    exponents: np.ndarray = field(repr=False)
    levels: np.ndarray = field(repr=False)
    up: np.ndarray = field(repr=False)
    bounds: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return int(self.bounds[-1])

    def rows_of(self, exps) -> np.ndarray:
        """Rows of the multi-indices in ``exps``, one per array row: their
        ``rank``, refusing any outside the section."""
        exps = np.asarray(exps, dtype=np.intp).reshape(len(exps), self.m)
        outside = (exps < 0).any(axis=1) | (exps.sum(axis=1) > self.N)
        if outside.any():
            raise KeyError(f"{tuple(exps[outside][0].tolist())} lies outside |n| <= {self.N}")
        return rank(exps)


# The largest basis the oracle builds; every operator holds a row and a
# value per column. The largest suite below it, m = 8 at N = 10 (43,758
# columns), is the most rows and columns any CLI arity reaches; its
# `verify` takes 2.6-2.8 s wall and 61 MB peak RSS on a 2-core VM.
ORACLE_COLUMNS = 50_000


def build_basis(m: int, N: int) -> Basis:
    """The basis on |n| <= N; refuses, before it enumerates anything, a
    section of more than ORACLE_COLUMNS basis vectors."""
    if N < 0:
        raise ValueError("maximum degree N must be >= 0")
    dim = math.comb(N + m, m)
    if dim > ORACLE_COLUMNS:
        raise ValueError(f"the section m = {m}, N = {N} needs {dim} basis columns, "
                         f"beyond the oracle's {ORACLE_COLUMNS}")
    levels = [enumerate_level(m, k) for k in range(N + 1)]
    exponents = np.concatenate(levels)
    basis = Basis(m, N, exponents, exponents.sum(axis=1), np.full((m, dim), -1, dtype=np.intp),
                  np.cumsum([0] + [len(level) for level in levels]))
    below = basis.bounds[N]  # the columns with |n| < N
    basis.up[:, :below] = [basis.rows_of(exponents[:below] + e) for e in np.eye(m, dtype=np.intp)]
    for arr in (exponents, basis.levels, basis.up, basis.bounds):
        arr.flags.writeable = False
    return basis


def suite_basis(m: int, N: int) -> Basis:
    """``build_basis(m, N)`` for an oracle suite, whose Q^3 rows reach three
    levels: refuses N < 3 first."""
    if N < 3:
        raise ValueError(f"the oracle needs N >= 3 for its Q^3 rows (q_power/3, bq/3), "
                         f"got N = {N}")
    return build_basis(m, N)


@dataclass
class LevelOperator:
    """An operator sending level k into level k + step, one entry per
    column: column c holds ``vals[c]`` at row ``rows[c]``, or nothing where
    ``rows[c]`` is -1. It is known on the levels 0..known-1; hard truncation
    leaves the levels above unknown, and their columns are emptied here.
    Both arrays have one slot past the last column, always empty, so that a
    gather through row -1 reads no entry."""

    rows: np.ndarray
    vals: np.ndarray
    step: int
    known: int
    basis: Basis
    provenance: str

    def __post_init__(self):
        self.known = max(0, min(self.known, self.basis.N + 1))
        stop = self.basis.bounds[self.known]
        self.rows[stop:], self.vals[stop:] = -1, 0.0

    def adjoint(self) -> "LevelOperator":
        cols = np.flatnonzero(self.rows >= 0)
        targets = self.rows[cols]
        rows, vals = np.full_like(self.rows, -1), np.zeros_like(self.vals)
        rows[targets], vals[targets] = cols, self.vals[cols]
        clash = targets[rows[targets] != cols]  # a later column overwrote this one
        if clash.size:
            raise StructuralAssumptionError(f"the adjoint of {self.provenance} would hold "
                                            f"two entries in column {clash[0]}")
        return LevelOperator(rows, vals, -self.step, self.known + self.step, self.basis,
                             f"adjoint({self.provenance})")

    def restrict_to_levels(self, kmax: int) -> "LevelOperator":
        """The operator on the levels |n| <= kmax."""
        return LevelOperator(self.rows.copy(), self.vals.copy(), self.step,
                             min(self.known, kmax + 1), self.basis, self.provenance)

    @property
    def matrix(self) -> np.ndarray:
        """The dim x dim matrix, zero off the known levels, assembled on request."""
        dim = self.basis.dimension
        out, cols = np.zeros((dim, dim)), np.flatnonzero(self.rows[:dim] >= 0)
        out[self.rows[cols], cols] = self.vals[cols]
        return out


def build_shift_matrix(shift: SphericalShift, j: int, basis: Basis) -> LevelOperator:
    """T_j: entry w_j(n) at (row of n+eps_j, column of n) for |n| < N; the
    top level's images are dropped (hard truncation)."""
    if shift.m != basis.m:
        raise ValueError("shift and basis arity mismatch")
    if not 1 <= j <= basis.m:
        raise ValueError(f"axis {j} out of range for arity {basis.m}")
    below = basis.bounds[basis.N]  # the columns with |n| < N
    levels, targets = basis.levels[:below], basis.up[j - 1, :below]
    bad = np.flatnonzero((targets < 0) | (basis.levels[targets] != levels + 1))
    if bad.size:
        raise StructuralAssumptionError(f"basis.up sends column {bad[0]} of T_{j} to row "
                                        f"{targets[bad[0]]}, outside level {levels[bad[0]] + 1}")
    rows, vals = np.full(basis.dimension + 1, -1), np.zeros(basis.dimension + 1)
    rows[:below], vals[:below] = targets, shift.weights(j, basis.exponents[:below])
    return LevelOperator(rows, vals, 1, basis.N, basis, f"shift-matrix T_{j}")


def build_tuple_matrices(shift: SphericalShift, basis: Basis) -> list:
    return [build_shift_matrix(shift, j, basis) for j in range(1, shift.m + 1)]


def _product(a: LevelOperator, b: LevelOperator) -> LevelOperator:
    """a b, known on the levels where both factors are known."""
    return LevelOperator(a.rows[b.rows], a.vals[b.rows] * b.vals, a.step + b.step,
                         min(b.known, a.known - b.step), a.basis,
                         f"{a.provenance} {b.provenance}")


def _sum(ops: Sequence[LevelOperator], coeffs, provenance: str) -> LevelOperator:
    """sum_i coeffs[i] ops[i], added left to right as dense sums add; the
    terms of one column must name one row or none."""
    rows = reduce(np.maximum, [op.rows for op in ops])
    if any(((op.rows != rows) & (op.rows >= 0)).any() for op in ops):
        raise StructuralAssumptionError(f"the terms of {provenance} name different rows "
                                        f"in one column")
    vals = sum(c * op.vals for c, op in zip(coeffs, ops))
    return LevelOperator(rows, vals, ops[0].step, min(op.known for op in ops), ops[0].basis,
                         provenance)


def commutator(a: LevelOperator, b: LevelOperator) -> LevelOperator:
    if (a.basis.m, a.basis.N) != (b.basis.m, b.basis.N):
        raise ValueError(f"basis mismatch: {(a.basis.m, a.basis.N)} vs {(b.basis.m, b.basis.N)}")
    return _sum([_product(a, b), _product(b, a)], (1, -1), f"[{a.provenance}, {b.provenance}]")


def q_powers(ts: Sequence[LevelOperator], smax: int) -> list:
    """[Q^0(I), ..., Q^smax(I)] from the shifts by the recursion
    X_s = sum_i (T_i* X_{s-1}) T_i that defines Q_T; X_s is held on the
    levels it is known on, |n| <= N - s."""
    if smax < 0:
        raise ValueError("power k must be >= 0")
    basis = ts[0].basis
    dim, adjoints = basis.dimension, [t.adjoint() for t in ts]
    powers = [LevelOperator(np.append(np.arange(dim), -1), np.append(np.ones(dim), 0.0), 0,
                            basis.N + 1, basis, "q-power 0")]
    for s in range(1, smax + 1):
        terms = [_product(_product(a, powers[-1]), t) for a, t in zip(adjoints, ts)]
        powers.append(_sum(terms, [1] * len(ts), f"q-power {s}"))
    return powers


def _defect(powers: Sequence[LevelOperator], q: int) -> LevelOperator:
    """sum_s (-1)^s C(q,s) Q^s(I) from the powers s = 0..q."""
    return _sum(powers[: q + 1], [(-1) ** s * math.comb(q, s) for s in range(q + 1)],
                f"bq-defect {q}")


def q_power_bruteforce(ts: Sequence[LevelOperator], k: int) -> LevelOperator:
    """Q^k(I), which equals sum over |alpha| = k of (k!/alpha!)
    (T^alpha)* T^alpha, from the shifts by the recursion."""
    return q_powers(ts, k)[k]


def bq_bruteforce(ts: Sequence[LevelOperator], q: int) -> LevelOperator:
    """Order-q defect operator sum_s (-1)^s C(q,s) Q^s(I) from the shifts."""
    if q < 1:
        raise ValueError("order q must be >= 1")
    return _defect(q_powers(ts, q), q)


def required_margin(kind: Tuple) -> int:
    op = kind[0]
    if op in ("self_comm", "cross_comm"):
        return 1
    if (op == "q_power" and kind[1] >= 0) or (op == "bq" and kind[1] >= 1):
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


def _label(kind: Tuple) -> str:
    """A comparison kind as a report names its row, e.g. ``cross_comm/1/2``."""
    return "/".join(str(x) for x in kind)


def _deviation(shift, kind, N, ts, powers) -> np.ndarray:
    """|closed form - built entry| on each column with |n| <= N -
    required_margin(kind), inf where the closed form is not finite; a power
    kind needs only the powers. Refuses built entries beyond the float
    range, which no deviation could judge."""
    op, kmax = kind[0], N - required_margin(kind)
    if kmax < 0:
        raise ValueError(f"the oracle row {_label(kind)} needs N >= {N - kmax}, got N = {N}")
    if ts is None and (powers is None or op.endswith("comm")):
        ts = build_tuple_matrices(shift, build_basis(shift.m, N))
    basis = (ts or powers)[0].basis
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        if op.endswith("comm"):
            built = commutator(ts[kind[1] - 1].adjoint(), ts[kind[-1] - 1])
        else:
            powers = q_powers(ts, kind[1]) if powers is None else powers
            built = powers[kind[1]] if op == "q_power" else _defect(powers, kind[1])
    stop = basis.bounds[kmax + 1]
    got_rows, got = built.rows[:stop], built.vals[:stop]
    if not np.isfinite(got).all():
        raise ValueError(f"the oracle row {_label(kind)} of the section m = {basis.m}, "
                         f"N = {N} has matrix entries beyond the float range")

    rows, values = _expected_interior(shift, kind, basis, kmax)
    cols = np.arange(stop)
    if rows is None:
        rows = cols
    elif (basis.levels[rows[rows >= 0]] != basis.levels[cols[rows >= 0]]).any():
        raise StructuralAssumptionError(f"{kind!r} names a target outside its level")
    values = np.where(rows >= 0, values, 0.0)
    # an entry off the closed form's row deviates by itself, as does the
    # closed form's entry where nothing was built
    dev = np.where(got_rows == rows, np.abs(got - values),
                   np.maximum(np.abs(got), np.abs(values)))
    dev[np.isnan(dev)] = np.inf
    return dev


def compare_with_closed_form(
    shift: SphericalShift,
    kind: Tuple,
    N: int,
    ts: Optional[Sequence[LevelOperator]] = None,
    powers: Optional[Sequence[LevelOperator]] = None,
) -> float:
    """Max absolute deviation |matrix entry - closed form| over the interior
    block |n| <= N - margin, where the margin is the operator's reach,
    ``required_margin(kind)``; boundary rows are never compared.

    kind is ("self_comm", j), ("cross_comm", j, l), ("q_power", k) or
    ("bq", q). ``powers`` are Q^s(I) from ``q_powers(ts, s)`` for s up to
    at least the order of a q_power or bq kind, so one suite shares them
    across kinds.
    """
    return float(_deviation(shift, kind, N, ts, powers).max())


_U = 2.0 ** -53  # unit roundoff of float64


def rounding_bound(shift: SphericalShift, kind: Tuple, N: int,
                   ts: Optional[Sequence[LevelOperator]],
                   powers: Optional[Sequence[LevelOperator]]) -> np.ndarray:
    """Forward rounding bound of each entry ``_deviation`` compares, counted
    from the operations behind that one entry, above the subnormal range.

    A rounding is a factor 1 + d, |d| <= u = 2^-53, and the float snapshot
    holds delta2 (1 + e), |e| <= eps over the levels k < N the weights read
    (``ScalarSequence.float_snapshot_error``). Where an entry's terms are
    their exact values times such factors, to powers r = 1 or 1/2 that
    count c = sum r|d| + sum r|e| < 1, the entry is within c/(1 - 2c) of
    its exact value relative to its terms' computed size. The counts:
      * a weight sqrt(delta2 (n_i+1)/(|n|+m)): e and two roundings halved
        by the root, and the root's own, eps/2 + 2u;
      * a commutator entry, two products of two weights and a difference:
        eps + 6u, its terms the two ``_product`` gathers T_j*T_l, T_l T_j*;
      * Q^s(I): s steps over m nonnegative terms w_i(n)^2 X_{s-1}(n+e_i),
        each of two weights, two products and at most m - 1 additions:
        s (eps + (m + 5)u), its terms' size the entry itself;
      * the order-q defect: q + 1 more (a product by C(q,s), q additions),
        its terms' size sum_s C(q,s) Q^s(I);
      * the closed form, the exact value rounded once (a cross-commutator
        thrice: the level's value, sqrt(n_j (n_l+1)), their product): u or
        3u more, as the terms' size bounds the exact value.
    """
    basis, op, q = (ts or powers)[0].basis, kind[0], kind[1]
    stop = basis.bounds[N - required_margin(kind) + 1]
    eps, closed = shift.seq.float_snapshot_error(N - 1), 3 if op == "cross_comm" else 1
    if op.endswith("comm"):
        a, b = ts[kind[1] - 1].adjoint(), ts[kind[-1] - 1]
        count = eps + (6 + closed) * _U
        terms = [(1, _product(a, b)), (1, _product(b, a))]
    else:
        count = q * (eps + (shift.m + 5) * _U) + ((q + 1 if op == "bq" else 0) + closed) * _U
        terms = [(math.comb(q, s), powers[s]) for s in (range(q + 1) if op == "bq" else (q,))]
    # scaled term by term, so no size near the float range overflows
    return sum(count / (1.0 - 2.0 * count) * c * np.abs(t.vals[:stop]) for c, t in terms)


def gram_diagonal_singular_values(c: LevelOperator) -> np.ndarray:
    """Singular values of C via the diagonal of C*C, sorted ascending.

    C*C is diagonal exactly when no two nonzero entries of C share a row.
    The operators produced by the closed forms here send basis vectors to
    multiples of distinct basis vectors, so two such entries, whatever
    their size, mean the structural assumption failed and are reported,
    never papered over with a general SVD.
    """
    stop = c.basis.bounds[c.known]
    rows = c.rows[:stop][(c.rows[:stop] >= 0) & (c.vals[:stop] != 0)]
    shared = np.flatnonzero(np.bincount(rows) > 1)
    if shared.size:
        raise StructuralAssumptionError(f"row {shared[0]} of {c.provenance} holds two nonzero "
                                        f"entries, so C*C is not diagonal")
    return np.sort(np.abs(c.vals[:stop]))  # the root of a one-term diagonal, exactly


def schatten_power_sum(c: LevelOperator, p: float, kmax: Optional[int] = None) -> float:
    """sum of sigma^p over the singular values of C, optionally restricted
    to the interior levels |n| <= kmax."""
    if kmax is not None:
        c = c.restrict_to_levels(kmax)
    return float(np.sum(gram_diagonal_singular_values(c) ** p))


def oracle_suite(shift: SphericalShift, N: int, tol: float = 1e-10,
                 basis: Optional[Basis] = None) -> list:
    """Run every comparison kind for one shift; returns a list of dicts
    {kind, margin, max_deviation, pass}, a row's margin being its kind's
    reach. ``basis`` is ``suite_basis(m, N)``, built here when not given, so
    the shifts of one suite can share one. The Q^3 rows reach three levels,
    so N must be at least 3."""
    if basis is None:
        basis = suite_basis(shift.m, N)
    elif (basis.m, basis.N) != (shift.m, N):
        raise ValueError(f"basis is for (m, N) = ({basis.m}, {basis.N}), not ({shift.m}, {N})")
    ts = build_tuple_matrices(shift, basis)
    results = []

    def record(kind, powers=None):
        deviation = _deviation(shift, kind, N, ts, powers)
        dev = float(deviation.max())
        # tol = 0 asks for exact agreement, which no rounding allowance may relax
        ok = dev <= tol or (tol > 0 and bool(np.all(deviation <= np.maximum(
            tol, rounding_bound(shift, kind, N, ts, powers)))))
        results.append({"kind": _label(kind), "margin": required_margin(kind),
                        "max_deviation": dev, "pass": bool(ok)})

    for j in range(1, shift.m + 1):
        record(("self_comm", j))
    for j in range(1, shift.m + 1):
        for l in range(1, shift.m + 1):
            if j != l:
                record(("cross_comm", j, l))
    # the power rows read only the powers, so the tuple goes; a power beyond
    # the float range is refused by its row
    with np.errstate(over="ignore", invalid="ignore"):
        powers = q_powers(ts, 3)
    ts = None
    for k in range(0, 4):
        record(("q_power", k), powers)
    for q in range(1, 4):
        record(("bq", q), powers)
    return results
