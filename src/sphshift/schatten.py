"""Schatten-class membership of the tuple's cross-commutators.

The decision rests on two scalar series built from delta2:

    series 1:  sum_k  delta2(k)^p * k^(m-p-1)
    series 2:  sum_k  |delta2(k) - delta2(k-1)|^p * k^(m-1)

with k >= 1; the commutators lie in the p-th Schatten class exactly when
both converge. A finite procedure cannot decide convergence outright, so
verdicts are layered: families with declared asymptotics get an analytic
answer, everything else gets a log-log tail-exponent fit with an explicit
indeterminacy band. Two log-space fits per horizon serve every exponent:
with a and b the tail slopes of log delta2 and log|delta2(k) - delta2(k-1)|
against log k, the terms decay like k^(p a + m - p - 1) and k^(p b + m - 1).
decide also attaches both series' partial sums at fixed checkpoints.

With a non-vanishing delta limit the answer reproduces the cut-off: the
cross-commutators escape every Schatten class with exponent p <= m. The
compactness and essential-normality answers it reads are scalarseq's; this
layer imports only scalarseq and _kernels.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .scalarseq import (CHUNK, DEFAULT_K, ScalarSequence, check_arity, essential_normality_gate,
                        fill_arange, is_compact)

if TYPE_CHECKING:
    # only closed_form_norm takes a shift, built by its caller: a Schatten
    # request loads neither shift nor multiindex
    from .shift import SphericalShift

MIN_FIT_POINTS = 20
MIN_K = 1000  # the least horizon with a meaningful tail


@dataclass
class SchattenVerdict:
    p: float
    m: int
    K: int
    verdict: str                 # "converges" | "diverges" | "inconclusive"
    analytic: bool
    reason: str
    tail_exponents: Tuple[Optional[float], Optional[float]]
    checkpoints: list = field(default_factory=list)
    partial_sums_1: list = field(default_factory=list)
    partial_sums_2: list = field(default_factory=list)
    cutoff_consistent: Optional[bool] = None


def require_cross_arity(m: int) -> None:
    """Refuses an arity below 2, which has no cross-commutators."""
    if m < 2:
        raise ValueError("cross-commutator analysis needs arity m >= 2")


def require_exponents_and_horizon(p_grid: Sequence[float], K: int) -> None:
    """Refuses an exponent p < 1 (p = inf is allowed) and a horizon K below
    MIN_K, the least with a meaningful tail."""
    if any(p != math.inf and p < 1 for p in p_grid):
        raise ValueError("Schatten exponent p must satisfy 1 <= p <= inf")
    if K < MIN_K:
        raise ValueError(f"K must be >= {MIN_K} for a meaningful tail")


def criterion_term_arrays(seq: ScalarSequence, m: int, p: float, K: int, lo: int = 1, out=None):
    """(series 1 terms, series 2 terms) over k = lo..K, both formed from one
    array of k.

    out, when given, is three scratch arrays of at least K + 1 - lo values;
    the terms are written into views of the first two, and the third holds
    k. A series-1 term whose delta2^p overflows while k^(m-p-1) < 1 is
    exp(p (log delta2 - log k) + (m-1) log k) instead, never inf * 0 = NaN;
    every other term is the float product. A term beyond the float range is
    inf, which the partial sums report as "inf".
    """
    require_cross_arity(m)
    d2, n = seq.delta2_array(K), K + 1 - lo
    t1, t2, k = (np.empty(n) for _ in range(3)) if out is None else (o[:n] for o in out)
    fill_arange(k, lo)
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(d2[lo:], d2[lo - 1 : -1], out=t2)
        np.abs(t2, out=t2)
        t2 **= p
        np.copyto(t1, k)
        t1 **= m - 1
        t2 *= t1
        np.copyto(t1, d2[lo:])
        t1 **= p
        k **= m - p - 1
        t1 *= k
        # p > m - 1: every k^(m-p-1) <= 1, so only an overflowed delta2^p is not finite
        if p > m - 1 and not t1.max() < math.inf:
            at = np.flatnonzero(~np.isfinite(t1))
            logk = np.log(at + float(lo))
            t1[at] = np.exp(p * (np.log(d2[lo:][at]) - logk) + (m - 1) * logk)
    return t1, t2


def _checkpoint_grid(K: int) -> list:
    pts = set(np.geomspace(1, K, 40).astype(int).tolist())
    l = 0
    while 2 ** (2 ** l) + 1 <= K:  # the jumps of rho-eta, where its differences peak
        pts.add(2 ** (2 ** l) + 1)
        l += 1
    pts.add(K)
    return sorted(pts)


def _tail_slopes(seq: ScalarSequence, K: int) -> Tuple[float, object]:
    """(a, b): the log-log slopes of delta2 and of |delta2(k) - delta2(k-1)|
    over the fit window k in [K // 2, K].

    The log of a series-1 term is p log delta2 + (m-p-1) log k, and of a
    series-2 term p log|delta2 difference| + (m-1) log k, so the two fits
    give every exponent's tail slopes. The snapshot is finite and positive,
    so a is a finite float; b is "zero-tail" when every difference in the
    window is 0, and "inconclusive" when fewer than MIN_FIT_POINTS are not.
    b fits the nonzero differences only; when every difference is nonzero,
    a and b come from one fit of both logs against one log k. The fits are
    streamed (_kernels.fit_slope): the window is read in blocks of CHUNK
    values, and the nonzero differences are found through a count per
    block, so nothing of the length of the window is held.
    """
    d2, lo = seq.delta2_array(K), K // 2
    n = K + 1 - lo

    def absdiff(s, e, out):  # |delta2(k) - delta2(k-1)| for k = s..e-1
        return np.abs(np.subtract(d2[s:e], d2[s - 1 : e - 1], out=out), out=out)

    def logs(a, b, logk, logd2, *logdiff):  # k = lo + a .. lo + b - 1
        np.log(fill_arange(logk, lo + a), out=logk)
        np.log(d2[lo + a : lo + b], out=logd2)
        for y in logdiff:  # the differences, when all are nonzero
            np.log(absdiff(lo + a, lo + b, y), out=y)

    starts, buf = range(lo, K + 1, CHUNK), np.empty(min(n, CHUNK))  # the window's blocks
    counts = [np.count_nonzero(absdiff(s, min(s + CHUNK, K + 1), buf[: K + 1 - s])) for s in starts]
    count = sum(counts)
    if count == n:
        del buf  # the joint fit holds its three blocks of scratch, and no more
        return _kernels.fit_slope(n, logs, 2)
    slope_a = _kernels.fit_slope(n, logs)
    if count == 0:
        return slope_a, "zero-tail"
    if count < MIN_FIT_POINTS:
        return slope_a, "inconclusive"
    first = np.cumsum([0] + counts)  # the index of each block's first nonzero difference

    def nonzero(a, b, logk, logdiff):  # the nonzero differences a..b-1
        at, j = 0, int(np.searchsorted(first, a, side="right")) - 1
        while at < b - a:
            s = starts[j]
            d = absdiff(s, min(s + CHUNK, K + 1), buf[: K + 1 - s])
            where = np.flatnonzero(d)[a + at - first[j] :][: b - a - at]
            x = logk[at : at + len(where)]
            np.log(np.add(where, s, out=x), out=x)
            np.log(d[where], out=logdiff[at : at + len(where)])
            at, j = at + len(where), j + 1

    return slope_a, _kernels.fit_slope(count, nonzero)


def _verdict(seq: ScalarSequence, m: int, p: float, K: int, slopes=None) -> SchattenVerdict:
    """The membership verdict at exponent p, without partial sums.

    p = inf is routed to the essential-normality question (are the
    commutators compact), which is the natural endpoint of the scale.
    slopes is _tail_slopes(seq, K), for a caller that decides several
    exponents at one K; it is computed here when not given.
    """
    require_cross_arity(m)
    check_arity(seq, m)
    require_exponents_and_horizon((p,), K)

    if p == math.inf:
        gate = essential_normality_gate(seq, K)
        return SchattenVerdict(
            p=math.inf, m=m, K=K, verdict="converges" if gate["value"] else "diverges",
            analytic=gate["mode"] == "analytic", tail_exponents=(None, None),
            reason="p = inf routed to compactness of the commutators "
            f"(essential normality): {gate['detail']}")

    a, b = _tail_slopes(seq, K) if slopes is None else slopes
    slope1 = p * a + (m - p - 1)
    slope2 = None if isinstance(b, str) else p * b + (m - 1)
    status1 = _kernels.series_verdict(slope1)
    status2 = b if slope2 is None else _kernels.series_verdict(slope2)

    analytic = True
    if seq.schatten_divergence is not None:
        verdict, reason = "diverges", seq.schatten_divergence
    elif seq.essentially_normal_declared is False:
        verdict = "diverges"
        reason = ("not essentially normal, so the cross-commutators are not compact, "
                  "so they lie in no S_p (every S_p operator is compact)")
    elif seq.delta2_limit is not None and seq.delta2_limit > 0 and seq.diff_decay_ck:
        verdict = "converges" if p > m else "diverges"
        reason = ("declared: delta2 -> L > 0 with |delta2(k)-delta2(k-1)| = O(1/k); "
                  "membership holds exactly when p > m")
    else:
        analytic = False
        statuses = {status1, status2}
        if "diverges" in statuses:
            verdict = "diverges"
        elif statuses <= {"converges", "zero-tail"}:
            verdict = "converges"
        else:
            verdict = "inconclusive"
        reason = (f"tail-exponent fit over k in [{K // 2}, {K}]: "
                  f"series1 {status1} (slope {slope1}), series2 {status2} (slope {slope2})")

    return SchattenVerdict(p=float(p), m=m, K=K, verdict=verdict, analytic=analytic,
                           reason=reason, tail_exponents=(slope1, slope2))


def _partial_sums(seq, m, p, K, checkpoints) -> Tuple[list, list]:
    """Both series' partial sums at the checkpoints, from one walk of k =
    1..K in blocks of CHUNK values, formed and summed in place in
    three scratch arrays allocated once per call. Each block's first terms
    get the running sums before the block's cumsums, so every partial sum
    is the one a cumsum over k = 1..K gives, bit for bit."""
    sums, running = ([], []), [0.0, 0.0]
    scratch = [np.empty(min(K, CHUNK)) for _ in range(3)]
    for k0 in range(1, K + 1, CHUNK):
        k1 = min(k0 + CHUNK - 1, K)
        at = [c - k0 for c in checkpoints if k0 <= c <= k1]
        for i, t in enumerate(criterion_term_arrays(seq, m, p, k1, lo=k0, out=scratch)):
            if k0 > 1:
                t[0] += running[i]
            t = _kernels.kahan_cumsum(t, out=t)
            running[i] = t[-1]
            sums[i].extend(t[at].tolist())
    return sums


def decide(seq: ScalarSequence, m: int, p: float, K: int = DEFAULT_K) -> SchattenVerdict:
    """Full membership verdict for the commutators at exponent p, with the
    partial sums of both series at the checkpoints for a finite p, and
    whether a finite p obeys the cut-off (a non-compact tuple converges at
    no p <= m); None when compactness is undecided."""
    v = _verdict(seq, m, p, K)
    if p != math.inf:
        compact = is_compact(seq, K).value
        if compact is not None:
            v.cutoff_consistent = compact or not (v.verdict == "converges" and p <= m)
        v.checkpoints = _checkpoint_grid(K)
        v.partial_sums_1, v.partial_sums_2 = _partial_sums(seq, m, p, K, v.checkpoints)
    return v


# -- closed-form truncated norms --------------------------------------------


def closed_form_level_sums(
    shift: SphericalShift, j: int, l: int, p: float, kmax: int
) -> np.ndarray:
    """Per-level sums of |singular value|^p for [T_j*, T_l], levels 0..kmax.

    Self-commutators (j = l) are diagonal; cross-commutators send basis
    vectors to multiples of distinct basis vectors, so in both cases the
    singular values are the absolute coefficients. Levels are reduced with
    composition counts, never enumerated.
    """
    require_cross_arity(shift.m)
    if not (math.isfinite(p) and p >= 1):
        raise ValueError("Schatten exponent p must be finite and >= 1")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    for ax in (j, l):
        if not 1 <= ax <= shift.m:
            raise ValueError(f"axis {ax} out of range for arity {shift.m}")
    d2 = shift.seq.delta2_array(kmax)
    if j == l:
        return _kernels.self_level_powersums(d2, shift.m, float(p))
    return _kernels.cross_level_powersums(d2, shift.m, float(p))


def closed_form_norm(shift: SphericalShift, j: int, l: int, p: float, K: int) -> float:
    """Truncated p-th power Schatten sum over levels 0..K."""
    sums = closed_form_level_sums(shift, j, l, p, K)
    return float(math.fsum(sums.tolist()))


# -- cut-off and asymptotic windows ------------------------------------------


def cutoff_check(
    seq: ScalarSequence, m: int, p_grid: Sequence[float], K: int = DEFAULT_K
) -> dict:
    """Verdicts across a grid of exponents straddling m.

    For a non-compact family no grid point p <= m may converge; the
    report carries the verdicts, the first converging exponent, and any
    violations of that rule. Compact families are tagged and skipped.
    Each distinct exponent is decided once, from one pair of tail fits
    (_tail_slopes) shared by the whole grid, with no term array and no
    partial sum; the report's grid lists the distinct exponents in
    increasing order.
    """
    require_cross_arity(m)
    if not p_grid:
        raise ValueError("p grid must be non-empty")
    grid = sorted({float(p) for p in p_grid})
    require_exponents_and_horizon(grid, K)
    compact = is_compact(seq, K).value
    if compact:
        return {"skipped": True, "reason": "compact", "grid": grid}
    slopes = _tail_slopes(seq, K)  # shared by every exponent
    verdicts = {p: _verdict(seq, m, p, K, slopes).verdict for p in grid}
    converging = [p for p in grid if verdicts[p] == "converges"]
    transition = converging[0] if converging else None
    diverging = [p for p in grid if verdicts[p] == "diverges"
                 and (transition is None or p < transition)]
    return {
        "skipped": False,
        "noncompact": None if compact is None else not compact,
        "grid": grid,
        "verdicts": {str(p): v for p, v in verdicts.items()},
        "transition": transition,
        "last_diverging": diverging[-1] if diverging else None,
        "violations": [p for p in converging if p <= m],
    }


def asymptotic_lemma_check(
    m: int,
    p: float,
    k_range: Tuple[int, int],
    points: int = 24,
    window_bound: float = 5.0,
) -> dict:
    """Measured ratio windows for the two per-level growth estimates.

    First: sum over {|n|=k, n_j>0} of n_j^(p/2) n_l^(p/2), compared with
    k^(p+m-1). Second: sum over {|n|=k} of |s n_j - 1|^p, compared with
    k^(p+m-1)|s|^p + k^(m-1); s = 0, s = 1 and s = 1/k probe the regimes.
    Each window must stay positive with max/min <= window_bound. A p for
    which k^(p+m-1) leaves the float range on the k-range is refused.
    """
    require_cross_arity(m)
    if not (math.isfinite(p) and p >= 0):
        raise ValueError(f"need a finite p >= 0, got {p}")
    lo, hi = k_range
    if lo < 1 or hi <= lo:
        raise ValueError("need 1 <= lo < hi in k_range")
    if points < 1:
        raise ValueError("need at least one point")
    # both estimates divide by k^(p+m-1), a float for every k <= hi only up to p_max
    p_max = math.log(sys.float_info.max) / math.log(hi) - m + 1
    if p > p_max:
        raise ValueError(f"k^(p+m-1) leaves the float range at k = {hi}: the k-range "
                         f"{lo}:{hi} allows p <= {math.floor(p_max * 100) / 100} at m = {m}, "
                         f"got p = {p:g}")
    ks = sorted(set(np.geomspace(lo, hi, points).astype(int).tolist()))

    def window(ratios):
        rmin, rmax = min(ratios), max(ratios)
        return {
            "min": rmin,
            "max": rmax,
            "spread": rmax / rmin if rmin > 0 else math.inf,
            "pass": bool(rmin > 0 and rmax / rmin <= window_bound),
        }

    pair_ratios = [
        _kernels.pairsum(k, m, float(p), 0.0) / float(k) ** (p + m - 1) for k in ks
    ]
    out = {
        "m": m,
        "p": float(p),
        "k_grid": ks,
        "pair_sum": {"ratios": pair_ratios, **window(pair_ratios)},
        "abs_sum": {},
    }
    for mode in ("zero", "one", "inv_k"):
        ratios = []
        for k in ks:
            s = {"zero": 0.0, "one": 1.0, "inv_k": 1.0 / k}[mode]
            denom = float(k) ** (p + m - 1) * abs(s) ** p + float(k) ** (m - 1)
            ratios.append(_kernels.abs_sum(k, m, float(p), s) / denom)
        out["abs_sum"][mode] = {"ratios": ratios, **window(ratios)}
    out["pass"] = bool(
        out["pair_sum"]["pass"] and all(v["pass"] for v in out["abs_sum"].values())
    )
    return out
