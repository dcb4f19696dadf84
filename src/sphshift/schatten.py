"""Schatten-class membership of the tuple's cross-commutators.

The decision rests on two scalar series built from delta2:

    series 1:  sum_k  delta2(k)^p * k^(m-p-1)
    series 2:  sum_k  |delta2(k) - delta2(k-1)|^p * k^(m-1)

with k >= 1; the commutators lie in the p-th Schatten class exactly when
both converge. A finite procedure cannot decide convergence outright, so
verdicts are layered: families with declared asymptotics get an analytic
answer, everything else gets a log-log tail-exponent fit with an explicit
indeterminacy band. Partial sums are always attached.

With a non-vanishing delta limit the answer reproduces the cut-off: the
cross-commutators escape every Schatten class with exponent p <= m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .classify import is_compact
from .scalarseq import ScalarSequence
from .shift import SphericalShift
from .spectra import essential_normality_gate

DEFAULT_K = 100_000
FIT_MARGIN = 0.1
MIN_FIT_POINTS = 20


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

    def to_dict(self) -> dict:
        return {
            "p": self.p if math.isfinite(self.p) else "inf",
            "m": self.m,
            "K": self.K,
            "verdict": self.verdict,
            "analytic": self.analytic,
            "reason": self.reason,
            "tail_exponents": list(self.tail_exponents),
            "checkpoints": self.checkpoints,
            "partial_sums_1": self.partial_sums_1,
            "partial_sums_2": self.partial_sums_2,
            "cutoff_consistent": self.cutoff_consistent,
        }


def _require_m(m: int) -> None:
    if m < 2:
        raise ValueError("cross-commutator analysis needs arity m >= 2")


def criterion_term_arrays(seq: ScalarSequence, m: int, p: float, K: int):
    """(t1, t2) vectorized over k = 1..K.

    A delta2 or a difference whose p-th power leaves the float range gives
    an inf term, which the partial sums report as "inf".
    """
    _require_m(m)
    d2 = seq.delta2_array(K)
    k = np.arange(1, K + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        t1 = d2[1:] ** p * k ** (m - p - 1)
        t2 = np.abs(np.diff(d2)) ** p * k ** (m - 1)
    return t1, t2


def _checkpoint_grid(K: int) -> list:
    pts = set(np.unique(np.geomspace(1, K, 40).astype(int)).tolist())
    l = 0
    while True:
        jump = 2 ** (2 ** l) + 1
        if jump > K:
            break
        pts.add(jump)
        l += 1
    pts.add(K)
    return sorted(pts)


def _fit_tail_exponent(terms: np.ndarray, logk: np.ndarray) -> Tuple[str, Optional[float]]:
    """Classify one series from the decay exponent of its tail terms.

    terms[i] is the term at k = i+1, and logk holds log k over the fit
    window k in [K // 2, K]. Returns (status, slope) with status in
    {"converges", "diverges", "inconclusive", "zero-tail"}.
    """
    tail = terms[len(terms) - len(logk) :]
    pos = tail > 0
    count = np.count_nonzero(pos)
    if count == 0:
        return "zero-tail", None
    if count < MIN_FIT_POINTS:
        return "inconclusive", None
    if count < len(tail):
        logk, tail = logk[pos], tail[pos]
    slope = _kernels.fit_slope(logk, np.log(tail))
    if slope < -1.0 - FIT_MARGIN:
        return "converges", slope
    if slope > -1.0 + FIT_MARGIN:
        return "diverges", slope
    return "inconclusive", slope


def decide(seq: ScalarSequence, m: int, p: float, K: int = DEFAULT_K) -> SchattenVerdict:
    """Full membership verdict for the commutators at exponent p.

    p = inf is routed to the essential-normality question (are the
    commutators compact), which is the natural endpoint of the scale.
    """
    _require_m(m)
    if p != math.inf and p < 1:
        raise ValueError("Schatten exponent p must satisfy 1 <= p <= inf")
    if K < 1000:
        raise ValueError("K must be >= 1000 for a meaningful tail")

    if p == math.inf:
        gate = essential_normality_gate(seq, K, K // 10)
        verdict = "converges" if gate["value"] else "diverges"
        return SchattenVerdict(
            p=math.inf,
            m=m,
            K=K,
            verdict=verdict,
            analytic=gate["mode"] == "analytic",
            reason="p = inf routed to compactness of the commutators "
            f"(essential normality): {gate['detail']}",
            tail_exponents=(None, None),
        )

    t1, t2 = criterion_term_arrays(seq, m, p, K)
    checkpoints = _checkpoint_grid(K)
    # only the checkpoint sums are kept: each full cumsum is dropped at once
    at = np.array(checkpoints) - 1
    ps1 = _kernels.kahan_cumsum(t1)[at].tolist()
    ps2 = _kernels.kahan_cumsum(t2)[at].tolist()

    logk = np.log(np.arange(K // 2, K + 1, dtype=np.float64))
    status1, slope1 = _fit_tail_exponent(t1, logk)
    status2, slope2 = _fit_tail_exponent(t2, logk)

    override = seq.schatten_override(m, p)
    if override is not None:
        verdict, reason = override
        analytic = True
    elif seq.delta2_limit is not None and seq.delta2_limit > 0 and seq.diff_decay_ck:
        verdict = "converges" if p > m else "diverges"
        analytic = True
        reason = (
            "declared: delta2 -> L > 0 with |delta2(k)-delta2(k-1)| = O(1/k); "
            "membership holds exactly when p > m"
        )
    else:
        analytic = False
        statuses = {status1, status2}
        if "diverges" in statuses:
            verdict = "diverges"
        elif statuses <= {"converges", "zero-tail"}:
            verdict = "converges"
        else:
            verdict = "inconclusive"
        reason = (
            f"tail-exponent fit over k in [{K // 2}, {K}]: "
            f"series1 {status1} (slope {slope1}), series2 {status2} (slope {slope2})"
        )

    compact = is_compact(seq, K).value
    cutoff_ok = None
    if compact is not None:
        cutoff_ok = compact or not (verdict == "converges" and p <= m)

    return SchattenVerdict(
        p=float(p),
        m=m,
        K=K,
        verdict=verdict,
        analytic=analytic,
        reason=reason,
        tail_exponents=(slope1, slope2),
        checkpoints=checkpoints,
        partial_sums_1=ps1,
        partial_sums_2=ps2,
        cutoff_consistent=cutoff_ok,
    )


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
    _require_m(shift.m)
    if p < 1:
        raise ValueError("Schatten exponent p must be >= 1")
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
    Each distinct exponent is decided once, and the report's grid lists
    the distinct exponents in increasing order.
    """
    _require_m(m)
    if not p_grid:
        raise ValueError("p grid must be non-empty")
    grid = sorted({float(p) for p in p_grid})
    compact = is_compact(seq, K).value
    if compact:
        return {
            "skipped": True,
            "reason": "compact",
            "grid": grid,
        }
    verdicts = {}
    violations = []
    transition = None
    last_diverging = None
    for p in grid:
        v = decide(seq, m, p, K)
        verdicts[p] = v.verdict
        if v.verdict == "converges" and transition is None:
            transition = p
        if v.verdict == "diverges" and transition is None:
            last_diverging = p
        if p <= m and v.verdict == "converges":
            violations.append(p)
    return {
        "skipped": False,
        "noncompact": None if compact is None else not compact,
        "grid": grid,
        "verdicts": {str(k): v for k, v in verdicts.items()},
        "transition": transition,
        "last_diverging": last_diverging,
        "violations": violations,
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
    Each window must stay positive with max/min <= window_bound.
    """
    _require_m(m)
    lo, hi = k_range
    if lo < 1 or hi <= lo:
        raise ValueError("need 1 <= lo < hi in k_range")
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
