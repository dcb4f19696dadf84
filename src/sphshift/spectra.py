"""Spectral-part geometry from the limit formulas on the scalar data.

Three radii drive everything:

  * R: outer radius of the joint spectrum,
        lim_j sup_k (bbeta_{k+j}/bbeta_k)^(1/j),
  * r: radius of the largest open ball where every member series converges,
        liminf_j bbeta_j^(1/j),
  * i: inner radius of the approximate point spectrum,
        lim_j inf_k (bbeta_{k+j}/bbeta_k)^(1/j),

with i <= r <= R always. The limits over j get a three-tier answer:
analytic when the family declares a convergent delta, a stabilized sampled
estimate otherwise, and an explicitly inconclusive sampled answer when the
j-sequence refuses to settle. Divergence diagnostics are attached rather
than hidden: every estimate carries its j-sequence. The essential-normality
gate, its window and the unboundedness heuristic are scalarseq's sampled
answers; this layer imports only scalarseq and _kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import _kernels
from .scalarseq import (CHUNK, DEFAULT_J, DEFAULT_K, ScalarSequence, check_arity,
                        essential_normality_gate, fill_arange, sampled_window, suspect_unbounded)

STABLE_WINDOW = 5
STABLE_TOL = 1e-4


class NotEssentiallyNormalError(Exception):
    """The essential-spectrum shell formula requires essential normality."""


@dataclass
class RadiusEstimate:
    value: float
    mode: str                      # "analytic" | "sampled-stable" | "sampled-inconclusive" | "unbounded-suspected"
    j_grid: list = field(default_factory=list)
    sequence: list = field(default_factory=list)
    richardson: Optional[float] = None
    note: str = ""


@dataclass
class SpectralReport:
    m: int
    K: int
    J: int
    outer_radius: RadiusEstimate
    convergence_radius: RadiusEstimate
    inner_radius: RadiusEstimate
    essentially_normal: dict
    essential_inner: Optional[float]
    essential_outer: Optional[float]
    essential_refusal: Optional[str]
    point_spectrum_boundary: str
    point_spectrum_exponent: Optional[float]


def _lag_extremes(cum: np.ndarray, J: int, reduce) -> np.ndarray:
    """Per-lag extreme over k of cum[k+j] - cum[k], for lags j = 1..min(J, K-1).

    reduce is np.maximum or np.minimum. The scan runs over blocks of
    CHUNK values of k, all lags per block, through one scratch
    buffer (the block and its J-lag halo stay in cache), so it allocates
    nothing of length K. A NaN difference makes its lag NaN.
    """
    K = len(cum) - 1
    lags = min(J, K - 1)
    out = np.empty(lags)
    # the scratch block starts on a 64-byte boundary: numpy's subtract
    # stores into it about 1.7x faster than at the 16 bytes malloc promises
    size = min(CHUNK, K)
    raw = np.empty(size + 8)
    start = (-raw.ctypes.data % 64) // 8
    buf = raw[start : start + size]
    for k0 in range(0, K, CHUNK):
        for j in range(1, lags + 1):
            n = min(CHUNK, K + 1 - j - k0)
            if n <= 0:
                break
            d = buf[:n]
            np.subtract(cum[k0 + j : k0 + j + n], cum[k0 : k0 + n], out=d)
            r = reduce.reduce(d)
            out[j - 1] = r if k0 == 0 else reduce(out[j - 1], r)
    return out


def _stabilized(seq_vals) -> bool:
    if len(seq_vals) < STABLE_WINDOW:
        return False
    tail = seq_vals[-STABLE_WINDOW:]
    return max(tail) - min(tail) < STABLE_TOL


def _richardson(log_vals) -> Optional[float]:
    """1/j-extrapolation of the log-scale sequence over lags j = 1..J from
    lags J/2 and J."""
    j2 = len(log_vals)
    if j2 < 4:
        return None
    j1 = j2 // 2
    a1, a2 = log_vals[j1 - 1], log_vals[-1]
    return math.exp((j2 * a2 - j1 * a1) / (j2 - j1))


def _lag_scan_radius(seq: ScalarSequence, J: int, K: int, outer: bool) -> RadiusEstimate:
    """R (outer) or i (not outer) from the per-lag sups or infima over k <= K
    of (bbeta_{k+j}/bbeta_k)^(1/j), lags j = 1..min(J, K-1)."""
    if J < 1 or K < 2:
        raise ValueError("need J >= 1 and K >= 2")
    reduce, tightest = (np.maximum, min) if outer else (np.minimum, max)
    ext = _lag_extremes(seq.log_bbeta_array(K), J, reduce)
    js = list(range(1, len(ext) + 1))
    logvals = (ext / js).tolist()
    vals = [math.exp(v) for v in logvals]
    est = RadiusEstimate(value=math.nan, mode="", j_grid=js, sequence=vals)
    est.richardson = _richardson(logvals)
    if seq.delta2_limit is not None:
        est.value = math.sqrt(seq.delta2_limit)
        est.mode = "analytic"
        est.note = "family declares lim delta2"
        return est
    if outer and suspect_unbounded(seq.delta2_array(K - 1)):
        est.value = math.inf
        est.mode = "unbounded-suspected"
        est.note = "delta2 quarter-sups increase without settling; sup may be infinite"
        return est
    # a sup over a window of k never exceeds the true sup, and R = inf_j of
    # the per-lag sups, so the min over computed lags is the tightest
    # estimate; dually i = sup_j of the per-lag infima, so the max
    est.value = tightest(vals)
    est.mode = "sampled-stable" if _stabilized(vals) else "sampled-inconclusive"
    est.note = f"sampled over k <= {K}, lags j <= {js[-1]}"
    return est


def outer_radius(seq: ScalarSequence, J: int = DEFAULT_J, K: int = DEFAULT_K) -> RadiusEstimate:
    """R: radius of the closed ball that is the joint spectrum."""
    return _lag_scan_radius(seq, J, K, outer=True)


def convergence_radius(seq: ScalarSequence, K: int = DEFAULT_K) -> RadiusEstimate:
    """r: liminf_j bbeta_j^(1/j), the member-series convergence radius."""
    if K < 2:
        raise ValueError("K must be >= 2")
    tail_start = K // 2
    logbb = seq.log_bbeta_array(K)
    # the minimum of log bbeta_j / j over the tail, taken block by block in one scratch
    buf, lows = np.empty(min(CHUNK, K + 1 - tail_start)), []
    for a in range(tail_start, K + 1, CHUNK):
        j = fill_arange(buf[: K + 1 - a], a)
        lows.append(np.divide(logbb[a : a + len(j)], j, out=j).min())
    low = math.exp(float(np.min(lows)))
    est = RadiusEstimate(
        value=low,
        mode="sampled-stable",
        j_grid=[tail_start, K],
        sequence=[low, math.exp(float(logbb[K] / K))],
        note=f"running infimum over the tail j in [{tail_start}, {K}]",
    )
    if seq.delta2_limit is not None:
        est.value = math.sqrt(seq.delta2_limit)
        est.mode = "analytic"
        est.note = "family declares lim delta2"
    return est


def inner_radius(seq: ScalarSequence, J: int = DEFAULT_J, K: int = DEFAULT_K) -> RadiusEstimate:
    """i: inner radius of the approximate point spectrum."""
    return _lag_scan_radius(seq, J, K, outer=False)


def essential_shell(
    seq: ScalarSequence, K: int = DEFAULT_K, window: Optional[int] = None
) -> Tuple[float, float]:
    """(inner, outer) radii of the essential-spectrum shell.

    Only meaningful under essential normality; refuses loudly otherwise.
    """
    gate = essential_normality_gate(seq, K, window)
    if not gate["value"]:
        raise NotEssentiallyNormalError(
            f"{seq.name}: not essentially normal ({gate['detail']}); "
            "the shell formula does not apply"
        )
    if seq.delta2_limit is not None:
        lam = math.sqrt(seq.delta2_limit)
        return (lam, lam)
    d2 = seq.delta2_array(K)
    lo = max(0, K - sampled_window(K, window))
    tail = d2[lo:]
    return (math.sqrt(float(np.min(tail))), math.sqrt(float(np.max(tail))))


def point_spectrum_boundary(
    seq: ScalarSequence, m: int, K: int = DEFAULT_K, r: Optional[float] = None
) -> Tuple[str, Optional[float]]:
    """Whether the adjoint's point spectrum is the open or the closed ball.

    Decided by a log-log tail-exponent fit of the boundary test series
    terms C(m-1+k, k) r^(2k) / gamma(k) over k in [K // 2, K]; slopes within
    _kernels.FIT_MARGIN of -1 are reported as inconclusive rather than
    guessed. The fit is streamed: each block of log terms and log k is
    formed in the fit's scratch, with one more block of scratch for this
    call, so nothing of the length of the window is held.
    """
    if r is None:
        r = convergence_radius(seq, K).value
    if not math.isfinite(r) or r <= 0:
        return "inconclusive", None
    logbb, lo, two_log_r = seq.log_bbeta_array(K), K // 2, 2.0 * math.log(r)
    buf = np.empty(min(K + 1 - lo, CHUNK))

    def block(a, b, logk, terms):  # k = lo + a .. lo + b - 1
        ks, tmp = fill_arange(logk, lo + a), buf[: b - a]
        np.multiply(two_log_r, ks, out=terms)
        terms -= np.multiply(logbb[lo + a : lo + b], 2.0, out=tmp)
        # log C(m-1+k, k) = sum_{i<m} log((k+i)/i)
        for i in range(1, m):
            np.add(ks, i, out=tmp)
            tmp /= i
            terms += np.log(tmp, out=tmp)
        np.log(ks, out=logk)

    slope = _kernels.fit_slope(K + 1 - lo, block)
    ball = {"converges": "closed-ball", "diverges": "open-ball"}
    return ball.get(_kernels.series_verdict(slope), "inconclusive"), slope


def spectral_report(
    seq: ScalarSequence,
    m: int,
    K: int = DEFAULT_K,
    J: int = DEFAULT_J,
    window: Optional[int] = None,
) -> SpectralReport:
    check_arity(seq, m)
    outer = outer_radius(seq, J, K)
    conv = convergence_radius(seq, K)
    inner = inner_radius(seq, J, K)
    gate = essential_normality_gate(seq, K, window)
    ess_in = ess_out = refusal = None
    try:
        ess_in, ess_out = essential_shell(seq, K, window)
    except NotEssentiallyNormalError as exc:
        refusal = str(exc)
    psb, slope = point_spectrum_boundary(seq, m, K, r=conv.value)
    return SpectralReport(
        m=m,
        K=K,
        J=J,
        outer_radius=outer,
        convergence_radius=conv,
        inner_radius=inner,
        essentially_normal=gate,
        essential_inner=ess_in,
        essential_outer=ess_out,
        essential_refusal=refusal,
        point_spectrum_boundary=psb,
        point_spectrum_exponent=slope,
    )
