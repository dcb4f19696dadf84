"""Hot per-level summation kernels (numpy).

Sums over a whole degree level {|n| = k} are reduced through composition counts
C(x+m-2, m-2) and iterated prefix sums instead of enumerating the level: the
self-commutator sums by Euler-Maclaurin away from the root of the coefficient,
O(K) terms up to level K, the cross-commutator sums by one FFT convolution over
all levels, O(K log K). fit_slope is the one least-squares line fit of the tail
exponents, series_verdict the one band that reads it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Values of k per block of every scan over a horizon (the spectra lag scans,
# the Schatten series, the fits' centred data): a block and its temporaries
# stay in cache, and larger blocks gain no speed.
CHUNK = 1 << 16

# Half-width of the band around slope -1 in which a log-log tail fit
# decides nothing.
FIT_MARGIN = 0.1

# Levels whose cross pair sums are summed directly. Below this the sums are
# still far from a power of the level, which the tilt of the FFT bands
# assumes: at p = 200, FFT bands from level 1 or 2 up lost 3e-3 or 1e-12.
_BASE = 64


def _comp_counts(x, m):
    """C(x+m-2, m-2) for integer array x >= 0: compositions of x in m-1 parts
    (with m = 1 there are no parts, and only x = 0 splits into none)."""
    if m == 1:
        return (np.asarray(x) == 0).astype(np.float64)
    counts = np.ones_like(x, dtype=np.float64)
    for i in range(1, m - 1):
        counts *= (x + i) / i
    return counts


def _pair_weights(n, m, p, offset):
    """(u+offset)^(p/2) for u = 0..n-1, prefix-summed m-2 times: entry x sums
    (n_l + offset)^(p/2) over every way of spreading x units on the m-1
    coordinates other than n_j."""
    w = (np.arange(n, dtype=np.float64) + offset) ** (p / 2.0)
    for _ in range(m - 2):
        w = np.cumsum(w)
    return w


def _terms(c, diff, s, m, p):
    """C(s+m-2, m-2) |c - s diff|^p, the summand at s units off the axis; s is scratch."""
    t = s * diff
    np.power(np.abs(np.subtract(c, t, out=t), out=t), p, out=t)
    for _ in range(m - 2):
        s += 1.0
        t *= s
    t /= math.factorial(m - 2)
    return t


@functools.lru_cache(maxsize=128)  # a few kB each; a new p costs well under 1 ms
def _rules(m, p):
    """R, the Euler-Maclaurin and Phi data, and n, derived in self_level_powersums."""
    P, eps, rho = p + m - 2.0, math.log(2.0 ** -53), 3.0 + math.sqrt(8.0)
    r = np.arange(1, 65)
    lead = np.cumsum(np.log(P + np.arange(128)))[1::2] + math.log(math.pi ** 2 / 3)  # (P)_2r
    gap = lambda R: lead + P / R - 2 * r * np.log(2 * math.pi * R) - eps  # noqa: E731
    top = math.ceil(P) + 64.0  # an integer R that fits at r = 64
    least = np.where(gap(top) <= 0, top, np.inf)
    for step in 2.0 ** np.arange(int(top).bit_length(), -1, -1):  # to the least integer that fits
        least = np.where(gap(below := np.maximum(least - step, 1.0)) <= 0, below, least)
    R, r = min(((int(h), int(j)) for j, h in zip(r, least) if h < math.inf), key=lambda t: (sum(t), t))
    zeta, beta = [0.0, math.pi ** 2 / 6], [0.0, 1 / 12]  # zeta(2i); beta_i = B_2i/(2i)
    for i in range(2, r + 1):  # sum_k zeta(2k) zeta(2i-2k) = (i + 1/2) zeta(2i)
        zeta.append(sum(zeta[j] * zeta[i - j] for j in range(1, i)) / (i + 0.5))
        beta.append(-beta[-1] * zeta[i] / zeta[i - 1] * (2 * i - 1) * (i - 1) / (2 * math.pi ** 2))
    binom = np.cumprod([1.0] + [(p - l) / ((l + 1) * R) for l in range(2 * r - 1)])
    i = np.arange(m - 1)[:, None] + np.arange(2 * r) + 1  # 2i of beta_i C(p, l) R^-l u^l w^(j)/j!
    coef = np.array(beta)[np.where((i % 2 == 0) & (i <= 2 * r), i // 2, 0)] * binom
    phi = np.cumprod([1 / (p + 1)] + [-j / (p + j + 1) for j in range(1, m - 1)])
    n = max(1, math.ceil((math.log(32 / 15 * (m - 1) * 2.0 ** (m - 2) / (rho ** 2 - 1))
                          + p * math.log(3.0) + P / R - eps) / (2 * math.log(rho))))
    return R, coef, phi, n


@functools.lru_cache(maxsize=16)
def _gauss(n):
    """The n Gauss-Legendre nodes and weights: Newton on the Legendre recurrence."""
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))  # Tricomi's, off by about n^-2
    for _ in range(6):  # quadratic convergence; O(n) memory, O(n^2) time
        q, pn = np.ones_like(x), x
        for j in range(1, n):
            q, pn = pn, ((2 * j + 1) * x * pn - j * q) / (j + 1)
        dp = n * (x * pn - q) / (x * x - 1)
        x = x - pn / dp
    return x, 2 / ((1 - x * x) * dp * dp)


def _ends(c, d, s, m, p, R, coef, phi):
    """At s = (a, b) of each segment: Euler-Maclaurin's (f(a) + f(b))/2 + sum_i
    B_2i/(2i)! [f^(2i-1)]_a^b, and [Phi]_a^b, Phi(s) = |c - s d|^p sum_j (-1)^j
    w^(j)(s) (s-x)^(j+1)/((p+1)...(p+j+1)), from the Taylor coefficients at s."""
    g, off = _terms(c, d, s, 2, p), s * d - c
    u, h = np.where(d == 0, 0.0, d / off), off / d  # 1/(s - x), s - x
    tw = [np.ones_like(s)]
    for i in range(1, m - 1):  # times (s + i + t)/i
        tw = [(v * (s + i) + w) / i for v, w in zip(tw + [0.0], [0.0] + tw)]
    horner = lambda a, z: functools.reduce(  # noqa: E731; sum_l a[l] z^l, in place in a[-1]
        lambda y, b: np.add(np.multiply(y, z, out=y), b, out=y), a[::-1])
    corr = g * horner(np.tensordot(coef, tw, (0, 0)), u * R)
    prim = g * h * horner([t * f for t, f in zip(tw, phi)], h)
    return (g * tw[0]).sum(axis=0) / 2 + corr[1] - corr[0], prim[1] - prim[0]


def _scaled_levels(k, c, d, m, p, R, coef, phi, n):
    """The sums of self_level_powersums at levels k, c and D scaled."""
    # the root, clipped where that moves no window and no far test
    x = np.clip(np.where(d == 0, np.inf, c / d), -2 * (k + R), 3 * k + 2 * R)
    lo, hi = np.floor(x - R) + 1, np.ceil(x + R) - 1  # the integers within R of x
    wa, wb = np.maximum(lo, R), np.minimum(hi, k)  # the window [wa, wb] about x
    sa = np.stack([np.full_like(k, R), np.maximum(hi + 1, R)], axis=1)  # segments [sa, sb]
    sb = np.stack([np.minimum(lo - 1, k), k], axis=1)
    far = np.stack([x > 2 * sb[:, 0] - R, x < 2 * sa[:, 1] - k], axis=1)
    i, j = np.nonzero(sa <= sb)  # the non-empty segments, (level, segment)
    sa, sb, far = sa[i, j], sb[i, j], far[i, j]
    out, step, w = np.zeros(len(k)), max(1, CHUNK // (16 * R)), np.flatnonzero(wa <= wb)
    val, g = np.empty(len(i)), np.flatnonzero(far)  # each segment's sum; far ones
    for lv, first, last in ((np.arange(len(k)), 0 * k, np.minimum(k, R - 1)), (w, wa, wb)):
        # s < R at every level, then the windows, each block as wide as its widest
        for v in (lv[z : z + step, None] for z in range(0, len(lv), step)):
            s = first[v] + np.arange((last[v] - first[v]).max() + 1)
            t = _terms(c[v], d[v], np.minimum(s, last[v]), m, p)
            out[v[:, 0]] += np.where(s <= last[v], t, 0.0).sum(axis=1)
    for q in (np.s_[z : z + 2 * step] for z in range(0, len(i), 2 * step)):  # the ends
        em, integral = _ends(c[i[q]], d[i[q]], np.stack([sa[q], sb[q]]), m, p, R, coef, phi)
        val[q] = em + np.where(far[q], 0.0, integral)
    for v in (g[z : z + 2 * step] for z in range(0, len(g), 2 * step)):  # Gauss-Legendre instead
        (nodes, weights), half = _gauss(n), (sb[v, None] - sa[v, None]) / 2  # built only if far
        t = _terms(c[i[v], None], d[i[v], None], sa[v, None] + half * (1 + nodes), m, p)
        val[v] += half[:, 0] * (t * weights).sum(axis=1)
    return out + np.bincount(i, val, minlength=len(k))


def self_level_powersums(d2, m, p):
    """sum over {|n| = k} of |self-commutator coefficient|^p, per level.

    d2 holds delta2(0..kmax) and p > 0 is finite; level k = 0..kmax sums
    f(s) = w(s)|c_k - s D_k|^p over s = 0..k, w(s) = C(s+m-2, m-2): the
    coefficient at n with n_j = k - s is c_k - s D_k, c_k = b_k + k D_k,
    b_k = d2[k]/(k+m), D_k = b_k - d2[k-1]/(k+m-1) (n_j = 0 agrees).

    f is smooth but at x_k = c_k/D_k, and w vanishes at s = -1..-(m-2).
    Integers s < R or within R of x_k are summed directly, the at most two
    segments [a, b] left by Euler-Maclaurin with r corrections and the integral
    Phi(b) - Phi(a) (_ends) or, where x_k lies farther than b - a and Phi would
    cancel (D_k = 0 too), an n-node Gauss-Legendre one. On a segment
    |f^(j)| <= f (P)_j R^-j by Leibniz and Vandermonde (P = p + m - 2, (P)_j
    rising) and int f <= e^(P/R) sum f, so the remainder 2 zeta(2r) (2 pi)^-2r
    int |f^(2r)| is within (pi^2/3) (P)_2r (2 pi R)^-2r e^(P/R) of the sum.
    (R, r), r <= 64, is the pair with the least R + r (R terms a level, 2r
    Horner steps a segment) that keeps this within 2^-53, R searched over
    the integers. Mapped onto [-1, 1], a far
    segment has x_k beyond +-3: f is analytic in the Bernstein ellipse
    rho = 3 + sqrt(8) and at most M = (m-1) 2^(m-2) 3^p times its mean there,
    and n is the least with (32/15) M rho^-2n e^(P/R)/(rho^2-1) <= 2^-53, the
    Gauss-Legendre bound. A level costs R terms, at most 2R more where the
    integers lo..hi within R of x_k meet [R, k], two end values per non-empty
    segment and n per far segment (R + 2 where x_k <= 0, as x_k = 1 - q on hp),
    O(K) in all, but R > P/(2 pi): where kmax + 1 < 3R + n, each is summed
    whole. Level k is divided by max(|c_k|, |b_k|), so its largest term is
    about 1 and the p-th power of that scale, brought back, is 0 or inf past
    the float range, never NaN; rounding leaves about p ulps.
    """
    kmax, out = len(d2) - 1, np.empty(len(d2))
    k = np.arange(1, kmax + 1, dtype=np.float64)
    b = d2[1:] / (k + m)
    diff = b - d2[:-1] / (k + m - 1)
    c = b + k * diff
    if m == 1:  # one index a level: no weight and no rules
        with np.errstate(all="ignore"):
            return np.concatenate([[d2[0] ** p], np.abs(c) ** p])
    R, coef, phi, n = _rules(m, p)
    with np.errstate(all="ignore"):  # an overflow gives inf; the rest is masked out
        out[0] = (d2[0] / m) ** p
        top = np.where((c == 0) & (b == 0), 1.0, np.fmax(np.abs(c), np.abs(b)))  # at s = 0, k
        c, diff = c / top, diff / top
        R = kmax + 1 if kmax + 1 < 3 * R + n else R
        for q in (np.s_[z : z + CHUNK] for z in range(0, kmax, CHUNK)):  # O(CHUNK) memory
            out[1:][q] = _scaled_levels(k[q], c[q], diff[q], m, p, R, coef, phi, n)
        mant, e = np.frexp(top)  # top^p = 2^(e floor(p) + f), f of the size of p
        f = e * (p % 1) + p * np.log2(mant)
        e = np.clip(e * (p // 1) + f // 1, -4e3, 4e3).astype(int)  # beyond: 0 or inf anyway
        out[1:] = np.ldexp(out[1:] * np.exp2(f % 1), e)
    return out


def pairsum(k, m, p, offset):
    """sum over {|n| = k, n_j > 0} of n_j^(p/2) * (n_l + offset)^(p/2), j != l."""
    w = _pair_weights(k, m, p, offset)
    t = np.arange(1, k + 1, dtype=np.float64)
    # numpy's pairwise sum, not np.dot, whose BLAS kernel depends on the CPU
    return float(np.sum(t ** (p / 2.0) * w[::-1]))


def _bands(lo, stop, exponent):
    """The tilted FFT bands [lo, hi) that cover lo..stop-1, each with its
    FFT size: hi/lo = 1 + min(1, 3/sqrt(exponent)), and the size a power of
    two >= 2*hi - 1 - lo, so that no wrapped-around term reaches [lo, hi)."""
    ratio = 1.0 + min(1.0, 3.0 / math.sqrt(exponent))
    while lo < stop:
        hi = min(stop, math.ceil(lo * ratio))
        yield lo, hi, 1 << (2 * hi - lo - 2).bit_length()
        lo = hi


def _cross_pair_sums(n, m, p):
    """Pair sums at offset 1 of levels 1..n: entry l is sum_{i+j=l} a[i] w[j],
    a[i] = (i+1)^(p/2) and w the pair weights.

    Every term is positive and the sums grow like l^(p+m-1). Entries
    0.._BASE-1 are summed directly. Above them, each band [lo, hi) of entries
    is one FFT product of a[:hi] and w[:hi], both tilted by r^i with
    r = e^(-lambda), lambda = (p+m-1)/hi, so that the band's tilted outputs
    sit at the peak of l^(p+m-1) e^(-lambda l) and none is lost under the
    transform's rounding error, which is relative to the largest output. The
    ratio hi/lo = 1 + min(1, 3/sqrt(p+m-1)) keeps the band's low end above
    about e^-4.5 times that peak. Inputs are scaled by powers of two, which
    is exact, and the output is untilted by dividing by r^l. Where a sum or
    w overflows float64 the entry is inf, as a direct sum gives.
    """
    with np.errstate(over="ignore"):
        a = np.arange(1, n + 1, dtype=np.float64) ** (p / 2.0)
        w = _pair_weights(n, m, p, 1.0)
    # w is nondecreasing, at least a, and each pair sum is at least its w
    finite = int(np.isfinite(w).sum())
    out = np.full(n, np.inf)
    base = min(finite, _BASE)
    lag = np.subtract.outer(np.arange(base), np.arange(base))
    with np.errstate(over="ignore"):
        out[:base] = (np.tril(w[np.abs(lag)]) * a[:base]).sum(axis=1)
    exponent = p + m - 1
    for lo, hi, size in _bands(base, finite, exponent):
        tilt = math.exp(-exponent / hi) ** np.arange(hi)
        at, wt = a[:hi] * tilt, w[:hi] * tilt
        ea, ew = np.frexp(at.max())[1], np.frexp(wt.max())[1]  # exact scaling: maxima in [0.5, 1)
        conv = np.fft.rfft(np.ldexp(at, -ea), size) * np.fft.rfft(np.ldexp(wt, -ew), size)
        conv = np.fft.irfft(conv, size)
        with np.errstate(over="ignore"):
            out[lo:hi] = np.ldexp(conv[lo:hi] / tilt[lo:hi], ea + ew)
    return out


def _log_cross_pair_sums(n, m, p, lo):
    """Natural logs of the pair sums of _cross_pair_sums, entries lo..n-1.

    The same tilted bands, fed from log a and log w: neither the inputs nor
    the sums leave the float range, whatever their size. Used only where
    the float pair sum overflows; the relative error grows with the size of
    the log, about 1e-13 at sums near e^1000.
    """
    la = (p / 2.0) * np.log(np.arange(1, n + 1, dtype=np.float64))
    lw = la
    for _ in range(m - 2):
        lw = np.logaddexp.accumulate(lw)
    exponent, start = p + m - 1, lo
    out = np.empty(n - lo)
    for lo, hi, size in _bands(start, n, exponent):
        tilt = exponent / hi * np.arange(hi)
        ta, tw = la[:hi] - tilt, lw[:hi] - tilt
        ca, cw = ta.max(), tw.max()
        conv = np.fft.rfft(np.exp(ta - ca), size) * np.fft.rfft(np.exp(tw - cw), size)
        conv = np.fft.irfft(conv, size)
        out[lo - start : hi - start] = np.log(conv[lo:hi]) + tilt[lo:hi] + (ca + cw)
    return out


def cross_level_powersums(d2, m, p):
    """sum over {|n| = k} of |cross-commutator singular value|^p, per level.

    Level k carries |D_k|^p times the pair sum at offset 1; the pair sums of
    all levels are one convolution of t^(p/2) with the pair weights: levels
    1..64 summed directly, the rest in tilted FFT bands (_cross_pair_sums).
    A band's FFT rounding error is about log2(size) ulps of its largest
    tilted output, and each of its levels is above about e^-4.5 times that
    output, so the relative error per level is bounded by about
    90 * log2(size) ulps, 3e-13 at K = 20000. Against a direct convolution
    the worst seen is 5.2e-15, over m = 2..5, p <= 200 and K <= 20000, at
    every level where the direct sum is finite. One rule covers every level
    whose float product |D_k|^p * pair cannot hold it, where the pair sum
    overflows float64 or |D_k|^p underflows to 0 with D_k != 0: the level
    is exp(p log|D_k| + log pair sum), the log of an overflowing pair sum
    from _log_cross_pair_sums. It is 0 only where the level itself is below
    the float range, inf where it is above, and never NaN.
    """
    kmax = len(d2) - 1
    out = np.zeros(kmax + 1)
    k = np.arange(1, kmax + 1, dtype=np.float64)
    diff = d2[1:] / (k + m) - d2[:-1] / (k + m - 1)
    pair = _cross_pair_sums(kmax, m, p)
    over = np.isinf(pair)
    powered = np.abs(diff) ** p
    out[1:] = powered * np.where(over, 1.0, pair)
    past = over | (powered == 0) & (diff != 0)  # the float product cannot hold the level
    if past.any():
        log_pair = np.log(pair)
        if over.any():
            lo = int(np.argmax(over))
            log_pair[lo:][over[lo:]] = _log_cross_pair_sums(kmax, m, p, lo)[over[lo:]]
        with np.errstate(divide="ignore", over="ignore"):
            out[1:][past] = np.exp(p * np.log(np.abs(diff[past])) + log_pair[past])
    return out


def abs_sum(k, m, p, s):
    """sum over {|n| = k} of |s*n_j - 1|^p."""
    t = np.arange(k + 1, dtype=np.float64)
    return float(np.sum(_comp_counts(k - t, m) * np.abs(s * t - 1.0) ** p))  # a pairwise sum


def fit_slope(x, y):
    """Least-squares slope of y against x, in closed form from the centred data.

    y is scratch and is overwritten; x is left as it is. The centred x is formed
    in blocks of CHUNK, so the fit allocates nothing of the length of its data.
    The two sums of products are pairwise sums (np.sum) over the whole of y,
    which stay within a few ulps of an extended-precision fit where np.dot
    does not. An inf or NaN in y gives NaN, as np.polyfit does, and no warning.
    """
    xm = x.mean()
    with np.errstate(invalid="ignore"):
        y -= y.mean()
        for a in range(0, len(x), CHUNK):
            y[a : a + CHUNK] *= x[a : a + CHUNK] - xm
        num = y.sum()
    for a in range(0, len(x), CHUNK):
        xc = np.subtract(x[a : a + CHUNK], xm, out=y[a : a + CHUNK])
        xc *= xc
    return float(num / y.sum())


def series_verdict(slope):
    """The verdict on a series whose terms decay like k^slope: "converges",
    "diverges", or "inconclusive" for a slope within FIT_MARGIN of -1 (or a
    NaN). The one convergence band of the log-log tail fits."""
    if slope < -1.0 - FIT_MARGIN:
        return "converges"
    if slope > -1.0 + FIT_MARGIN:
        return "diverges"
    return "inconclusive"


def kahan_cumsum(x):
    """A plain left-to-right np.cumsum(x); the name is kept for its callers."""
    return np.cumsum(x)
