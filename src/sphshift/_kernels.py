"""Hot per-level summation kernels (numpy).

Sums over a whole degree level {|n| = k} are reduced through composition
counts C(x+m-2, m-2) and iterated prefix sums instead of enumerating the
level. The self-commutator sums split each level into aligned dyadic blocks
away from the summand's root, each summed by an n-point discrete Chebyshev
rule with n linear in p, so that the interpolation bound keeps each block
within 1e-15; the cross-commutator sums are one convolution over all levels,
done by FFT. Both cost O(K log K) up to level K. fit_slope is the one
least-squares line fit of the tail exponents, and series_verdict the one
band that reads a fitted exponent.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Levels per chunk of self_level_powersums: a CHUNK of terms at kmax 1e4.
_LEVELS = 128

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
    """C(x+m-2, m-2) for integer array x >= 0: compositions of x in m-1 parts.

    With m = 1 there are no parts, and only x = 0 splits into none.
    """
    if m == 1:
        return (np.asarray(x) == 0).astype(np.float64)
    counts = np.ones_like(x, dtype=np.float64)
    for i in range(1, m - 1):
        counts *= (x + i) / i
    return counts


def _pair_weights(n, m, p, offset):
    """(u+offset)^(p/2) for u = 0..n-1, prefix-summed m-2 times.

    Entry x sums (n_l + offset)^(p/2) over every way of spreading x units
    on the m-1 coordinates other than n_j.
    """
    w = (np.arange(n, dtype=np.float64) + offset) ** (p / 2.0)
    for _ in range(m - 2):
        w = np.cumsum(w)
    return w


@functools.lru_cache(maxsize=None)
def _block_rule(q, n):
    """Nodes and weights that sum every polynomial of degree < n over the
    integers 0..2^q-1 exactly: the first-kind Chebyshev points, weighted by
    the block's sums of T_0..T_{n-1} (the discrete Chebyshev moments)."""
    u = np.linspace(-1.0, 1.0, 1 << q)
    moments, t0, t1 = np.empty(n), np.ones_like(u), u
    for j in range(n):
        moments[j], t0, t1 = t0.sum(), t1, 2.0 * u * t1 - t0
    moments[0] /= 2.0
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    weights = (np.cos(np.outer(theta, np.arange(n))) * moments).sum(axis=1) * (2.0 / n)
    return np.array([((1 << q) - 1) / 2.0 * (1.0 + np.cos(theta)), weights])


def _split(k, root, q0):
    """Blocks (level, q, start) and direct terms (level, s) of levels k.

    A block [j 2^q, (j+1) 2^q), q >= q0, lies in [0, k], 2^q or more from the
    root and in no such block of scale q + 1: per scale and level at most two
    left of the root, two right of it and one at k. The rest goes direct.
    """
    scales = np.arange(max(int(k[-1] + 1).bit_length(), q0 + 1), q0 - 1, -1)[:, None]
    size = np.ldexp(1.0, scales)  # the top scale holds no block
    end = np.floor((k + 1) / size) - 1
    left = np.minimum(np.floor((root + 1) / size) - 2, end)
    right = np.maximum(np.ceil(root / size) + 1, 0)
    l, r, e, pl, pr, pe = left[1:], right[1:], end[1:], left[:-1], right[:-1], end[:-1]
    first = 2 * np.maximum(pl, -1) + 2, r, np.maximum(np.maximum(r, 2 * pe + 2), 2 * pr)
    j = np.stack([first[0], first[0] + 1, first[1], first[1] + 1, first[2]])
    used = j <= np.stack([l, l, np.minimum(e, 2 * pr - 1), np.minimum(e, 2 * pr - 1), e])
    _, bq, bl = np.nonzero(used)
    bq = scales[1:, 0][bq]
    lo = np.concatenate([(np.maximum(l[-1], -1) + 1) * size[-1],
                         np.minimum(np.maximum(e[-1] + 1, r[-1]) * size[-1], k + 1)])
    counts = (np.concatenate([np.minimum(r[-1] * size[-1], k + 1), k + 1]) - lo).astype(np.int64)
    dl = np.repeat(np.tile(np.arange(len(k)), 2), counts)
    ds = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return (bl, bq, np.ldexp(j[used], bq)), (dl, ds)


def _terms(c, diff, s, m, p):
    """C(s+m-2, m-2) |c - s diff|^p, the summand at s units off the axis; s is scratch."""
    t = s * diff
    np.power(np.abs(np.subtract(c, t, out=t), out=t), p, out=t)
    for _ in range(m - 2):
        s += 1.0
        t *= s
    t /= math.factorial(m - 2)
    return t


def self_level_powersums(d2, m, p):
    """sum over {|n| = k} of |self-commutator coefficient|^p, per level.

    d2 holds delta2(0..kmax) and p > 0 is finite; returns an array over
    k = 0..kmax. The coefficient at n with n_j = t is t*D_k + b_k where
    b_k = d2[k]/(k+m) and D_k = d2[k]/(k+m) - d2[k-1]/(k+m-1); the t = 0
    branch coincides with the formula, so one linear form covers the whole
    level. With s = k - t units on the other coordinates the coefficient is
    c_k - s*D_k, c_k = b_k + k*D_k, and s carries the weight C(s+m-2, m-2).

    The summand is smooth but at the root x_k = c_k/D_k. Each level is split
    (_split) into the largest aligned dyadic blocks at least their own
    length from x_k, summed by the n-node rule of _block_rule. Mapped onto
    [-1, 1], a block lies 2 or more from x_k (and the weight's roots lie at
    s <= -1), so in the Bernstein ellipse rho = 3 + sqrt(8) the summand is
    analytic and at most M = (m-1) 3^(p+m-2) times its block mean; n is the
    least with 4 M rho^(1-n)/(rho-1) < 1e-15 (the Chebyshev interpolation
    bound). The smallest block is the least power of two >= 2n with positive
    weights, so an overflow gives inf, as a direct sum does. A level costs
    O(n log k) terms, K levels O(K log K), in chunks of _LEVELS levels.
    """
    kmax = len(d2) - 1
    out = np.empty(kmax + 1)
    out[0] = (d2[0] / m) ** p
    k = np.arange(1, kmax + 1, dtype=np.float64)
    b = d2[1:] / (k + m)
    diff = b - d2[:-1] / (k + m - 1)
    c = b + k * diff
    if m == 1:
        out[1:] = np.abs(c) ** p
        return out
    rho = 3.0 + math.sqrt(8.0)
    bound = math.log(4e15 * (m - 1) / (rho - 1)) + (p + m - 2) * math.log(3.0)
    n = 1 + math.ceil(bound / math.log(rho))
    q0 = min((2 * n - 1).bit_length(), (kmax + 1).bit_length())  # past kmax: no block
    while 1 << q0 <= kmax + 1 and _block_rule(q0, n)[1].min() <= 0:
        q0 += 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = np.fmin(np.fmax(c / diff, -k - 1.0), 2.0 * k + 3.0)  # beyond either: no root
    for a in range(0, kmax, _LEVELS):
        z = slice(a, a + _LEVELS)
        (bl, bq, start), (dl, ds) = _split(k[z], root[z], q0)
        rules = [_block_rule(q, n) for q in range(q0, bq.max(initial=q0 - 1) + 1)]
        rules = np.array(rules).reshape(-1, 2, n)
        t = _terms(c[z][bl, None], diff[z][bl, None], rules[bq - q0, 0] + start[:, None], m, p)
        out[1 + a : 1 + a + len(root[z])] = (
            np.bincount(bl, (t * rules[bq - q0, 1]).sum(axis=1), minlength=len(root[z]))
            + np.bincount(dl, _terms(c[z][dl], diff[z][dl], ds, m, p), minlength=len(root[z])))
    return out


def pairsum(k, m, p, offset):
    """sum over {|n| = k, n_j > 0} of n_j^(p/2) * (n_l + offset)^(p/2), j != l."""
    if k == 0:
        return 0.0
    w = _pair_weights(k, m, p, offset)
    t = np.arange(1, k + 1, dtype=np.float64)
    # numpy's pairwise sum, not np.dot, whose BLAS kernel depends on the CPU
    return float(np.sum(t ** (p / 2.0) * w[::-1]))


def _normalized(x):
    """x scaled by a power of two (exactly) so that its maximum lies in [0.5, 1)."""
    e = int(np.frexp(x.max())[1])
    return np.ldexp(x, -e), e


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
    0.._BASE-1 are summed directly. Above them, each band [lo, hi) of
    entries is one FFT product of a[:hi] and w[:hi], both tilted by
    r^i with r = e^(-lambda), lambda = (p+m-1)/hi, so that the band's
    tilted outputs sit at the peak of l^(p+m-1) e^(-lambda l) and none is
    lost under the transform's rounding error, which is relative to the
    largest output. The ratio hi/lo = 1 + min(1, 3/sqrt(p+m-1)) keeps the
    band's low end above about e^-4.5 times that peak. Inputs are scaled
    by powers of two, which is exact, and the output is untilted by
    dividing by r^l. Where a sum or w overflows float64 the entry is inf,
    as a direct sum gives.
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
        at, ea = _normalized(a[:hi] * tilt)
        wt, ew = _normalized(w[:hi] * tilt)
        conv = np.fft.irfft(np.fft.rfft(at, size) * np.fft.rfft(wt, size), size)
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
        ta = la[:hi] - tilt
        tw = lw[:hi] - tilt
        ca, cw = ta.max(), tw.max()
        conv = np.fft.irfft(
            np.fft.rfft(np.exp(ta - ca), size) * np.fft.rfft(np.exp(tw - cw), size), size
        )
        out[lo - start : hi - start] = np.log(conv[lo:hi]) + tilt[lo:hi] + (ca + cw)
    return out


def cross_level_powersums(d2, m, p):
    """sum over {|n| = k} of |cross-commutator singular value|^p, per level.

    Level k carries |D_k|^p times the pair sum at offset 1; the pair sums
    of all levels are one convolution of t^(p/2) with the pair weights:
    levels 1..64 summed directly, the rest in tilted FFT bands
    (_cross_pair_sums). A band's FFT rounding error is about log2(size)
    ulps of its largest tilted output, and each of its levels is above
    about e^-4.5 times that output, so the relative error per level is
    bounded by about 90 * log2(size) ulps, 3e-13 at K = 20000.
    Against a direct convolution the worst seen is 5.2e-15, over
    m = 2..5, p <= 200 and K <= 20000, at every level where the direct sum
    is finite. Where the pair sum overflows float64, the level is
    exp(p log|D_k| + log pair sum) from _log_cross_pair_sums: 0 where
    that underflows, inf where it overflows, and never NaN. Where instead
    |D_k|^p underflows to 0 (D_k != 0) under a finite pair sum, the level
    is the same exp of the sum of logs, so it is 0 only when the level
    itself is below the float range.
    """
    kmax = len(d2) - 1
    out = np.zeros(kmax + 1)
    if kmax == 0:
        return out
    k = np.arange(1, kmax + 1, dtype=np.float64)
    diff = d2[1:] / (k + m) - d2[:-1] / (k + m - 1)
    pair = _cross_pair_sums(kmax, m, p)
    over = np.isinf(pair)
    powered = np.abs(diff) ** p
    out[1:] = powered * np.where(over, 1.0, pair)
    under = (powered == 0) & (diff != 0) & ~over
    if under.any():
        out[1:][under] = np.exp(p * np.log(np.abs(diff[under])) + np.log(pair[under]))
    if over.any():
        lo = int(np.argmax(over))
        with np.errstate(divide="ignore", over="ignore"):
            logs = p * np.log(np.abs(diff[lo:])) + _log_cross_pair_sums(kmax, m, p, lo)
            out[1 + lo :][over[lo:]] = np.exp(logs[over[lo:]])
    return out


def abs_sum(k, m, p, s):
    """sum over {|n| = k} of |s*n_j - 1|^p."""
    t = np.arange(k + 1, dtype=np.float64)
    vals = np.abs(s * t - 1.0) ** p
    return float(np.sum(_comp_counts(k - t, m) * vals))  # pairwise, as in pairsum


def fit_slope(x, y):
    """Least-squares slope of y against x, in closed form from the centred data.

    y is scratch and is overwritten; x is left as it is. The centred x is
    formed in blocks of CHUNK, so the fit allocates nothing of the length
    of its data. The two sums of products are pairwise sums (np.sum) over
    the whole of y, which stay within a few ulps of an extended-precision
    fit where np.dot does not. An inf or NaN in y gives NaN, as np.polyfit
    does, and no warning.
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
    """Cumulative sums of x as a plain left-to-right np.cumsum.

    The name is kept for its callers; no compensation is applied.
    """
    return np.cumsum(x)
