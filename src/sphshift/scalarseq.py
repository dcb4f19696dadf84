"""Scalar weight sequences: the one-variable data behind a spherical shift.

A sequence is defined by its squared weight ratios delta2(k) with the
normalization log_bbeta(0) = 0 (everything downstream is scale-covariant,
so the anchor is a pure convention); gamma(k) = exp(2 log_bbeta(k)) is the
squared cumulative weight. Each family states delta2 once per kind: one
float generator over a whole horizon, one exact rational evaluator per k,
and one sup. Every number a family is given enters its exact values as a
Fraction, a float at its exact binary value, so every delta2 and every
known sup is exact. Asymptotic facts, derived from the coefficients of a
rational delta2 (RationalDelta2) and declared by the other families, let
analytic paths skip sampling; the rest falls back to sampled answers, which
live here beside is_bounded, one heuristic per question with its thresholds
and window: is_compact, essential_normality_gate and suspect_unbounded. The
analysis layers (spectra, schatten, classify) import only this module and
_kernels, never one another.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from typing import Optional, Sequence, Tuple

import numpy as np

# Default horizons and orders of the layers above, stated once here, where
# the CLI reads them without loading those layers.
DEFAULT_K = 100_000         # spectra and schatten: float horizon
DEFAULT_J = 60              # spectra: lags of the radius scans
DEFAULT_K_EXACT = 200       # classify: exact horizon
DEFAULT_K_SAMPLED = 10_000  # classify and is_bounded: sampled horizon
DEFAULT_P = 8               # classify: subnormality order
DEFAULT_Q = 6               # classify: expansion orders

# Values of k per block of every scan over a horizon (the snapshot fill, the
# spectra lag scans, the Schatten series, the streamed fits): a block and its
# temporaries stay in cache, and larger blocks gain no speed.
CHUNK = 1 << 16


class VerificationError(Exception):
    """Two routes to one result disagree, or the operator under test breaks
    an assumption of the check: a verification failure, not a usage error."""


class TableRangeError(Exception):
    """Raised when a tabulated family is evaluated beyond its table and no
    tail rule was declared."""


@dataclass(frozen=True)
class BoundednessReport:
    """Outcome of a boundedness probe: sup_k delta_k < infinity?"""

    verdict: str            # "family-declared" | "no-evidence"
    sup_delta2: float       # declared or sampled sup of delta2
    horizon: Optional[int]  # sampling horizon when verdict == "no-evidence"
    qualifier: str = ""


@dataclass(frozen=True)
class Verdict:
    value: Optional[bool]
    mode: str                    # "analytic" | "exact" | "sampled"
    horizon: Optional[int] = None
    witness: Optional[tuple] = None
    note: str = ""


def _to_number(x):
    """A parameter as given: a Fraction for int/str/Fraction input, a float
    stays float."""
    return x if isinstance(x, float) else Fraction(x)


def _exact(x, what: str) -> Fraction:
    """x as a Fraction, a float at its exact binary value; ValueError naming
    ``what`` when x is not a finite number."""
    try:
        return Fraction(x)
    except (OverflowError, ValueError):
        raise ValueError(f"{what} = {x} is not a finite number") from None


def _float_square(c) -> float:
    """c * c rounded once to float (an exact c is squared exactly first);
    ValueError unless it is a finite positive float."""
    try:
        c2 = float(c * c)
    except OverflowError:
        c2 = math.inf
    if not 0.0 < c2 < math.inf:
        raise ValueError("weight c: c**2 is not a finite positive float")
    return c2


class ScalarSequence:
    """Base class: the delta2 snapshots and the log-space accumulation.

    A family states delta2 through three methods:

    * ``_delta2_values(kmax)``, the one float generator: delta2(0..kmax)
      as float64, called only by ``_ensure``;
    * ``delta2_exact(k)``, the one exact evaluator: always a Fraction;
    * ``sup_delta2()``: the sup as a Fraction when the family knows it,
      None otherwise.

    ``_ensure`` keeps the one float snapshot every array reader shares,
    grown to exactly the horizon asked for, and is the one place that
    rejects a float delta2 that is not finite and positive: ``delta2_array``
    and ``log_bbeta_array`` serve read-only views of it. The exact values
    take every input through ``_exact``, which refuses nan and infinities.
    ``delta2_exact_array`` keeps the one exact snapshot and refuses a
    delta2 that is not positive; it is the only reader of ``delta2_exact``
    outside this module, and ``exact_defects`` turns it into the integer
    defect diagonals L_q that ``classify`` signs and ``shift`` rounds.
    Instances are immutable after construction; caches only grow and never
    change values.
    """

    name = "scalar-sequence"

    # Declared (derived, for RationalDelta2) facts; None means "unknown, use sampled paths".
    delta2_limit: Optional[float] = None       # lim delta2(k) when it exists
    delta2_liminf: Optional[float] = None
    monotone_nondecreasing: Optional[bool] = None   # delta_k nondecreasing
    essentially_normal_declared: Optional[bool] = None
    diff_decay_ck: Optional[bool] = None       # |delta2(k) - delta2(k-1)| <= C/k
    schatten_divergence: Optional[str] = None  # why no S_p, p < inf, holds the cross-commutators

    def __init__(self):
        self._d2 = np.zeros(0)
        self._logbb = np.zeros(0)  # built from _d2 on first use
        self._d2x = ()             # delta2_exact(0), delta2_exact(1), ...

    # -- what a family states ---------------------------------------------

    def _delta2_values(self, kmax: int) -> np.ndarray:
        raise NotImplementedError

    def delta2_exact(self, k: int) -> Fraction:
        raise NotImplementedError

    def sup_delta2(self) -> Optional[Fraction]:
        return None

    # -- the cached snapshots --------------------------------------------

    def _ensure(self, kmax: int) -> None:
        """Grows the float snapshot to delta2(0..kmax). One min and one max
        test it; the byte masks that find the first bad k are built only
        when it has one."""
        if len(self._d2) > kmax:
            return
        try:
            with np.errstate(all="ignore"):
                d2 = self._delta2_values(kmax)
                good = d2.min() > 0 and d2.max() < math.inf  # a NaN fails both
        except OverflowError as exc:  # float() of a Fraction beyond the float range
            raise ValueError(f"{self.name}: delta2 over k <= {kmax} leaves the float range") from exc
        if not good:
            k = int(np.argmax(~((d2 > 0) & (d2 < math.inf))))
            raise ValueError(f"{self.name}: delta2({k}) = {d2[k]} is not finite and positive")
        d2.flags.writeable = False
        self._d2 = d2

    def delta2_array(self, kmax: int) -> np.ndarray:
        """delta2(0..kmax) inclusive as float64, a read-only view."""
        self._ensure(kmax)
        return self._d2[: max(kmax + 1, 0)]

    def delta2_exact_array(self, kmax: int) -> Tuple[Fraction, ...]:
        """delta2_exact(0..kmax) inclusive, each a positive Fraction.

        Exact values are per-k objects, so the snapshot grows by appending
        and evaluates each k once; read it once, at the largest k needed.
        """
        have = len(self._d2x)
        if have <= kmax:
            new = tuple(self.delta2_exact(k) for k in range(have, kmax + 1))
            bad = next((k for k, v in enumerate(new, have) if not v > 0), None)
            if bad is not None:
                raise ValueError(f"{self.name}: delta2({bad}) = {new[bad - have]} is not positive")
            self._d2x += new
        return self._d2x[: max(kmax + 1, 0)]

    def float_snapshot_error(self, kmax: int) -> float:
        """max |delta2_array(k) - delta2(k)| / delta2(k) over k = 0..kmax,
        computed exactly from the two snapshots and rounded up."""
        pairs = zip(self.delta2_array(kmax).tolist(), self.delta2_exact_array(kmax))
        err = max((abs(Fraction(f) - x) / x for f, x in pairs), default=Fraction(0))
        return math.nextafter(float(err), math.inf)

    def exact_defects(self, kmax: int, qmax: int, scale: Optional[Fraction] = None):
        """Yield (q, lead, den) for q = 1..qmax: arrays of Python ints over
        k = 0..kmax with den > 0 and lead/den = L_q(k) exactly, where
        L_q(k) = sum_{s<=q} (-1)^(q-s) C(q,s) prod_{i<s} (delta2(k+i) / S).

        gamma(k) L_q(k) / S^k is the q-th forward difference of gamma(k) / S^k
        at k, and with S = 1 (no ``scale``) (-1)^q L_q(k) is the diagonal of
        the defect operator B_q on level k. With delta2(k) / S = alpha_k /
        beta_k, the recursion L_q(k) = (delta2(k)/S) L_{q-1}(k+1) - L_{q-1}(k)
        gives lead_q(k) = alpha_k lead_{q-1}(k+1) - beta_{k+q-1} lead_{q-1}(k)
        and den_q(k) = prod_{i<q} beta_{k+i}. Reads the exact snapshot once,
        through kmax + qmax - 1.
        """
        vals = self.delta2_exact_array(kmax + qmax - 1)
        Sn, Sd = (1, 1) if scale is None else (scale.numerator, scale.denominator)
        alpha = np.array([v.numerator * Sd for v in vals], dtype=object)
        beta = np.array([v.denominator * Sn for v in vals], dtype=object)
        lead = den = np.ones(kmax + qmax + 1, dtype=object)  # L_0 = 1 on k <= kmax + qmax
        for q in range(1, qmax + 1):
            n = kmax + qmax + 1 - q  # L_q is needed on k <= kmax + qmax - q
            lead = alpha[:n] * lead[1: n + 1] - beta[q - 1: q - 1 + n] * lead[:n]
            den = beta[:n] * den[1: n + 1]
            yield q, lead[: kmax + 1], den[: kmax + 1]

    def log_bbeta_array(self, kmax: int) -> np.ndarray:
        """log bbeta(0..kmax) inclusive, a read-only view.

        log bbeta(k) consumes delta2(0..k-1) only, but a snapshot that
        must grow is grown through delta2(kmax), which the same caller
        usually reads next; a finite table without a tail still serves
        one step past its last row.
        """
        if len(self._logbb) <= kmax:
            if len(self._d2) < kmax:
                try:
                    self._ensure(kmax)
                except TableRangeError:
                    self._ensure(kmax - 1)
            logbb = np.empty(len(self._d2) + 1)
            logbb[0] = 0.0
            half = logbb[1:]
            np.log(self._d2, out=half)
            half *= 0.5
            np.cumsum(half, out=half)
            logbb.flags.writeable = False
            self._logbb = logbb
        return self._logbb[: max(kmax + 1, 0)]

    # -- derived quantities ----------------------------------------------

    def is_bounded(self, K: int = DEFAULT_K_SAMPLED) -> BoundednessReport:
        if K < 1:
            raise ValueError("sample horizon K must be >= 1")
        sup = self.sup_delta2()
        if sup is not None:
            if not sup <= np.finfo(np.float64).max:  # so float(sup) is finite; NaN fails too
                raise ValueError(f"{self.name}: sup delta2 leaves the float range")
            return BoundednessReport(verdict="family-declared", sup_delta2=float(sup), horizon=None)
        sampled = float(np.max(self.delta2_array(K)))
        return BoundednessReport(verdict="no-evidence", sup_delta2=sampled, horizon=K,
                                 qualifier=f"sup over k <= {K} only; no declared bound")

    def scale(self, c) -> "ScaledSequence":
        """The sequence with every weight multiplied by c > 0."""
        return ScaledSequence(self, c)

    def params(self) -> dict:
        return {}

    def describe(self) -> dict:
        return {"family": self.name, **self.params()}

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"


def check_arity(seq: ScalarSequence, m: int) -> None:
    """Refuse an arity m other than the family's own, where the family has
    one (``seq.m``: its delta2 depends on m, as hp's (k+m)/(k+p) does)."""
    declared = getattr(seq, "m", None)
    if declared is not None and declared != m:
        raise ValueError(f"arity m = {m} does not match the family's own m = {declared}")


# -- sampled answers to the sequence's own questions, beside is_bounded ---

ESSNORM_SAMPLED_TOL = 1e-6


def sampled_window(K: int, window: Optional[int] = None) -> int:
    """The levels a sampled tail reads: the last K // 10 unless ``window`` is given."""
    return K // 10 if window is None else window


def quarter_sups(d2: np.ndarray) -> Optional[list]:
    """The sups of delta2 over the sample's four quarters; None below four samples."""
    return [float(np.max(q)) for q in np.array_split(d2, 4)] if len(d2) >= 4 else None


def suspect_unbounded(d2: np.ndarray) -> bool:
    """The one unboundedness heuristic: delta2 quarter sups rise, last > 2 x first."""
    sups = quarter_sups(d2)
    if sups is None:
        return False
    return all(b > a for a, b in zip(sups, sups[1:])) and sups[-1] > 2.0 * sups[0]


def is_compact(seq: ScalarSequence, K: int = DEFAULT_K_SAMPLED) -> Verdict:
    """delta_k -> 0, i.e. the tuple consists of compact operators. The one
    compactness rule, also behind the Schatten cut-off; value None when the
    sample decides nothing, and the note names the deciding branch."""
    if seq.delta2_limit is not None:
        return Verdict(seq.delta2_limit == 0, "analytic", note="declared limit of delta2")
    if seq.delta2_liminf is not None and seq.delta2_liminf > 0:
        return Verdict(False, "analytic", note="declared liminf of delta2 is positive")
    d2 = seq.delta2_array(K)
    tail, sups = d2[-max(1, sampled_window(K)):], quarter_sups(d2)
    top, low, peak = float(np.max(tail)), float(np.min(tail)), float(np.max(d2))
    if sups is None:
        value, note = None, f"only {len(d2)} samples of delta2, too few for 4 quarters: undecided"
    elif all(b < a for a, b in zip(sups, sups[1:])) and sups[-1] < 1e-2 * sups[0]:
        value, note = True, f"quarter sups of delta2 fall, last/first = {sups[-1] / sups[0]:.3e}"
    elif low > 1e-3 * peak:
        value, note = False, f"tail min delta2 = {low:.3e} > 1e-3 * max = {peak:.3e}"
    else:
        value, note = None, f"tail delta2 in [{low:.3e}, {top:.3e}], max {peak:.3e}: undecided"
    return Verdict(value, "sampled", horizon=K, note=note)


def essential_normality_gate(seq: ScalarSequence, K: int, window: Optional[int] = None) -> dict:
    """Affirm or refuse delta2(k) - delta2(k-1) -> 0."""
    if seq.essentially_normal_declared is not None:
        return {
            "value": bool(seq.essentially_normal_declared),
            "mode": "analytic",
            "detail": "declared by family",
        }
    d2 = seq.delta2_array(K)
    lo = max(1, K - sampled_window(K, window))
    # the largest step over the window, taken block by block in one scratch
    buf, worsts = np.empty(min(CHUNK, K + 1 - lo)), []
    for a in range(lo, K + 1, CHUNK):
        e = min(a + CHUNK, K + 1)
        t = np.subtract(d2[a:e], d2[a - 1 : e - 1], out=buf[: e - a])
        worsts.append(np.abs(t, out=t).max())
    worst = float(np.max(worsts))
    return {
        "value": bool(worst < ESSNORM_SAMPLED_TOL),
        "mode": "sampled",
        "detail": f"max |delta2(k)-delta2(k-1)| = {worst:.3e} over k in [{lo}, {K}]",
        "horizon": K,
    }


def descartes_sign(coeffs) -> Optional[int]:
    """Descartes' rule of signs for f(k) = sum_i coeffs[i] k^i: the sign of
    f at every k > 0 when the nonzero coefficients share it (f(0) has it or
    is 0), 0 for f = 0, None when they change sign."""
    signs = {(c > 0) - (c < 0) for c in coeffs} - {0}
    return None if len(signs) > 1 else signs.pop() if signs else 0


def fill_arange(out, start):
    """out[i] = start + i, as np.arange gives it, written in place by
    doubling: for the integers below 2^53 every sum is exact."""
    n, w = len(out), 1
    out[:1] = start
    while w < n:
        np.add(out[: min(w, n - w)], w, out=out[w : 2 * w])
        w *= 2
    return out


def _horner(coeffs, k, out=None):
    """sum_i coeffs[i] k^i: exact at an integer k; at an array k, in float64 inside out."""
    if out is None:
        return reduce(lambda acc, c: acc * k + c, reversed(coeffs), 0)
    out.fill(float(coeffs[-1]))
    for c in reversed(coeffs[:-1]):
        out *= k
        out += float(c)
    return out


def _shifted(f) -> tuple:
    """The coefficients of f(k + 1)."""
    return tuple(sum(math.comb(i, j) * f[i] for i in range(j, len(f))) for j in range(len(f)))


def _times(a, b) -> list:
    return [sum(a[i] * b[n - i] for i in range(max(0, n + 1 - len(b)), min(n + 1, len(a))))
            for n in range(len(a) + len(b) - 1)]


def _integer_form(P, Q) -> tuple:
    """P and Q times one positive integer, as ints (a float at its exact value)."""
    P, Q = [_exact(c, "coefficient") for c in P], [_exact(c, "coefficient") for c in Q]
    scale = math.lcm(*(c.denominator for c in P + Q))
    return tuple(int(c * scale) for c in P), tuple(int(c * scale) for c in Q)


class RationalDelta2(ScalarSequence):
    """delta2(k) = P_i(k)/Q_i(k) with i = k mod T, T = len(branches).

    A branch (P, Q) lists coefficients from the constant term, the leading
    one not 0: Fractions and ints, or floats from the Python API, each taken
    at its exact value. The facts are derived once, from exact values. A
    finite limit L (a ratio of leading coefficients) shared by the branches
    is delta2_limit, each branch being L + O(1/k): essentially normal with
    O(1/k) steps. Else neither holds, nor monotonicity, and the least limit
    is delta2_liminf. The step into branch i+1 at k+1 has the sign of
    D_i Q_i(k) Q_{i+1}(k+1), D_i = P_{i+1}(k+1) Q_i(k) - P_i(k) Q_{i+1}(k+1),
    where Descartes' rule signs all three. The sup is the largest constant
    branch, or one one-signed branch's limit (rising) or delta2(0).
    """

    def __init__(self, branches):
        super().__init__()
        self.branches = tuple((tuple(P), tuple(Q)) for P, Q in branches)
        forms = self._forms = tuple(_integer_form(P, Q) for P, Q in self.branches)
        limits = [math.inf if len(P) > len(Q) else Fraction(P[-1], Q[-1]) if len(P) == len(Q)
                  else Fraction(0) for P, Q in forms]
        one_limit = len(set(limits)) == 1
        self.essentially_normal_declared = self.diff_decay_ck = one_limit and limits[0] < math.inf
        if self.essentially_normal_declared:
            self.delta2_limit = float(limits[0])
        else:
            self.delta2_liminf = float(min(limits))
        steps = []
        for (P, Q), (Pn, Qn) in zip(forms, forms[1:] + forms[:1]):
            D = [a - b for a, b in zip_longest(_times(_shifted(Pn), Q), _times(P, _shifted(Qn)),
                                               fillvalue=0)]
            signs = (descartes_sign(D), descartes_sign(Q) or None, descartes_sign(Qn) or None)
            steps.append(None if None in signs else math.prod(signs))
        if not one_limit or -1 in steps:
            self.monotone_nondecreasing = False
        elif None not in steps:
            self.monotone_nondecreasing = True
        sup = max(limits) if all(len(P) == len(Q) == 1 for P, Q in forms) else None
        if len(forms) == 1 and steps[0] is not None:
            sup = limits[0] if steps[0] >= 0 else Fraction(forms[0][0][0], forms[0][1][0])
        self._sup = None if sup in (None, math.inf) else sup

    def delta2_exact(self, k: int) -> Fraction:
        P, Q = self._forms[k % len(self._forms)]
        return Fraction(_horner(P, k), _horner(Q, k))

    def _delta2_values(self, kmax: int) -> np.ndarray:
        """The snapshot, formed one CHUNK block of k at a time
        straight into it: k is never an array of the horizon's length. A
        constant branch is a fill and a degree-1 denominator is formed
        inside k; only another denominator has a block of scratch."""
        T, out, chunk = len(self.branches), np.empty(kmax + 1), CHUNK
        fills = []
        for i, ((P, Q), (Pz, Qz)) in enumerate(zip(self.branches, self._forms)):
            if len(P) == len(Q) == 1:  # a constant branch: its exact ratio, rounded once
                out[i::T] = float(Fraction(Pz[0], Qz[0]))
            else:
                fills.append((i, P, Q))
        if not fills:
            return out
        k = np.arange(min(kmax + 1, chunk), dtype=np.float64)
        den = np.empty(len(k)) if any(len(Q) != 2 for _, _, Q in fills) else None
        for a in range(0, kmax + 1, chunk):
            ks = fill_arange(k[: kmax + 1 - a], a) if a else k  # the first block is k as built
            block = out[a : a + chunk]
            for i, P, Q in fills:  # branch i holds the k = i mod T
                x = ks[(i - a) % T :: T]
                o = _horner(P, x, block[(i - a) % T :: T])
                if len(Q) == 2:  # a degree-1 denominator is formed inside k
                    x *= float(Q[1])
                    o /= np.add(x, float(Q[0]), out=x)
                else:
                    o /= _horner(Q, x, den[: len(o)])
        return out

    def sup_delta2(self) -> Optional[Fraction]:
        return self._sup


class HpSpace(RationalDelta2):
    """The kernel-scale family: delta2(k) = (k+m)/(k+p).

    p = m is the Hardy/Szego sequence, p = m+1 Bergman, p = 1 Drury-Arveson.
    """

    name = "hp"

    def __init__(self, m: int, p):
        if m < 1:
            raise ValueError("arity m must be >= 1")
        self.m = int(m)
        self.p = _to_number(p)
        if not self.p > 0:
            raise ValueError("parameter p must be positive")
        super().__init__([((self.m, 1), (_exact(self.p, "parameter p"), 1))])

    def params(self):
        return {"m": self.m, "p": str(self.p)}


class ConstantDelta(RationalDelta2):
    """delta_k = c for every k: the geometric scalar sequence."""

    name = "constant"

    def __init__(self, c):
        self.c = _to_number(c)
        if not self.c > 0:
            raise ValueError("constant weight c must be positive")
        _float_square(self.c)
        c = _exact(self.c, "weight c")
        super().__init__([((c * c,), (1,))])

    def params(self):
        return {"c": str(self.c)}


# The most (integers scanned) x (degree + 1) of PolynomialGamma's exact scan: ~0.1 s.
POSITIVITY_SCAN_BUDGET = 200_000


class PolynomialGamma(RationalDelta2):
    """gamma(k) = S(k)/S(0), so delta2(k) = S(k+1)/S(k), for a polynomial S
    certified positive on N exactly: by Descartes' rule, or else by S(k) > 0
    at each integer k up to the Cauchy root bound, if that scan fits
    POSITIVITY_SCAN_BUDGET; the leading coefficient must be positive."""

    name = "poly-gamma"

    def __init__(self, coefficients: Sequence):
        coeffs = [_exact(c, "gamma coefficient") for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs or coeffs[-1] <= 0:
            raise ValueError("leading coefficient must be positive")
        if not (coeffs[0] > 0 and descartes_sign(coeffs) == 1):
            S = _integer_form(coeffs, ())[0]
            bound = 1 + max(-(-abs(c) // S[-1]) for c in S[:-1])  # rounded up
            if (bound + 1) * len(S) > POSITIVITY_SCAN_BUDGET:
                raise ValueError("cannot certify S(k) > 0 for every k >= 0: the coefficients "
                                 "change sign, and the Cauchy root bound, about "
                                 f"10^{math.log10(bound):.0f}, is beyond the exact scan")
            for k in range(bound + 1):
                if _horner(S, k) <= 0:
                    raise ValueError(f"polynomial is not positive at k = {k}")
        self.coefficients, self.degree = tuple(coeffs), len(coeffs) - 1
        super().__init__([(_shifted(coeffs), coeffs)])

    def params(self):
        return {"coefficients": [str(c) for c in self.coefficients]}


class AlternatingTwelve(RationalDelta2):
    """gamma(2k) = 12^(-k), gamma(2k+1) = 12^(-k)/3.

    delta2 alternates between 1/3 and 1/4, so the sequence is bounded with
    concave-type third differences but is not essentially normal: the
    difference |delta2(k+1) - delta2(k)| equals 1/12 at every k.
    """

    name = "alt-twelve"

    def __init__(self):
        super().__init__([((Fraction(1, 3),), (1,)), ((Fraction(1, 4),), (1,))])


class RhoEta(ScalarSequence):
    """The jointly hyponormal counterexample sequence.

    delta2(k) = rho_k with rho_0 = 1 and rho_{k+1} = rho_k + eta_k, where
    eta_k = 2^(-l) exactly when k = 2^(2^l) and 0 otherwise. rho increases
    to 3, the increments do not decay like C/k, and the cross-commutators
    escape every Schatten class.
    """

    name = "rho-eta"
    delta2_limit = 3.0
    monotone_nondecreasing = True
    essentially_normal_declared = True
    diff_decay_ck = False
    schatten_divergence = ("difference-series terms k^(m-1)|delta2(k)-delta2(k-1)|^p are "
                           "unbounded along k = 2^(2^l) + 1")

    def delta2_exact(self, k: int) -> Fraction:
        # 1 + sum of 2^(-l) over the jumps 2^(2^l) <= k - 1, which is
        # 3 - 2^(1-J) for J jumps; J counts the l with 2^l <= log2(k - 1)
        jumps = (max(k - 1, 1).bit_length() - 1).bit_length()
        return 3 - Fraction(2, 2 ** jumps)

    def _delta2_values(self, kmax: int) -> np.ndarray:
        # rho[k] - 1 sums eta over 0..k-1: eta(k) lands in entry k + 1
        rho = np.zeros(kmax + 1)
        l = 0
        while 2 ** (2 ** l) < kmax:
            rho[2 ** (2 ** l) + 1] = 0.5 ** l
            l += 1
        np.cumsum(rho, out=rho)
        rho += 1.0
        return rho

    def sup_delta2(self) -> Fraction:
        return Fraction(3)


class Tabulated(ScalarSequence):
    """delta2 values from a finite table, with an explicit tail rule.

    tail is one of:
      * "error"      - evaluation beyond the table raises (the default;
                       silent extrapolation is never performed),
      * "hold"       - repeat the last tabulated value,
      * ("const", v) - a declared constant continuation,
      * a callable k -> delta2(k), used verbatim beyond the table.
    """

    def __init__(self, values: Sequence, tail="error"):
        super().__init__()
        if len(values) == 0:
            raise ValueError("table must be non-empty")
        self.values = tuple(_to_number(v) for v in values)
        if isinstance(tail, (tuple, list)):
            if len(tail) != 2 or tail[0] != "const":
                raise ValueError(f"tail rule {tail!r} is not ('const', value)")
            tail = ("const", _to_number(tail[1]))
            if not tail[1] > 0:
                raise ValueError(f"const tail value {tail[1]} must be positive")
        self.tail = tail
        self.name = "tabulated"
        bad = next((k for k, v in enumerate(self.values) if not v > 0), None)
        if bad is not None:
            raise ValueError(f"tabulated delta2({bad}) = {self.values[bad]} is not positive")

    def _tail_value(self, k: int):
        tail = self.tail
        if tail == "hold":
            return self.values[-1]
        if isinstance(tail, tuple):
            return tail[1]
        if callable(tail):
            return tail(k)
        raise TableRangeError(f"tabulated family has {len(self.values)} entries and no tail "
                              f"rule; cannot evaluate delta2({k})")

    def delta2_exact(self, k: int) -> Fraction:
        v = self.values[k] if k < len(self.values) else self._tail_value(k)
        return _exact(v, f"{self.name}: delta2({k})")

    def _delta2_values(self, kmax: int) -> np.ndarray:
        n = len(self.values)
        out = np.empty(kmax + 1)
        out[:n] = [float(v) for v in self.values[: kmax + 1]]
        if kmax >= n:
            if callable(self.tail):
                out[n:] = [float(self.tail(k)) for k in range(n, kmax + 1)]
            else:
                out[n:] = float(self._tail_value(n))
        return out

    def sup_delta2(self) -> Optional[Fraction]:
        if self.tail != "hold" and not isinstance(self.tail, tuple):
            return None
        return max(self.delta2_exact_array(len(self.values)))  # the rows and the tail

    def params(self):
        tail = self.tail
        if callable(tail):
            tail = "formula"
        elif isinstance(tail, tuple):
            tail = f"const:{tail[1]}"
        return {"entries": len(self.values), "tail": tail}


class ScaledSequence(ScalarSequence):
    """A sequence with every weight multiplied by a positive constant c."""

    def __init__(self, base: ScalarSequence, c):
        super().__init__()
        self.base = base
        self.c = _to_number(c)
        if not self.c > 0:
            raise ValueError("scale factor must be positive")
        c2 = self._c2 = _float_square(self.c)
        self._c2x = _exact(self.c, "scale factor c") ** 2
        self.name = f"scaled({base.name})"
        self.m = getattr(base, "m", None)  # scaling keeps the base's arity
        for attr in ("delta2_limit", "delta2_liminf"):
            v = getattr(base, attr)
            setattr(self, attr, None if v is None else v * c2)
        for attr in ("monotone_nondecreasing", "essentially_normal_declared", "diff_decay_ck"):
            setattr(self, attr, getattr(base, attr))
        if base.schatten_divergence is not None:
            self.schatten_divergence = (f"the base sequence's reason, before the weights were "
                                        f"scaled by c = {self.c}: {base.schatten_divergence}")

    def delta2_exact(self, k: int) -> Fraction:
        return self._c2x * self.base.delta2_exact(k)

    def _delta2_values(self, kmax: int) -> np.ndarray:
        return self._c2 * self.base.delta2_array(kmax)

    def sup_delta2(self) -> Optional[Fraction]:
        sup = self.base.sup_delta2()
        return None if sup is None else self._c2x * sup

    def params(self):
        return {"base": self.base.describe(), "c": str(self.c)}


# -- registry and parsing -------------------------------------------------


def parse_rational(text: str) -> Fraction:
    """A number as a user types it, kept exact: a decimal ('0.1', '1e400')
    or a ratio ('5/2'). Any other text ('nan', '1/0') is a ValueError."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text!r} is not a decimal or a ratio p/q with q != 0") from None


def read_delta2_table(path) -> list:
    """One-column CSV of delta2 values; '#' lines and blanks are skipped."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            tok = row[0].strip() if row else ""
            if tok and not tok.startswith("#"):
                out.append(parse_rational(tok))
    if not out:
        raise ValueError(f"no delta2 values found in {path}")
    return out


class UnknownFamilyError(Exception):
    pass


def make_family(name: str, m: int, p=None, c=None, gamma_coeffs=None, table=None,
                tail="error") -> ScalarSequence:
    """Construct a registered family by name.

    ``m`` is the tuple arity; only the kernel-scale families consume it
    directly, the rest define one-variable data independent of m.
    """
    key = name.lower().replace("_", "-")
    if key == "hp":
        if p is None:
            raise ValueError("family 'hp' requires parameter p")
        return HpSpace(m, p)
    if key in ("szego", "hardy"):
        return HpSpace(m, m)
    if key == "bergman":
        return HpSpace(m, m + 1)
    if key == "drury-arveson":
        return HpSpace(m, 1)
    if key == "constant":
        return ConstantDelta(c if c is not None else 1)
    if key == "poly-gamma":
        if gamma_coeffs is None:
            raise ValueError("family 'poly-gamma' requires gamma coefficients")
        return PolynomialGamma(gamma_coeffs)
    if key == "rho-eta":
        return RhoEta()
    if key == "alt-twelve":
        return AlternatingTwelve()
    if key == "tabulated":
        if table is None:
            raise ValueError("family 'tabulated' requires a table of delta2 values")
        values = read_delta2_table(table) if isinstance(table, (str, bytes)) else table
        return Tabulated(values, tail=tail)
    raise UnknownFamilyError(f"unknown family {name!r}")


# The names make_family accepts, each with the description `sphshift families` prints.
FAMILIES = {
    "hp": "kernel-scale family, delta2(k) = (k+m)/(k+p); needs --p",
    "szego": "hp with p = m (constant weights)",
    "hardy": "alias of szego",
    "bergman": "hp with p = m+1",
    "drury-arveson": "hp with p = 1",
    "constant": "delta_k = c for all k; --c (default 1)",
    "poly-gamma": "gamma(k) a positive polynomial; --gamma-coeffs a0,a1,...",
    "rho-eta": "increasing delta2 with sparse jumps 2^-l at k = 2^(2^l)",
    "alt-twelve": "delta2 alternating 1/3, 1/4; not essentially normal",
    "tabulated": "delta2 from a one-column CSV; --table FILE [--tail ...]",
}


def default_suite(m: int) -> list:
    """The registered families exercised by the verification suite."""
    return [
        ("szego", HpSpace(m, m)),
        ("bergman", HpSpace(m, m + 1)),
        ("drury-arveson", HpSpace(m, 1)),
        ("rho-eta", RhoEta()),
        ("alt-twelve", AlternatingTwelve()),
        ("constant-half", ConstantDelta(Fraction(1, 2))),
        ("poly-gamma-sq", PolynomialGamma([1, 2, 1])),
    ]
