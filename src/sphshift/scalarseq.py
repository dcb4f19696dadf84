"""Scalar weight sequences: the one-variable data behind a spherical shift.

A sequence is defined by its squared weight ratios delta2(k) with the
normalization log_bbeta(0) = 0 (everything downstream is scale-covariant,
so the anchor is a pure convention); gamma(k) = exp(2 log_bbeta(k)) is the
squared cumulative weight. Each family states delta2 once per kind: one
float generator over a whole horizon, one exact rational evaluator per k
(or None), and one sup. Declared asymptotic metadata lets analytic paths
skip sampling; everything else falls back to sampled, horizon-tagged
answers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

# Default horizons and orders of the layers above, stated once here, where
# the CLI reads them without loading those layers.
DEFAULT_K = 100_000         # spectra and schatten: float horizon
DEFAULT_J = 60              # spectra: lags of the radius scans
DEFAULT_K_EXACT = 200       # classify: exact horizon
DEFAULT_K_SAMPLED = 10_000  # classify: sampled horizon
DEFAULT_P = 8               # classify: subnormality order
DEFAULT_Q = 6               # classify: expansion orders


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


def _as_fraction(x) -> Optional[Fraction]:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


def _to_number(x):
    """Exact Fraction for int/str/Fraction input; floats stay float."""
    if isinstance(x, float):
        return x
    return Fraction(x)


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
    * ``delta2_exact(k)``, the one exact evaluator: a Fraction, or None
      when the family has no exact value at k;
    * ``sup_delta2()``: a Fraction when the sup is certified exactly, a
      float when only a float is known, None otherwise.

    ``_ensure`` keeps the one float snapshot every array reader shares,
    grown to exactly the horizon asked for, and is the one place that
    rejects a delta2 that is not finite and positive: ``delta2_array`` and
    ``log_bbeta_array`` serve read-only views of it. ``delta2_exact_array``
    keeps the one exact snapshot, the only reader of ``delta2_exact``
    outside this module. Instances are immutable after construction;
    caches only grow and never change values.
    """

    name = "scalar-sequence"

    # Declared metadata; None means "unknown, use sampled paths".
    delta2_limit: Optional[float] = None       # lim delta2(k) when it exists
    delta2_liminf: Optional[float] = None
    monotone_nondecreasing: Optional[bool] = None   # delta_k nondecreasing
    essentially_normal_declared: Optional[bool] = None
    diff_decay_ck: Optional[bool] = None       # |delta2(k) - delta2(k-1)| <= C/k

    def __init__(self):
        self._d2 = np.zeros(0)
        self._logbb = np.zeros(0)  # built from _d2 on first use
        self._d2x = ()             # delta2_exact(0), delta2_exact(1), ...

    # -- what a family states ---------------------------------------------

    def _delta2_values(self, kmax: int) -> np.ndarray:
        raise NotImplementedError

    def delta2_exact(self, k: int) -> Optional[Fraction]:
        return None

    def sup_delta2(self) -> Union[Fraction, float, None]:
        return None

    # -- the cached snapshots --------------------------------------------

    def _ensure(self, kmax: int) -> None:
        if len(self._d2) > kmax:
            return
        try:
            with np.errstate(all="ignore"):
                d2 = self._delta2_values(kmax)
        except OverflowError as exc:  # float() of a Fraction beyond the float range
            raise ValueError(f"{self.name}: delta2 over k <= {kmax} leaves the float range") from exc
        bad = ~((d2 > 0) & (d2 < math.inf))  # NaN fails both comparisons
        if np.any(bad):
            k = int(np.argmax(bad))
            raise ValueError(f"{self.name}: delta2({k}) = {d2[k]} is not finite and positive")
        d2.flags.writeable = False
        self._d2 = d2

    def delta2_array(self, kmax: int) -> np.ndarray:
        """delta2(0..kmax) inclusive as float64, a read-only view."""
        self._ensure(kmax)
        return self._d2[: max(kmax + 1, 0)]

    def delta2_exact_array(self, kmax: int) -> Tuple[Optional[Fraction], ...]:
        """delta2_exact(0..kmax) inclusive, each a Fraction or None.

        Exact values are per-k objects, so the snapshot grows by appending
        and evaluates each k once; read it once, at the largest k needed.
        """
        have = len(self._d2x)
        if have <= kmax:
            self._d2x += tuple(self.delta2_exact(k) for k in range(have, kmax + 1))
        return self._d2x[: max(kmax + 1, 0)]

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

    def is_bounded(self, K: int = 10_000) -> BoundednessReport:
        if K < 1:
            raise ValueError("sample horizon K must be >= 1")
        sup = self.sup_delta2()
        if sup is not None:
            if not sup <= np.finfo(np.float64).max:  # so float(sup) is finite; NaN fails too
                raise ValueError(f"{self.name}: sup delta2 leaves the float range")
            return BoundednessReport(verdict="family-declared", sup_delta2=float(sup), horizon=None)
        sampled = float(np.max(self.delta2_array(K)))
        return BoundednessReport(
            verdict="no-evidence",
            sup_delta2=sampled,
            horizon=K,
            qualifier=f"sup over k <= {K} only; no declared bound",
        )

    def scale(self, c) -> "ScaledSequence":
        """The sequence with every weight multiplied by c > 0."""
        return ScaledSequence(self, c)

    # -- hooks -------------------------------------------------------------

    def schatten_override(self, m: int, p: float):
        """Family-supplied analytic Schatten verdict; None = no claim.

        Returns (verdict, reason) with verdict in {"converges", "diverges"}.
        """
        return None

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


class HpSpace(ScalarSequence):
    """The kernel-scale family: delta2(k) = (k+m)/(k+p).

    p = m is the Hardy/Szego sequence, p = m+1 Bergman, p = 1 Drury-Arveson.
    """

    def __init__(self, m: int, p):
        super().__init__()
        if m < 1:
            raise ValueError("arity m must be >= 1")
        self.m = int(m)
        self.p = _to_number(p)
        if not self.p > 0:
            raise ValueError("parameter p must be positive")
        self.name = "hp"
        self.delta2_limit = 1.0
        self.monotone_nondecreasing = bool(self.p >= self.m)
        self.essentially_normal_declared = True
        self.diff_decay_ck = True

    def delta2_exact(self, k: int) -> Optional[Fraction]:
        p = _as_fraction(self.p)
        if p is None:
            return None
        return Fraction(k + self.m) / (k + p)

    def _delta2_values(self, kmax: int) -> np.ndarray:
        k = np.arange(kmax + 1, dtype=np.float64)
        d2 = k + self.m
        k += float(self.p)
        d2 /= k
        return d2

    def sup_delta2(self) -> Union[Fraction, float]:
        # delta2 falls from m/p to 1 when p < m, and rises to 1 otherwise
        one = 1.0 if isinstance(self.p, float) else Fraction(1)
        return max(one, self.m / self.p)

    def params(self):
        return {"m": self.m, "p": str(self.p)}


class ConstantDelta(ScalarSequence):
    """delta_k = c for every k: the geometric scalar sequence."""

    def __init__(self, c):
        super().__init__()
        self.c = _to_number(c)
        if not self.c > 0:
            raise ValueError("constant weight c must be positive")
        self.name = "constant"
        c2 = self._c2 = _float_square(self.c)
        self.delta2_limit = c2
        self.monotone_nondecreasing = True
        self.essentially_normal_declared = True
        self.diff_decay_ck = True

    def delta2_exact(self, k: int) -> Optional[Fraction]:
        c = _as_fraction(self.c)
        return None if c is None else c * c

    def _delta2_values(self, kmax: int) -> np.ndarray:
        return np.full(kmax + 1, self._c2)

    def sup_delta2(self) -> Union[Fraction, float]:
        c = _as_fraction(self.c)
        return self._c2 if c is None else c * c

    def params(self):
        return {"c": str(self.c)}


class PolynomialGamma(ScalarSequence):
    """gamma(k) = S(k)/S(0) for a polynomial S that is positive on N.

    Positivity is certified exactly: the leading coefficient must be
    positive and S(k) > 0 is checked for every integer k up to the Cauchy
    root bound, beyond which the polynomial cannot change sign.
    """

    def __init__(self, coefficients: Sequence):
        super().__init__()
        coeffs = [Fraction(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            raise ValueError("need at least one coefficient")
        if coeffs[-1] <= 0:
            raise ValueError("leading coefficient must be positive")
        lead = coeffs[-1]
        bound = 1 + max((abs(c) / lead for c in coeffs[:-1]), default=Fraction(0))
        for k in range(math.ceil(bound) + 1):
            if self._eval(coeffs, k) <= 0:
                raise ValueError(f"polynomial is not positive at k = {k}")
        self.coefficients = tuple(coeffs)
        self.degree = len(coeffs) - 1
        self.name = "poly-gamma"
        self.delta2_limit = 1.0
        self.essentially_normal_declared = True
        self.diff_decay_ck = True

    @staticmethod
    def _eval(coeffs, k) -> Fraction:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * k + c
        return acc

    def delta2_exact(self, k: int) -> Fraction:
        return self._eval(self.coefficients, k + 1) / self._eval(self.coefficients, k)

    def _delta2_values(self, kmax: int) -> np.ndarray:
        k = np.arange(kmax + 2, dtype=np.float64)
        vals = np.zeros_like(k)
        for c in reversed(self.coefficients):
            vals *= k
            vals += float(c)
        # S(k+1)/S(k), written over k, which is not needed any more
        return np.divide(vals[1:], vals[:-1], out=k[:-1])

    def params(self):
        return {"coefficients": [str(c) for c in self.coefficients]}


class RhoEta(ScalarSequence):
    """The jointly hyponormal counterexample sequence.

    delta2(k) = rho_k with rho_0 = 1 and rho_{k+1} = rho_k + eta_k, where
    eta_k = 2^(-l) exactly when k = 2^(2^l) and 0 otherwise. rho increases
    to 3, the increments do not decay like C/k, and the cross-commutators
    escape every Schatten class.
    """

    def __init__(self):
        super().__init__()
        self.name = "rho-eta"
        self.delta2_limit = 3.0
        self.monotone_nondecreasing = True
        self.essentially_normal_declared = True
        self.diff_decay_ck = False

    def delta2_exact(self, k: int) -> Fraction:
        # 1 + sum of 2^(-l) over the jumps 2^(2^l) <= k - 1, which is
        # 3 - 2^(1-J) for J jumps; J counts the l with 2^l <= log2(k - 1)
        jumps = (max(k - 1, 1).bit_length() - 1).bit_length()
        return 3 - Fraction(2, 2 ** jumps)

    def _delta2_values(self, kmax: int) -> np.ndarray:
        # rho[k] - 1 sums eta over 0..k-1: eta(k) lands in entry k + 1
        rho = np.zeros(kmax + 1)
        l = 0
        while True:
            k = 2 ** (2 ** l)
            if k >= kmax:
                break
            rho[k + 1] = 0.5 ** l
            l += 1
        np.cumsum(rho, out=rho)
        rho += 1.0
        return rho

    def sup_delta2(self) -> Fraction:
        return Fraction(3)

    def schatten_override(self, m: int, p: float):
        if math.isinf(p):
            return None
        return (
            "diverges",
            "difference-series terms k^(m-1)|delta2(k)-delta2(k-1)|^p are "
            "unbounded along k = 2^(2^l) + 1",
        )


class AlternatingTwelve(ScalarSequence):
    """gamma(2k) = 12^(-k), gamma(2k+1) = 12^(-k)/3.

    delta2 alternates between 1/3 and 1/4, so the sequence is bounded with
    concave-type third differences but is not essentially normal: the
    difference |delta2(k+1) - delta2(k)| equals 1/12 at every k.
    """

    def __init__(self):
        super().__init__()
        self.name = "alt-twelve"
        self.delta2_liminf = 0.25
        self.monotone_nondecreasing = False
        self.essentially_normal_declared = False
        self.diff_decay_ck = False

    def delta2_exact(self, k: int) -> Fraction:
        return Fraction(1, 3) if k % 2 == 0 else Fraction(1, 4)

    def _delta2_values(self, kmax: int) -> np.ndarray:
        out = np.full(kmax + 1, 0.25)
        out[::2] = 1.0 / 3.0
        return out

    def sup_delta2(self) -> Fraction:
        return Fraction(1, 3)

    def schatten_override(self, m: int, p: float):
        if math.isinf(p):
            return None
        return (
            "diverges",
            "|delta2(k) - delta2(k-1)| = 1/12 for every k, so the "
            "difference series grows like K^m",
        )


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
        raise TableRangeError(
            f"tabulated family has {len(self.values)} entries and no tail "
            f"rule; cannot evaluate delta2({k})"
        )

    def delta2_exact(self, k: int) -> Optional[Fraction]:
        v = self.values[k] if k < len(self.values) else self._tail_value(k)
        return _as_fraction(v)

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

    def sup_delta2(self) -> Union[Fraction, float, None]:
        if self.tail != "hold" and not isinstance(self.tail, tuple):
            return None
        vals = self.values + (self._tail_value(len(self.values)),)
        top = max(vals)
        return top if all(isinstance(v, Fraction) for v in vals) else float(top)

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
        self.name = f"scaled({base.name})"
        self.m = getattr(base, "m", None)  # scaling keeps the base's arity
        for attr in ("delta2_limit", "delta2_liminf"):
            v = getattr(base, attr)
            setattr(self, attr, None if v is None else v * c2)
        self.monotone_nondecreasing = base.monotone_nondecreasing
        self.essentially_normal_declared = base.essentially_normal_declared
        self.diff_decay_ck = base.diff_decay_ck

    def delta2_exact(self, k: int) -> Optional[Fraction]:
        c = _as_fraction(self.c)
        b = self.base.delta2_exact(k)
        return None if c is None or b is None else c * c * b

    def _delta2_values(self, kmax: int) -> np.ndarray:
        return self._c2 * self.base.delta2_array(kmax)

    def sup_delta2(self) -> Union[Fraction, float, None]:
        sup = self.base.sup_delta2()
        c = _as_fraction(self.c)
        if isinstance(sup, Fraction) and c is not None:
            return c * c * sup
        return None if sup is None else float(sup) * self._c2

    def schatten_override(self, m: int, p: float):
        override = self.base.schatten_override(m, p)
        if override is None:
            return None
        verdict, reason = override
        return verdict, (f"the base sequence's reason, before the weights were "
                         f"scaled by c = {self.c}: {reason}")

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


def make_family(
    name: str,
    m: int,
    p=None,
    c=None,
    gamma_coeffs=None,
    table=None,
    tail="error",
) -> ScalarSequence:
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
