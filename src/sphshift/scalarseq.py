"""Scalar weight sequences: the one-variable data behind a spherical shift.

A sequence is defined by its squared weight ratios ``delta2(k)`` with the
normalization log_bbeta(0) = 0 (everything downstream is scale-covariant,
so the anchor is a pure convention). ``gamma(k)`` is the squared cumulative
weight. Closed-form families carry exact rational evaluators and declared
asymptotic metadata; everything else falls back to sampled, horizon-tagged
answers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np


class TableRangeError(Exception):
    """Raised when a tabulated family is evaluated beyond its table and no
    tail rule was declared."""


@dataclass(frozen=True)
class BoundednessReport:
    """Outcome of a boundedness probe: sup_k delta_k < infinity?"""

    verdict: str            # "family-declared" | "yes" | "no-evidence"
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
    """float(c) ** 2; ValueError unless it is a finite positive float."""
    try:
        c2 = float(c) ** 2
    except OverflowError:
        c2 = math.inf
    if not 0.0 < c2 < math.inf:
        raise ValueError("weight c: c**2 is not a finite positive float")
    return c2


class ScalarSequence:
    """Base class: the delta2 snapshot and its log-space accumulation.

    Subclasses implement ``delta2(k)`` (and usually ``delta2_exact``) plus
    declared metadata, and may override the generator hook
    ``_delta2_values(kmax)``, which returns delta2(0..kmax) as float64 and
    which only ``_ensure`` calls. ``_ensure`` keeps the one snapshot of
    delta2 every array reader shares: ``delta2_array`` and
    ``log_bbeta_array`` serve read-only views of it, and it grows to
    exactly the horizon asked for. Instances are immutable after
    construction; caches only grow and never change values.
    """

    name = "scalar-sequence"

    # Declared metadata; None means "unknown, use sampled paths".
    delta2_limit: Optional[float] = None       # lim delta2(k) when it exists
    delta2_liminf: Optional[float] = None
    delta2_limsup: Optional[float] = None
    sup_delta2_declared: Optional[float] = None
    monotone_nondecreasing: Optional[bool] = None   # delta_k nondecreasing
    essentially_normal_declared: Optional[bool] = None
    diff_decay_ck: Optional[bool] = None       # |delta2(k) - delta2(k-1)| <= C/k

    def __init__(self):
        self._d2 = np.zeros(0)
        self._logbb = np.zeros(0)  # built from _d2 on first use

    # -- core evaluators ------------------------------------------------

    def delta2(self, k: int) -> float:
        exact = self.delta2_exact(k)
        if exact is None:
            raise NotImplementedError
        return float(exact)

    def delta2_exact(self, k: int) -> Optional[Fraction]:
        return None

    def delta2_both(self, k: int) -> Tuple[float, Optional[Fraction]]:
        """(delta2(k), delta2_exact(k)) from one evaluation of the exact
        value, whose rounding is the float. A family whose ``delta2`` is
        its own float formula overrides this."""
        exact = self.delta2_exact(k)
        return (self.delta2(k) if exact is None else float(exact)), exact

    def _delta2_values(self, kmax: int) -> np.ndarray:
        return np.array([self.delta2(k) for k in range(kmax + 1)], dtype=np.float64)

    # -- the cached snapshot ---------------------------------------------

    def _ensure(self, kmax: int) -> None:
        if len(self._d2) > kmax:
            return
        d2 = self._delta2_values(kmax)
        if np.any(d2 <= 0):
            bad = int(np.argmax(d2 <= 0))
            raise ValueError(f"{self.name}: delta2({bad}) = {d2[bad]} is not positive")
        d2.flags.writeable = False
        self._d2 = d2

    def delta2_array(self, kmax: int) -> np.ndarray:
        """delta2(0..kmax) inclusive as float64, a read-only view."""
        self._ensure(kmax)
        return self._d2[: kmax + 1]

    def log_bbeta(self, k: int) -> float:
        return float(self.log_bbeta_array(k)[k])

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
            np.cumsum(0.5 * np.log(self._d2), out=logbb[1:])
            logbb.flags.writeable = False
            self._logbb = logbb
        return self._logbb[: kmax + 1]

    def gamma(self, k: int) -> float:
        """Float gamma; saturates to inf/0.0 outside float range (use
        log_bbeta when the magnitude matters)."""
        try:
            return math.exp(2.0 * self.log_bbeta(k))
        except OverflowError:
            return math.inf

    # -- derived quantities ----------------------------------------------

    def is_bounded(self, K: int = 10_000) -> BoundednessReport:
        if K < 1:
            raise ValueError("sample horizon K must be >= 1")
        if self.sup_delta2_declared is not None:
            return BoundednessReport(
                verdict="family-declared",
                sup_delta2=float(self.sup_delta2_declared),
                horizon=None,
            )
        sampled = float(np.max(self.delta2_array(K)))
        return BoundednessReport(
            verdict="no-evidence",
            sup_delta2=sampled,
            horizon=K,
            qualifier=f"sup over k <= {K} only; no declared bound",
        )

    def sup_delta2_exact(self) -> Optional[Fraction]:
        """Exact sup of delta2 when the family can certify one."""
        return None

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
        if self.p <= 0:
            raise ValueError("parameter p must be positive")
        self.name = "hp"
        self.delta2_limit = 1.0
        self.sup_delta2_declared = max(1.0, self.m / float(self.p))
        self.monotone_nondecreasing = bool(self.p >= self.m)
        self.essentially_normal_declared = True
        self.diff_decay_ck = True

    def delta2(self, k: int) -> float:
        return (k + self.m) / (k + float(self.p))

    def delta2_exact(self, k: int) -> Optional[Fraction]:
        p = _as_fraction(self.p)
        if p is None:
            return None
        return Fraction(k + self.m) / (k + p)

    def delta2_both(self, k: int) -> Tuple[float, Optional[Fraction]]:
        return self.delta2(k), self.delta2_exact(k)

    def _delta2_values(self, kmax: int) -> np.ndarray:
        k = np.arange(kmax + 1, dtype=np.float64)
        return (k + self.m) / (k + float(self.p))

    def sup_delta2_exact(self) -> Optional[Fraction]:
        p = _as_fraction(self.p)
        if p is None:
            return None
        return max(Fraction(1), Fraction(self.m) / p)

    def params(self):
        return {"m": self.m, "p": str(self.p)}


class ConstantDelta(ScalarSequence):
    """delta_k = c for every k: the geometric scalar sequence."""

    def __init__(self, c):
        super().__init__()
        self.c = _to_number(c)
        if self.c <= 0:
            raise ValueError("constant weight c must be positive")
        self.name = "constant"
        c2 = self._c2 = _float_square(self.c)
        self.delta2_limit = c2
        self.sup_delta2_declared = c2
        self.monotone_nondecreasing = True
        self.essentially_normal_declared = True
        self.diff_decay_ck = True

    def delta2(self, k: int) -> float:
        return self._c2

    def delta2_exact(self, k: int) -> Optional[Fraction]:
        c = _as_fraction(self.c)
        return None if c is None else c * c

    def delta2_both(self, k: int) -> Tuple[float, Optional[Fraction]]:
        return self._c2, self.delta2_exact(k)

    def _delta2_values(self, kmax: int) -> np.ndarray:
        return np.full(kmax + 1, self._c2)

    def sup_delta2_exact(self) -> Optional[Fraction]:
        c = _as_fraction(self.c)
        return None if c is None else c * c

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

    def delta2(self, k: int) -> float:
        return float(self.delta2_exact(k))

    def delta2_exact(self, k: int) -> Fraction:
        return self._eval(self.coefficients, k + 1) / self._eval(self.coefficients, k)

    def _delta2_values(self, kmax: int) -> np.ndarray:
        k = np.arange(kmax + 2, dtype=np.float64)
        vals = np.zeros_like(k)
        for c in reversed(self.coefficients):
            vals = vals * k + float(c)
        return vals[1:] / vals[:-1]

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
        self.sup_delta2_declared = 3.0
        self.monotone_nondecreasing = True
        self.essentially_normal_declared = True
        self.diff_decay_ck = False
        self._rho: list = [Fraction(1)]

    @staticmethod
    def eta_exact(k: int) -> Fraction:
        """2^(-l) if k = 2^(2^l) for an integer l >= 0, else 0."""
        if k < 2 or k & (k - 1):
            return Fraction(0)
        e = k.bit_length() - 1          # k = 2^e
        if e & (e - 1):
            return Fraction(0)
        l = e.bit_length() - 1          # e = 2^l
        return Fraction(1, 2 ** l)

    def delta2(self, k: int) -> float:
        return float(self.delta2_exact(k))

    def delta2_exact(self, k: int) -> Fraction:
        rho = self._rho
        while len(rho) <= k:
            j = len(rho) - 1
            rho.append(rho[-1] + self.eta_exact(j))
        return rho[k]

    def _delta2_values(self, kmax: int) -> np.ndarray:
        eta = np.zeros(kmax + 1)
        l = 0
        while True:
            k = 2 ** (2 ** l)
            if k > kmax:
                break
            eta[k] = 0.5 ** l
            l += 1
        rho = np.ones(kmax + 1)
        rho[1:] += np.cumsum(eta[:-1])
        return rho

    def schatten_override(self, m: int, p: float):
        if math.isinf(p):
            return None
        return (
            "diverges",
            "difference-series terms k^(m-1)|delta2(k)-delta2(k-1)|^p are "
            "unbounded along k = 2^(2^l) + 1",
        )

    def sup_delta2_exact(self) -> Fraction:
        return Fraction(3)


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
        self.delta2_limsup = 1.0 / 3.0
        self.sup_delta2_declared = 1.0 / 3.0
        self.monotone_nondecreasing = False
        self.essentially_normal_declared = False
        self.diff_decay_ck = False

    def delta2(self, k: int) -> float:
        return float(self.delta2_exact(k))

    def delta2_exact(self, k: int) -> Fraction:
        return Fraction(1, 3) if k % 2 == 0 else Fraction(1, 4)

    def _delta2_values(self, kmax: int) -> np.ndarray:
        out = np.full(kmax + 1, 0.25)
        out[::2] = 1.0 / 3.0
        return out

    def schatten_override(self, m: int, p: float):
        if math.isinf(p):
            return None
        return (
            "diverges",
            "|delta2(k) - delta2(k-1)| = 1/12 for every k, so the "
            "difference series grows like K^m",
        )

    def sup_delta2_exact(self) -> Fraction:
        return Fraction(1, 3)


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
        self.values = tuple(Fraction(v) if not isinstance(v, float) else v for v in values)
        self.tail = tail if not isinstance(tail, list) else tuple(tail)
        self.name = "tabulated"
        if any(float(v) <= 0 for v in self.values):
            raise ValueError("all tabulated delta2 values must be positive")
        if isinstance(self.tail, tuple) and self.tail[0] == "const" and float(self.tail[1]) <= 0:
            raise ValueError(f"const tail value {self.tail[1]} must be positive")

    def _tail_value(self, k: int):
        tail = self.tail
        if tail == "hold":
            return self.values[-1]
        if isinstance(tail, tuple) and len(tail) == 2 and tail[0] == "const":
            return tail[1]
        if callable(tail):
            return tail(k)
        raise TableRangeError(
            f"tabulated family has {len(self.values)} entries and no tail "
            f"rule; cannot evaluate delta2({k})"
        )

    def delta2(self, k: int) -> float:
        if k < len(self.values):
            return float(self.values[k])
        return float(self._tail_value(k))

    def delta2_exact(self, k: int) -> Optional[Fraction]:
        v = self.values[k] if k < len(self.values) else self._tail_value(k)
        return _as_fraction(v)

    def is_bounded(self, K: int = 10_000) -> BoundednessReport:
        if self.tail == "hold" or (isinstance(self.tail, tuple) and self.tail[0] == "const"):
            sup = max(float(v) for v in self.values)
            if isinstance(self.tail, tuple):
                sup = max(sup, float(self.tail[1]))
            return BoundednessReport(verdict="yes", sup_delta2=sup, horizon=None)
        return super().is_bounded(K)

    def sup_delta2_exact(self) -> Optional[Fraction]:
        vals = [_as_fraction(v) for v in self.values]
        if any(v is None for v in vals):
            return None
        if self.tail == "hold":
            return max(vals)
        if isinstance(self.tail, tuple) and self.tail[0] == "const":
            tail_v = _as_fraction(self.tail[1])
            return None if tail_v is None else max(max(vals), tail_v)
        return None

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
        if self.c <= 0:
            raise ValueError("scale factor must be positive")
        c2 = self._c2 = _float_square(self.c)
        self.name = f"scaled({base.name})"
        for attr in ("delta2_limit", "delta2_liminf", "delta2_limsup", "sup_delta2_declared"):
            v = getattr(base, attr)
            setattr(self, attr, None if v is None else v * c2)
        self.monotone_nondecreasing = base.monotone_nondecreasing
        self.essentially_normal_declared = base.essentially_normal_declared
        self.diff_decay_ck = base.diff_decay_ck

    def delta2(self, k: int) -> float:
        return self._c2 * self.base.delta2(k)

    def delta2_exact(self, k: int) -> Optional[Fraction]:
        c = _as_fraction(self.c)
        b = self.base.delta2_exact(k)
        if c is None or b is None:
            return None
        return c * c * b

    def delta2_both(self, k: int) -> Tuple[float, Optional[Fraction]]:
        return self.delta2(k), self.delta2_exact(k)

    def _delta2_values(self, kmax: int) -> np.ndarray:
        return self._c2 * self.base.delta2_array(kmax)

    def params(self):
        return {"base": self.base.describe(), "c": str(self.c)}


# -- registry and parsing -------------------------------------------------


def read_delta2_table(path) -> list:
    """One-column CSV of delta2 values; '#' lines and blanks are skipped."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            tok = row[0].strip()
            if not tok:
                continue
            try:
                out.append(Fraction(tok))
            except ValueError:
                out.append(float(tok))
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
