"""Output checks, computed apart from the program.

Every check compares a report with the benchmark's own computation from
the family's formula (or table), or with a property the method must have.
Only ``check_level_sums`` imports sphshift, inside the in-process
worker: it compares the program's closed form with its own dense oracle.

Each ``check_*`` function returns a list of failure messages; an empty
list means the output passed.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

HP_P = {"szego": lambda m: m, "bergman": lambda m: m + 1, "drury-arveson": lambda m: 1}

# Relative tolerance for sums of up to 1e6 nonnegative float64 terms: the
# program accumulates them left to right, whose error is at most
# (n-1)*u*sum|t| = 1e6 * 1.1e-16 ~ 1.1e-10 of the sum; 1e-9 leaves a
# factor 9 for the last-bit differences of the term evaluations.
PARTIAL_SUM_RTOL = 1e-9
# Per-lag window means come from differences of a running sum whose
# magnitude stays below 7e5 at K = 1e6 (ulp 1.2e-10); a window mean
# carries at most a few of those ulps, which is below 1e-9 relative.
LAG_RTOL = 1e-9
ENUM_RTOL = 1e-9
ORACLE_RTOL = 1e-8
CLASSIFY_Q = 6   # classify.DEFAULT_Q, the --Q of every request


# -- the families, from their formulas ----------------------------------------


def _key(fam: dict) -> str:
    return json.dumps(fam, sort_keys=True)


@lru_cache(maxsize=None)
def _table_rows(path: str) -> tuple:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                rows.append(Fraction(line))
    return tuple(rows)


def delta2_exact(fam: dict):
    """k -> delta2(k) as a Fraction."""
    name, m = fam["name"], fam["m"]
    if name in HP_P:
        p = HP_P[name](m)
        return lambda k: Fraction(k + m, k + p)
    if name == "constant":
        c = Fraction(fam["c"])
        return lambda k: c * c
    if name == "poly-gamma":
        coeffs = [Fraction(c) for c in fam["coeffs"]]

        def s(k):
            return sum(c * k ** i for i, c in enumerate(coeffs))

        return lambda k: s(k + 1) / s(k)
    if name == "rho-eta":
        jumps = []
        l = 0
        while 2 ** (2 ** l) < 10**7:
            jumps.append((2 ** (2 ** l), Fraction(1, 2 ** l)))
            l += 1
        # rho_{k+1} = rho_k + eta_k, eta_k = 2^-l at k = 2^(2^l)
        return lambda k: 1 + sum((e for j, e in jumps if j < k), Fraction(0))
    if name == "alt-twelve":
        return lambda k: Fraction(1, 3) if k % 2 == 0 else Fraction(1, 4)
    if name == "tabulated":
        rows = _table_rows(fam["table"])
        return lambda k: rows[k] if k < len(rows) else Fraction(1)
    raise ValueError(f"no formula for family {name!r}")


def delta2_float(fam: dict, K: int) -> np.ndarray:
    """delta2(0..K) as float64, evaluated the way the formula reads."""
    name, m = fam["name"], fam["m"]
    k = np.arange(K + 1, dtype=np.float64)
    if name in HP_P:
        return (k + m) / (k + float(HP_P[name](m)))
    if name == "constant":
        return np.full(K + 1, float(Fraction(fam["c"])) ** 2)
    if name == "alt-twelve":
        return np.where(np.arange(K + 1) % 2 == 0, 1.0 / 3.0, 0.25)
    if name == "rho-eta":
        out = np.ones(K + 1)
        l = 0
        while 2 ** (2 ** l) < K:
            out[2 ** (2 ** l) + 1:] += 0.5 ** l
            l += 1
        return out
    raise ValueError(f"no float formula for family {name!r}")


def liminf_delta2_positive(fam: dict) -> bool:
    """Every family the workloads use has lim inf delta2 > 0: hp -> 1,
    constant -> c^2, poly-gamma -> 1, rho-eta -> 3, alt-twelve >= 1/4,
    tables -> the declared tail 1."""
    return fam["name"] in (*HP_P, "constant", "poly-gamma", "rho-eta", "alt-twelve", "tabulated")


# -- exact structural verdicts -----------------------------------------------


class Oracle:
    """Caches the benchmark's own exact and float recomputations."""

    def __init__(self):
        self._cache = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def d2_list(self, fam, upto):
        f = delta2_exact(fam)
        return self._memo(("d2", _key(fam), upto), lambda: [f(k) for k in range(upto + 1)])

    def hyponormal(self, fam, K):
        d = self.d2_list(fam, K)
        return all(a <= b for a, b in zip(d, d[1:]))

    def szego(self, fam, K):
        return all(v == 1 for v in self.d2_list(fam, K))

    def q_isometry_order(self, fam, qmax, K):
        def compute():
            d = self.d2_list(fam, K + qmax)
            gamma = [Fraction(1)]
            for v in d[: K + qmax]:
                gamma.append(gamma[-1] * v)
            diffs = gamma
            for q in range(1, qmax + 1):
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
                if all(x == 0 for x in diffs[: K + 1]):
                    return q
            return None

        return self._memo(("qiso", _key(fam), qmax, K), compute)

    def d2_float(self, fam, K):
        return self._memo(("d2f", _key(fam), K), lambda: delta2_float(fam, K))

    def lag_extremes(self, fam, K, j):
        """(max, min) over k of the window mean of (1/2) log delta2 over
        k..k+j-1, k + j <= K, by direct summation of each window."""
        def compute():
            half_log = 0.5 * np.log(self.d2_float(fam, K)[:K])
            means = np.convolve(half_log, np.ones(j), mode="valid") / j
            return float(np.max(means)), float(np.min(means))

        return self._memo(("lag", _key(fam), K, j), compute)

    def series_sums(self, fam, m, p, K):
        """fsum of the two criterion series over k = 1..K."""
        def pieces():
            d2 = self.d2_float(fam, K)
            return d2[1:], np.abs(d2[1:] - d2[:-1]), np.arange(1, K + 1, dtype=np.float64)

        d2, diff, k = self._memo(("pieces", _key(fam), K), pieces)
        t1 = d2 ** p * k ** (m - p - 1)
        t2 = diff ** p * k ** (m - 1)
        return math.fsum(t1.tolist()), math.fsum(t2.tolist())


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b)) or a == b


# -- per-section checks -------------------------------------------------------


def _check_spectrum(fam, spec, deep, oracle):
    errs = []
    R = spec["outer_radius"]["value"]
    r = spec["convergence_radius"]["value"]
    i = spec["inner_radius"]["value"]
    if not (i <= r * (1 + 1e-12) and r <= R * (1 + 1e-12)):
        errs.append(f"radii out of order: i={i} r={r} R={R}")
    if fam["name"] in HP_P and not all(abs(x - 1.0) <= 1e-12 for x in (R, r, i)):
        # (k+m)/(k+p) -> 1, so all three radii are 1
        errs.append(f"hp radii must all be 1: i={i} r={r} R={R}")
    if deep:
        K = spec["K"]
        js = spec["outer_radius"]["j_grid"]
        for j in sorted({1, 7, js[-1]}):
            idx = js.index(j)
            hi, lo = oracle.lag_extremes(fam, K, j)
            got_hi = spec["outer_radius"]["sequence"][idx]
            got_lo = spec["inner_radius"]["sequence"][idx]
            if not _close(got_hi, math.exp(hi), LAG_RTOL):
                errs.append(f"outer lag {j}: {got_hi} vs own {math.exp(hi)}")
            if not _close(got_lo, math.exp(lo), LAG_RTOL):
                errs.append(f"inner lag {j}: {got_lo} vs own {math.exp(lo)}")
    return errs


def _check_verdict(fam, m, p, verdict):
    errs = []
    if liminf_delta2_positive(fam) and p <= m and verdict == "converges":
        errs.append(f"non-compact family converges at p={p} <= m={m}")
    if fam["name"] == "drury-arveson" and (verdict == "converges") != (p > m):
        errs.append(f"drury-arveson m={m} p={p}: verdict {verdict}, theorem says "
                    f"{'converges' if p > m else 'diverges'}")
    return errs


def _check_cutoff(fam, cut):
    errs = []
    if liminf_delta2_positive(fam):
        if cut["skipped"]:
            return [f"non-compact family skipped as compact: {cut.get('reason')}"]
        if cut["violations"]:
            errs.append(f"cut-off violations {cut['violations']}")
    for p_text, verdict in cut.get("verdicts", {}).items():
        errs += _check_verdict(fam, fam["m"], float(p_text), verdict)
    return errs


def _check_schatten(fam, sch, oracle):
    m = fam["m"]
    errs = _check_verdict(fam, m, sch["p"], sch["verdict"])
    for label, ps in (("1", sch["partial_sums_1"]), ("2", sch["partial_sums_2"])):
        if any(b < a for a, b in zip(ps, ps[1:])):
            errs.append(f"partial sums {label} decrease")
    own1, own2 = oracle.series_sums(fam, m, sch["p"], sch["K"])
    if not _close(sch["partial_sums_1"][-1], own1, PARTIAL_SUM_RTOL):
        errs.append(f"series 1 sum {sch['partial_sums_1'][-1]} vs fsum {own1}")
    if not _close(sch["partial_sums_2"][-1], own2, PARTIAL_SUM_RTOL):
        errs.append(f"series 2 sum {sch['partial_sums_2'][-1]} vs fsum {own2}")
    return errs


def _check_classification(fam, cls, K, qmax, oracle):
    errs = []
    if liminf_delta2_positive(fam) and cls["compact"]["value"] is not False:
        errs.append("non-compact family classified compact")
    for field, own in (("hyponormal", oracle.hyponormal(fam, K)),
                       ("szego", oracle.szego(fam, K))):
        if cls[field]["value"] != own:
            errs.append(f"{field} = {cls[field]['value']}, own exact = {own}")
    if cls["q_isometry_mode"] != "exact":
        errs.append(f"q_isometry_mode {cls['q_isometry_mode']} on an exact family")
    own = oracle.q_isometry_order(fam, qmax, K)
    if cls["q_isometry_order"] != own:
        errs.append(f"q_isometry_order = {cls['q_isometry_order']}, own exact = {own}")
    return errs


def _check_oracle_rows(rows, tol):
    errs = []
    for row in rows:
        dev = row["max_deviation"]
        if not (isinstance(dev, float) and math.isfinite(dev) and dev <= tol and row["pass"]):
            errs.append(f"oracle row {row['kind']}: deviation {dev}")
    return errs


def _level(m, k):
    for cut in itertools.combinations(range(k + m - 1), m - 1):
        bounds = (-1,) + cut + (k + m - 1,)
        yield tuple(bounds[i + 1] - bounds[i] - 1 for i in range(m))


def _lemma_s(k):
    """The values of s that the lemma check probes at level k."""
    return {"zero": 0.0, "one": 1.0, "inv_k": 1.0 / k}


def lemma_sums(m, p, k):
    """(pair sum, {mode: abs sum}) at level k by enumerating the level."""
    pair = []
    absums = {mode: [] for mode in _lemma_s(k)}
    for n in _level(m, k):
        if n[0] > 0:
            pair.append(n[0] ** (p / 2) * n[1] ** (p / 2))
        for mode, s in _lemma_s(k).items():
            absums[mode].append(abs(s * n[0] - 1.0) ** p)
    return math.fsum(pair), {mode: math.fsum(v) for mode, v in absums.items()}


def _check_lemmas(req, lem):
    errs = []
    m, p = req["m"], lem["p"]
    k = lem["k_grid"][0]
    pair, absums = lemma_sums(m, p, k)
    got = lem["pair_sum"]["ratios"][0]
    if not _close(got, pair / float(k) ** (p + m - 1), ENUM_RTOL):
        errs.append(f"pair-sum ratio at k={k}: {got} vs enumeration")
    for mode, total in absums.items():
        s = _lemma_s(k)[mode]
        denom = float(k) ** (p + m - 1) * abs(s) ** p + float(k) ** (m - 1)
        got = lem["abs_sum"][mode]["ratios"][0]
        if not _close(got, total / denom, ENUM_RTOL):
            errs.append(f"abs-sum {mode} ratio at k={k}: {got} vs enumeration")
    return errs


def check_cli(req: dict, code: int, text: str, oracle: Oracle) -> list:
    """Check one CLI response against the request that produced it."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    cmd, fam = req["cmd"], req["fam"]
    deep = "--K" in req["argv"] and cmd in ("spectrum", "schatten", "cutoff")
    errs = []
    if cmd in ("spectrum", "analyze"):
        errs += _check_spectrum(fam, doc["spectrum"], deep, oracle)
    if cmd == "cutoff":
        errs += _check_cutoff(fam, doc["cutoff"])
    if cmd == "analyze":
        errs += _check_cutoff(fam, doc["schatten_cutoff"])
        errs += _check_classification(fam, doc["classification"], req["k_exact"], CLASSIFY_Q, oracle)
        m = fam["m"]
        if len(doc["oracle"]) != m + m * (m - 1) + 7:
            errs.append(f"analyze oracle has {len(doc['oracle'])} rows")
        errs += _check_oracle_rows(doc["oracle"], 1e-10)
    if cmd == "schatten":
        errs += _check_schatten(fam, doc["schatten"], oracle)
    if cmd == "classify":
        errs += _check_classification(fam, doc["classification"], req["k_exact"], CLASSIFY_Q, oracle)
    if cmd == "lemmas":
        errs += _check_lemmas(req, doc["lemmas"])
    if cmd == "verify":
        m = req["m"]
        rows = doc["results"]
        if doc["pass"] is not True:
            errs.append("verify pass is not true")
        if len(rows) != 7 * (m + m * (m - 1) + 7):
            errs.append(f"verify has {len(rows)} rows, expected {7 * (m + m * (m - 1) + 7)}")
        errs += _check_oracle_rows(rows, doc["request"]["tol"])
    return [f"request {req['id']} ({' '.join(req['argv'])}): {e}" for e in errs]


# -- level sums -----------------------------------------------------------------


def _weight(d2, m, i, n):
    k = sum(n)
    return math.sqrt(d2[k] * (n[i] + 1) / (k + m))


def enumerated_level_sums(fam: dict, m: int, j: int, l: int, p: float, kmax: int) -> list:
    """sum over |n| = k of |coefficient of [T_j*, T_l] at e_n|^p, k <= kmax,
    from the weights w_i(n) = delta_|n| sqrt((n_i+1)/(|n|+m)) alone."""
    f = delta2_exact(fam)
    d2 = [float(f(k)) for k in range(kmax + 2)]
    j, l = j - 1, l - 1
    out = []
    for k in range(kmax + 1):
        total = []
        for n in _level(m, k):
            if j == l:
                down = _weight(d2, m, j, n[:j] + (n[j] - 1,) + n[j + 1:]) if n[j] else 0.0
                coeff = _weight(d2, m, j, n) ** 2 - down ** 2
            else:
                if n[j] == 0:
                    continue
                up = list(n)
                up[l] += 1
                up[j] -= 1
                low = list(n)
                low[j] -= 1
                coeff = (_weight(d2, m, l, n) * _weight(d2, m, j, tuple(up))
                         - _weight(d2, m, j, tuple(low)) * _weight(d2, m, l, tuple(low)))
            total.append(abs(coeff) ** p)
        out.append(math.fsum(total))
    return out


ENUM_LEVELS = {2: 40, 3: 16, 4: 9}
DENSE_N = {2: 10, 3: 10, 4: 8}


def check_level_sums(reqs: list, rounds: list) -> list:
    """rounds holds one dict per round, request id -> the closed_form_norm
    result of that timed call; failed calls are absent."""
    from sphshift import schatten, truncation
    from sphshift.scalarseq import make_family
    from sphshift.shift import SphericalShift

    errs = []
    configs = {}
    for req in reqs:
        cfg = (_key(req["fam"]), req["m"], req["j"], req["l"], req["p"])
        configs.setdefault(cfg, []).append(req)
    for (fkey, m, j, l, p), group in configs.items():
        fam = json.loads(fkey)
        shift = SphericalShift(m, make_family(fam["name"], m=m))
        k0 = ENUM_LEVELS[m]
        own = enumerated_level_sums(fam, m, j, l, p, k0)
        got = schatten.closed_form_level_sums(shift, j, l, p, k0).tolist()
        for k, (a, b) in enumerate(zip(got, own)):
            if not _close(a, b, ENUM_RTOL):
                errs.append(f"{fam['name']} m={m} ({j},{l}) p={p} level {k}: {a} vs enumeration {b}")
                break
        N = DENSE_N[m]
        basis = truncation.build_basis(m, N)
        ts = truncation.build_tuple_matrices(shift, basis)
        comm = truncation.commutator(ts[j - 1].adjoint(), ts[l - 1])
        dense = truncation.schatten_power_sum(comm, p, kmax=N - 1)
        closed = schatten.closed_form_norm(shift, j, l, p, N - 1)
        if not _close(closed, dense, ORACLE_RTOL):
            errs.append(f"{fam['name']} m={m} ({j},{l}) p={p}: closed form {closed} "
                        f"vs dense {dense} at N={N}")
        low = math.fsum(own)
        group = sorted(group, key=lambda r: r["kmax"])
        for values in rounds:
            totals = [(req, values[req["id"]]) for req in group if req["id"] in values]
            for req, v in totals:
                if not (isinstance(v, float) and math.isfinite(v) and v >= low * (1 - ENUM_RTOL)):
                    errs.append(f"request {req['id']}: total {v} is not finite or lies below "
                                f"its enumerated levels <= {k0} ({low})")
            if any(b[1] < a[1] for a, b in zip(totals, totals[1:])):
                errs.append(f"{fam['name']} m={m} ({j},{l}) p={p}: totals decrease with kmax")
    return errs
