"""Seeded request lists for the four benchmark workloads.

A request is a plain dict. CLI requests carry the argv of one
``python -m sphshift.cli`` invocation; ``level-sums`` requests carry the
arguments of one ``schatten.closed_form_norm`` call. Every request also
carries the family spec the checks need (``fam``) and its largest horizon
(``horizon``), which the trace divides materialised elements by.

The seed changes the order of the requests, the generated tables and the
exponents, never the horizons, arities or the number of requests of each
class, so every seed costs the same work and gives the same trace counts.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

WORKLOADS = ("default-report", "deep-scan", "oracle-verify", "level-sums")

DEFAULT_K = 100_000          # spectra.DEFAULT_K and schatten.DEFAULT_K
DEFAULT_K_EXACT = 200        # classify.DEFAULT_K_EXACT and analyze --K-exact
DEFAULT_K_SAMPLED = 10_000   # classify.DEFAULT_K_SAMPLED
DEFAULT_N = 10               # analyze --N
DEEP_K = 1_000_000
DEEP_K_EXACT = 2_000

TABLE_ROWS = 2_000
TABLE_EPS = Fraction(1, 4)


def suite_families(m: int) -> list:
    """The seven ``default_suite`` families, as family specs."""
    return [
        {"name": "szego", "m": m},
        {"name": "bergman", "m": m},
        {"name": "drury-arveson", "m": m},
        {"name": "rho-eta", "m": m},
        {"name": "alt-twelve", "m": m},
        {"name": "constant", "m": m, "c": "1/2"},
        {"name": "poly-gamma", "m": m, "coeffs": ["1", "2", "1"]},
    ]


def family_argv(fam: dict) -> list:
    argv = ["--family", fam["name"], "--m", str(fam["m"])]
    if "c" in fam:
        argv += ["--c", fam["c"]]
    if "coeffs" in fam:
        argv += ["--gamma-coeffs", ",".join(fam["coeffs"])]
    if "table" in fam:
        argv += ["--table", fam["table"], "--tail", "const:1"]
    return argv


def write_table(path: str, rng: random.Random, m: int, p: int) -> None:
    """delta2(k) = (k+m)/(k+p) * (1 + eps*u_k/(k+1)), u_k uniform in [-1, 1].

    Six decimals, ``TABLE_ROWS`` rows; the tail beyond the table is the
    declared constant 1. With p >= m+1 and eps = 1/4 every row stays below
    1 for every seed, so the structural verdicts (and with them the trace
    counts) do not depend on the seed.
    """
    rows = []
    for k in range(TABLE_ROWS):
        u = Fraction(rng.randint(-10**6, 10**6), 10**6)
        val = Fraction(k + m, k + p) * (1 + TABLE_EPS * u / (k + 1))
        text = f"{float(val):.6f}"
        if not 0 < Fraction(text) < 1:
            raise AssertionError(f"table row {k} = {text} leaves (0, 1)")
        rows.append(text)
    with open(path, "w") as fh:
        fh.write("# delta2 table generated by perfbench\n")
        fh.write("\n".join(rows) + "\n")


def _cli(cmd: str, fam: dict | None, extra: list, horizon: int, **meta) -> dict:
    argv = [cmd] + (family_argv(fam) if fam else []) + extra
    return {"kind": "cli", "cmd": cmd, "argv": argv, "fam": fam,
            "horizon": horizon, **meta}


def default_report(rng: random.Random, out_dir: str) -> list:
    tables = []
    for idx, (m, p) in enumerate(((2, 3), (3, 5))):
        path = os.path.join(out_dir, f"table{idx + 1}.csv")
        write_table(path, rng, m, p)
        tables.append({"name": "tabulated", "m": m, "table": path})
    analyze_h = max(DEFAULT_K, DEFAULT_K_SAMPLED, DEFAULT_N)
    k_exact = DEFAULT_K_EXACT
    reqs = [_cli("analyze", fam, [], analyze_h, k_exact=k_exact) for fam in suite_families(2)]
    reqs += [_cli("analyze", fam, [], analyze_h, k_exact=k_exact) for fam in suite_families(3)
             if fam["name"] in ("bergman", "rho-eta", "alt-twelve")]
    reqs += [_cli("analyze", fam, [], analyze_h, k_exact=k_exact) for fam in tables]
    for i, fam in enumerate(suite_families(2) + suite_families(3)):
        if i % 2 == 0:
            reqs.append(_cli("spectrum", fam, [], DEFAULT_K))
        else:
            reqs.append(_cli("cutoff", fam, [], DEFAULT_K))
        reqs.append(_cli("classify", fam, [], DEFAULT_K_SAMPLED, k_exact=k_exact))
    return reqs


def _exponents(rng: random.Random, m: int, offsets) -> list:
    """Exponents m + offset + jitter; the jitter never lands on p = m."""
    return [round(m + off + rng.uniform(-0.1, 0.1), 4) for off in offsets]


def deep_scan(rng: random.Random, out_dir: str) -> list:
    K = ["--K", str(DEEP_K)]
    reqs = [
        _cli("spectrum", {"name": "bergman", "m": 2}, K, DEEP_K),
        _cli("cutoff", {"name": "drury-arveson", "m": 3}, K, DEEP_K),
    ]
    for fam in ({"name": "bergman", "m": 2}, {"name": "drury-arveson", "m": 3},
                {"name": "rho-eta", "m": 2}, {"name": "alt-twelve", "m": 3},
                {"name": "constant", "m": 2, "c": "1/2"}):
        for p in _exponents(rng, fam["m"], (-0.75, -0.25, 0.25, 0.75)):
            reqs.append(_cli("schatten", fam, ["--p", repr(p)] + K, DEEP_K, p=p))
    for name, k_exact in (("drury-arveson", DEEP_K_EXACT), ("alt-twelve", DEEP_K_EXACT),
                          ("rho-eta", DEEP_K_EXACT // 2)):
        reqs.append(_cli("classify", {"name": name, "m": 2}, ["--K", str(k_exact)],
                         max(k_exact, DEFAULT_K_SAMPLED), k_exact=k_exact))
    for m in (2, 3):
        offsets = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6)
        for p in _exponents(rng, 1.0, offsets[: 8 if m == 2 else 7]):
            lo, hi = 100, 100_000
            reqs.append(_cli("lemmas", None,
                             ["--m", str(m), "--p", repr(p), "--k-range", f"{lo}:{hi}"],
                             hi, m=m, p=p, k_range=[lo, hi]))
    return reqs


# (m, N) -> requests per round
VERIFY_PLAN = {(2, 8): 12, (2, 10): 8, (2, 12): 2, (2, 14): 2, (3, 6): 7,
               (3, 7): 2, (4, 4): 6, (4, 5): 1}


def oracle_verify(rng: random.Random, out_dir: str) -> list:
    return [_cli("verify", None, ["--m", str(m), "--N", str(N)], N, m=m, N=N)
            for (m, N), count in VERIFY_PLAN.items() for _ in range(count)]


def _level_sum(fam: dict, m: int, kind: str, p: float, kmax: int) -> dict:
    j, l = (1, 1) if kind == "self" else (1, 2)
    return {"kind": "levelsum", "cmd": f"{kind}-level-sums", "fam": fam, "m": m,
            "j": j, "l": l, "p": p, "kmax": kmax, "horizon": kmax}


def level_sums(rng: random.Random, out_dir: str) -> list:
    """40 calls in three cost classes, sized so that the median (ranks 20-21)
    falls inside the 10 cross-commutator calls at kmax 20000 and the 75th
    percentile (rank 30.75) inside the 15 self-commutator calls at kmax
    10000, never on the gap between two classes. The 15 light calls are,
    per m, self at kmax 5000 on one exponent and cross at 5000 and 10000 on
    two."""
    reqs = []
    for m, n_cross_deep in ((2, 4), (3, 3), (4, 3)):
        fam = {"name": rng.choice(("bergman", "drury-arveson")), "m": m}
        ps = _exponents(rng, m, (-0.5, -0.25, 0.25, 0.75, 1.25))
        reqs.append(_level_sum(fam, m, "self", ps[0], 5_000))
        for p in ps[:2]:
            reqs.append(_level_sum(fam, m, "cross", p, 5_000))
            reqs.append(_level_sum(fam, m, "cross", p, 10_000))
        for p in ps[:n_cross_deep]:
            reqs.append(_level_sum(fam, m, "cross", p, 20_000))
        for p in ps:
            reqs.append(_level_sum(fam, m, "self", p, 10_000))
    return reqs


REQUEST_LISTS = {
    "default-report": default_report,
    "deep-scan": deep_scan,
    "oracle-verify": oracle_verify,
    "level-sums": level_sums,
}


def build(workload: str, seed: int, out_dir: str) -> list:
    """The request list of one round, in seeded order, with ids."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = REQUEST_LISTS[workload](rng, out_dir)
    rng.shuffle(reqs)
    for i, req in enumerate(reqs):
        req["id"] = i
    return reqs
