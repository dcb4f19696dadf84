#!/usr/bin/env python3
"""Compare the CLI output of two source trees, run by run.

    python tools/report_diff.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository. The script runs one fixed list
of ``python -m sphshift.cli`` invocations against each tree's ``src``, each
from a fresh temporary working directory, and compares what a run leaves:
its exit code, standard output, standard error and every file it writes in
that directory. The ``timings`` block of a JSON report is dropped first,
since it is the one part of a report that differs between identical
requests. The script prints one line per tree with the summed wall time and
user+sys CPU of its runs (read with ``os.wait4``), then each differing run
with the head of its diff, then one summary line; the exit code is 1 if any
run differs, 0 otherwise. Only the standard library is used.
"""

from __future__ import annotations

import difflib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

WORKERS = 2          # concurrent CLI processes per tree
DIFF_LINES = 12      # diff lines printed per differing run
TABLE_SEED = 20_141_014
TABLE_ROWS = 400

# the seven families of sphshift.scalarseq.default_suite, as CLI flags
SUITE = [
    ["--family", "szego"],
    ["--family", "bergman"],
    ["--family", "drury-arveson"],
    ["--family", "rho-eta"],
    ["--family", "alt-twelve"],
    ["--family", "constant", "--c", "1/2"],
    ["--family", "poly-gamma", "--gamma-coeffs", "1,2,1"],
]


def family_runs(family: list, m: int) -> list:
    """Every subcommand that takes a family, on one family at arity m."""
    fam = family + ["--m", str(m)]
    return [
        ["dump-sequence"] + fam,
        ["spectrum"] + fam + ["--plot-data", "plot.csv"],
        ["schatten"] + fam + ["--p", str(Fraction(2 * m + 1, 2))],
        ["schatten"] + fam + ["--p", "inf"],
        ["cutoff"] + fam,
        ["classify"] + fam,
        ["classify"] + fam + ["--witness"],
        ["analyze"] + fam,
    ]


def write_tables(directory: str) -> list:
    """Two seeded delta2 tables, one of fractions and one of decimals; a bad
    one whose second row is 1/0; and two whose p-th powers leave the float
    range: rows alternating 1 and 1e200, and one row 1e-120.

    Row k of a seeded table is (k+2)/(k+3) scaled by 1 + u/(4(k+1)) with u
    uniform in [-1, 1], so every row lies in (0, 1).
    """
    rng = random.Random(TABLE_SEED)
    paths = []
    for kind in ("fraction", "decimal"):
        rows = []
        for k in range(TABLE_ROWS):
            u = Fraction(rng.randint(-1000, 1000), 1000)
            val = Fraction(k + 2, k + 3) * (1 + u / (4 * (k + 1)))
            rows.append(str(val) if kind == "fraction" else f"{float(val):.9f}")
        path = os.path.join(directory, f"{kind}.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        paths.append(path)
    for name, text in (("zero", "1\n1/0\n"),
                       ("alternating", "\n".join(["1", "1e200"] * 1500) + "\n"),
                       ("tiny", "1e-120\n")):
        paths.append(os.path.join(directory, f"{name}.csv"))
        with open(paths[-1], "w") as fh:
            fh.write(text)
    return paths


def write_family_files(directory: str):
    """Two lists of family files: the seven suite families at m = 2 and hp
    with p = 5/2 at m = 3; and files that exit 2, with a value 1/0, a bad
    tail or a key that names no parameter (K)."""
    good = [[("m", "2")] + [(flag[2:], val) for flag, val in zip(flags[::2], flags[1::2])]
            for flags in SUITE]
    good.append([("family", "hp"), ("m", "3"), ("p", "5/2")])
    bad = [[("family", "hp"), ("p", "1/0")],
           [("family", "tabulated"), ("table", os.path.join(directory, "fraction.csv")),
            ("tail", "bogus")],
           [("family", "bergman"), ("K", "5")]]
    paths = {}
    for kind, texts in (("good", good), ("bad", bad)):
        paths[kind] = []
        for i, pairs in enumerate(texts):
            path = os.path.join(directory, f"{kind}-{i}.txt")
            with open(path, "w") as fh:
                fh.writelines(f"{key} = {val}\n" for key, val in pairs)
            paths[kind].append(path)
    return paths["good"], paths["bad"]


def run_list(tables: list, good_files: list, bad_files: list) -> list:
    runs = [["families"], ["lemmas", "--m", "2"], ["lemmas", "--m", "3"],
            ["lemmas", "--m", "3", "--p", "5/2"]]
    for m in (2, 3):
        for family in SUITE:
            runs += family_runs(family, m)
    # the horizon-length layers over many blocks of k: at 10x the default
    # horizon, and at a prime horizon, which ends inside a block
    for name in ("bergman", "rho-eta", "alt-twelve"):
        for K in ("1000000", "1000003"):
            fam = ["--family", name, "--K", K]
            runs += [["spectrum"] + fam, ["cutoff"] + fam, ["schatten"] + fam + ["--p", "5/2"]]
    runs += family_runs(["--family", "constant", "--c", "7/10"], 2)
    table, decimal, zero, alternating, tiny = tables
    for path in (table, decimal):
        fam = ["--family", "tabulated", "--table", path, "--tail", "const:1", "--m", "2"]
        runs += [["analyze"] + fam, ["classify"] + fam + ["--K", "2000"]]
    # the Schatten fit route: families without declared asymptotics
    for path, tail in ((table, "const:1"), (decimal, "const:1"),
                       (alternating, "hold"), (tiny, "const:1e-120")):
        fam = ["--family", "tabulated", "--table", path, "--tail", tail, "--m", "2"]
        runs += [["schatten"] + fam + ["--p", "5/2"], ["schatten"] + fam + ["--p", "3"],
                 ["cutoff"] + fam]
    runs += [["verify", "--m", str(m), "--N", str(n)] for m, n in ((2, 8), (3, 6), (4, 4))]
    # usage errors, exit 2: a negative --Q, and a tolerance that is not finite
    runs += [["dump-sequence", "--family", "bergman", "--Q", "-1"], ["verify", "--tol", "nan"]]
    for path in good_files:
        runs += [["analyze", "--family-file", path],
                 ["schatten", "--family-file", path, "--p", "7/2"]]
    # usage errors, exit 2: a zero denominator, a directory where a file
    # belongs, a bad file value or key, a window < 1, an exponent that is
    # not a finite float
    runs += [
        ["classify", "--family", "hp", "--p", "1/0"],
        ["classify", "--family", "hp", "--p-space", "3/0"],
        ["classify", "--family", "constant", "--c", "1/0"],
        ["classify", "--family", "poly-gamma", "--gamma-coeffs", "1,1/0"],
        ["classify", "--family", "tabulated", "--table", table, "--tail", "const:1/0"],
        ["schatten", "--family", "bergman", "--p", "1/0"],
        ["cutoff", "--family", "bergman", "--grid", "2,1/0"],
        ["classify", "--family", "tabulated", "--table", zero, "--tail", "hold"],
        ["classify", "--family", "tabulated", "--table", "."],
        ["classify", "--family-file", "."],
        ["classify", "--family", "bergman", "--out", "."],
        ["spectrum", "--family", "bergman", "--plot-data", "."],
        ["spectrum", "--family", "alt-twelve", "--window", "0"],
        ["spectrum", "--family", "bergman", "--window=-5"],
        ["lemmas", "--p", "nan"],
        ["lemmas", "--p", "1e400"],
        ["lemmas", "--p", "1/0"],
    ]
    runs += [["classify", "--family-file", path] for path in bad_files]
    return runs


def _canonical(text: str) -> str:
    """A JSON report without its timings block; any other text as it is."""
    try:
        doc = json.loads(text)
    except ValueError:
        return text
    if isinstance(doc, dict):
        doc.pop("timings", None)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_one(tree: str, argv: list):
    """Everything one run leaves, as one comparable text; and the run's wall
    time and user+sys CPU in seconds."""
    env = {k: v for k, v in os.environ.items() if k != "SPHSHIFT_OUT_DIR"}
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    with tempfile.TemporaryDirectory() as cwd, tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sphshift.cli"] + argv, cwd=cwd,
                                env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        # reaped here: Popen must not wait on the pid again, which the
        # other worker's next child may already have
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        parts = [f"exit {proc.returncode}\n", "--- stdout\n",
                 _canonical(out.read()), "--- stderr\n", err.read()]
        for name in sorted(os.listdir(cwd)):
            with open(os.path.join(cwd, name)) as fh:
                parts += [f"--- file {name}\n", _canonical(fh.read())]
    return "".join(parts), wall, usage.ru_utime + usage.ru_stime


def run_tree(tree: str, runs: list) -> list:
    """The texts of a tree's runs, after one line with their summed times."""
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(lambda argv: run_one(tree, argv), runs))
    wall = sum(r[1] for r in results)
    cpu = sum(r[2] for r in results)
    print(f"{tree}: {len(runs)} runs, wall {wall:.1f} s, user+sys CPU {cpu:.1f} s "
          f"({cpu / wall:.2f}x wall)")
    return [r[0] for r in results]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: report_diff.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    for tree in args:
        if not os.path.isdir(os.path.join(tree, "src", "sphshift")):
            print(f"report_diff: {tree!r} has no src/sphshift", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tables_dir:
        runs = run_list(write_tables(tables_dir), *write_family_files(tables_dir))
        before, after = (run_tree(tree, runs) for tree in args)
        differ = 0
        for argv, a, b in zip(runs, before, after):
            if a == b:
                continue
            differ += 1
            print("differs: sphshift " + " ".join(argv).replace(tables_dir + os.sep, ""))
            diff = difflib.unified_diff(a.splitlines(), b.splitlines(), "parent", "change",
                                        n=1, lineterm="")
            for line in list(diff)[:DIFF_LINES]:
                print("    " + line)
    print(f"report_diff: {len(runs)} runs, {len(runs) - differ} identical apart from "
          f"timings, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
