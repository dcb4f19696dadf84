#!/usr/bin/env python3
"""The committed report corpus: its list of requests and its writer.

    python tools/report_diff.py --write-golden

runs one fixed list of ``python -m sphshift.cli`` requests through
``cli.main`` of this tree, in this process, each from a fresh temporary
working directory, and writes one file per request under ``tests/golden/``:
the request's command line, then its exit code, standard output and error
and every file it writes in that directory. The ``timings`` block of a JSON
report is dropped first, since it is the one part of a report that differs
between identical requests, and the tables directory is left out of every
path. ``tests/test_golden.py`` runs each request again and compares the
bytes. Only the standard library is used, apart from the package itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import sys
import tempfile
from fractions import Fraction

TABLE_SEED = 20_141_014
TABLE_ROWS = 400
# the environment of every run: argparse wraps its usage text at the
# terminal's width, so a run sees 80 columns, and no output directory
RUN_ENV = {"COLUMNS": "80"}
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(REPO, "tests", "golden")  # the committed report corpus

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
    # a falling delta2 whose step polynomial is one-signed: the derived
    # monotonicity and sup
    runs += family_runs(["--family", "poly-gamma", "--gamma-coeffs", "1,3,3,1"], 3)
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
    # float-range edges: an exponent whose k^(p+m-1) overflows, exit 2; an
    # oracle whose Q^3(I) overflows, exit 2; B_3 = (1 - delta2)^3 beyond the
    # float range, printed as -inf
    runs += [["lemmas", "--p", "77"],
             ["analyze", "--family", "constant", "--c", "8e51", "--N", "3"],
             ["dump-sequence", "--family", "constant", "--c", "1e52", "--K", "3", "--Q", "3"]]
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


def _collect(code, stdout: str, stderr: str, cwd: str) -> str:
    """One run's exit code, output streams and written files, as one text."""
    parts = [f"exit {code}\n", "--- stdout\n", _canonical(stdout), "--- stderr\n", stderr]
    for name in sorted(os.listdir(cwd)):
        with open(os.path.join(cwd, name)) as fh:
            parts += [f"--- file {name}\n", _canonical(fh.read())]
    return "".join(parts)


def run_in_process(argv: list, tables_dir: str) -> str:
    """Everything one ``cli.main`` call in this process leaves, as one
    text, run from a fresh temporary directory, with the tables directory
    left out of paths so that the text does not depend on where the tables
    were written."""
    from sphshift import cli

    out, err, home, environ = io.StringIO(), io.StringIO(), os.getcwd(), dict(os.environ)
    os.environ.pop("SPHSHIFT_OUT_DIR", None)
    os.environ.update(RUN_ENV)
    with tempfile.TemporaryDirectory() as cwd:
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # a usage error found by argparse
                    code = exc.code
        finally:
            os.chdir(home)
            os.environ.clear()
            os.environ.update(environ)
        text = _collect(code, out.getvalue(), err.getvalue(), cwd)
    return text.replace(tables_dir + os.sep, "")


def _words(argv: list, tables_dir: str) -> str:
    """A run's arguments as one line, without the tables directory."""
    return " ".join(argv).replace(tables_dir + os.sep, "")


def golden_runs(tables_dir: str) -> dict:
    """The corpus file name of each run of run_list, mapped to its argv."""
    runs = run_list(write_tables(tables_dir), *write_family_files(tables_dir))
    return {f"{i:03d}-" + re.sub(r"[^\w.,=+-]+", "_", _words(argv, tables_dir))[:100] + ".txt": argv
            for i, argv in enumerate(runs)}


def golden_text(argv: list, tables_dir: str) -> str:
    """A corpus file: the command line, then what the run leaves."""
    return f"sphshift {_words(argv, tables_dir)}\n" + run_in_process(argv, tables_dir)


def write_golden() -> int:
    """Replace the corpus by one file per run of run_list."""
    sys.path.insert(0, os.path.join(REPO, "src"))
    os.makedirs(GOLDEN, exist_ok=True)
    for name in os.listdir(GOLDEN):
        if name.endswith(".txt"):
            os.remove(os.path.join(GOLDEN, name))
    with tempfile.TemporaryDirectory() as tables_dir:
        runs = golden_runs(tables_dir)
        for name, argv in runs.items():
            with open(os.path.join(GOLDEN, name), "wb") as fh:
                fh.write(golden_text(argv, tables_dir).encode())
    print(f"report_diff: wrote {len(runs)} corpus files to {GOLDEN}")
    return 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args != ["--write-golden"]:
        print("usage: report_diff.py --write-golden", file=sys.stderr)
        return 2
    return write_golden()


if __name__ == "__main__":
    sys.exit(main())
