#!/usr/bin/env python3
"""Re-measure the ROADMAP baseline rows in-process, as reference figures.

    python3 perfbench/reference.py

Prints one line per row: the median wall time of REPEATS calls (the import
row: of fresh interpreters). These are not benchmark metrics; they place
the benchmark's figures next to the table the project started from.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
REPEATS = 5


def timed(fn, repeats=REPEATS):
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def import_time():
    code = "import time; t = time.perf_counter(); import sphshift.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout)
        for _ in range(7))


def main() -> int:
    from sphshift import (HpSpace, RhoEta, SphericalShift, classification, cli, oracle_suite,
                          spectral_report)
    from sphshift import _kernels

    rows = [("import sphshift.cli", import_time())]

    def analyze(*family):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["analyze", "--m", "2", *family])

    for label, fam in (("hp p=3", ["--family", "hp", "--p", "3"]),
                       ("rho-eta", ["--family", "rho-eta"]),
                       ("alt-twelve", ["--family", "alt-twelve"]),
                       ("poly-gamma", ["--family", "poly-gamma", "--gamma-coeffs", "1,2,1"])):
        rows.append((f"analyze --m 2 {label}", timed(lambda: analyze(*fam))))
    # a fresh sequence per call: sequences cache their materialised data
    for label, make in (("hp", lambda: HpSpace(2, Fraction(3))), ("rho-eta", RhoEta)):
        rows.append((f"spectral_report K=1e6 {label}",
                     timed(lambda: spectral_report(make(), 2, K=1_000_000))))
    for m, N, repeats in ((3, 14, REPEATS), (4, 10, 3)):
        shift = SphericalShift(m, HpSpace(m, m + 1))
        rows.append((f"oracle_suite bergman m={m} N={N}", timed(lambda: oracle_suite(shift, N), repeats)))
    rows.append(("classification bergman exact K=2000",
                 timed(lambda: classification(HpSpace(2, 3), K=2000))))
    d2 = HpSpace(2, 3).delta2_array(2000)
    rows.append(("self_level_powersums m=2 kmax=2000",
                 timed(lambda: _kernels.self_level_powersums(d2, 2, 2.5))))
    rows.append(("self_level_powersums m=4 kmax=2000",
                 timed(lambda: _kernels.self_level_powersums(d2, 4, 4.5))))
    rows.append(("cross_level_powersums m=3 kmax=2000",
                 timed(lambda: _kernels.cross_level_powersums(d2, 3, 3.5))))
    for label, secs in rows:
        print(f"| {label} | {secs:.3f} s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
