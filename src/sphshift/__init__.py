"""sphshift: spherical multi-variable weighted shifts, numerically honest.

Build the m-tuple from a scalar weight sequence, compute its spectral-part
radii, decide Schatten-class membership of its cross-commutators, classify
its structure (hyponormality, isometry orders, expansions, subnormality
consistency), and verify every closed form against a brute-force
finite-truncation matrix oracle.
"""

__version__ = "0.1.0"

import os

# OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, when numpy loads it. At 4, its
# minimum, an idle worker thread sleeps at once instead of spinning for about
# 0.1 s after start-up and after every threaded call; the thread count, and
# so every product, is unchanged. The setting lives only for this first
# import: a value the user set is left alone, and once numpy is loaded (the
# caller imported it first) the block has no effect.
if "OPENBLAS_THREAD_TIMEOUT" not in os.environ:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]

from .scalarseq import HpSpace, RhoEta
from .shift import SphericalShift
from .truncation import oracle_suite
from .spectra import spectral_report
from .schatten import decide
from .classify import classification
