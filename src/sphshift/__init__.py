"""sphshift: spherical multi-variable weighted shifts, numerically honest.

Build the m-tuple from a scalar weight sequence, compute its spectral-part
radii, decide Schatten-class membership of its cross-commutators, classify
its structure (hyponormality, isometry orders, expansions, subnormality
consistency), and verify every closed form against a brute-force
finite-truncation matrix oracle.
"""

__version__ = "0.1.0"

import os
from importlib import import_module

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

# The seven exports load their layer on first use (PEP 562), so that
# `import sphshift` and each CLI request load only the layers they need.
_EXPORTS = {
    "HpSpace": "scalarseq",
    "RhoEta": "scalarseq",
    "SphericalShift": "shift",
    "oracle_suite": "truncation",
    "spectral_report": "spectra",
    "decide": "schatten",
    "classification": "classify",
}


def __getattr__(name):
    # an unknown name must raise AttributeError: `from sphshift import cli`
    # then imports the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
