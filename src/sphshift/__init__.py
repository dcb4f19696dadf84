"""sphshift: spherical multi-variable weighted shifts, numerically honest.

Build the m-tuple from a scalar weight sequence, compute its spectral-part
radii, decide Schatten-class membership of its cross-commutators, classify
its structure (hyponormality, isometry orders, expansions, subnormality
consistency), and verify every closed form against a brute-force
finite-truncation matrix oracle.
"""

__version__ = "0.1.0"

from .scalarseq import HpSpace, RhoEta
from .shift import SphericalShift
from .truncation import oracle_suite
from .spectra import spectral_report
from .schatten import decide
from .classify import classification
