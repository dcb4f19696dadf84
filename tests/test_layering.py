"""Module boundaries of the library: no module reads another's private state.

An AST scan of every ``src/sphshift/*.py`` file. It fails on a
``_``-prefixed attribute of any object other than ``self`` or ``cls``
(dunder names such as ``__init__`` are public protocol and pass), and on
``from .x import _name``. The ``_kernels`` module may be imported as a
module; its functions are public.

The oracle module ``truncation.py`` may not import ``fractions`` or build
a ``Fraction``: exact closed-form arithmetic lives in ``shift.py``, and
the oracle only reads its level-wise forms.

A further scan forbids the slow numpy calls ``polyfit`` (a Vandermonde
least-squares solve; ``_kernels.fit_slope`` is the one line fit) and
``vectorize`` (a Python loop per element), by attribute or by import.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sphshift"
ALLOWED_PRIVATE_MODULES = {"_kernels"}
FORBIDDEN_CALLS = {"polyfit", "vectorize"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def layering_violations(source: str, filename: str) -> list:
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                out.append(f"{filename}:{node.lineno}: reads .{node.attr} of another object")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if _private(alias.name) and alias.name not in ALLOWED_PRIVATE_MODULES:
                    out.append(f"{filename}:{node.lineno}: imports private name {alias.name}")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_access_across_objects(path):
    assert layering_violations(path.read_text(), path.name) == []


def test_scan_catches_each_kind_of_violation():
    source = (
        "from . import _kernels\n"
        "from .spectra import _helper\n"
        "def f(seq, self):\n"
        "    super().__init__()\n"
        "    return seq._d2, self._d2\n"
    )
    found = layering_violations(source, "m.py")
    assert found == [
        "m.py:2: imports private name _helper",
        "m.py:5: reads ._d2 of another object",
    ]


def exact_arithmetic(source: str, filename: str) -> list:
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            out += [f"{filename}:{node.lineno}: imports {a.name}"
                    for a in node.names if a.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
            out.append(f"{filename}:{node.lineno}: imports from fractions")
        elif isinstance(node, (ast.Name, ast.Attribute)) and \
                getattr(node, "id", getattr(node, "attr", None)) == "Fraction":
            out.append(f"{filename}:{node.lineno}: uses Fraction")
    return out


def test_oracle_does_no_exact_arithmetic():
    assert exact_arithmetic((SRC / "truncation.py").read_text(), "truncation.py") == []


def test_exact_arithmetic_scan_catches_each_form():
    source = (
        "import fractions\n"
        "from fractions import Fraction as F\n"
        "x = fractions.Fraction(1, 3)\n"
        "y = Fraction(2)\n"
    )
    assert exact_arithmetic(source, "m.py") == [
        "m.py:1: imports fractions",
        "m.py:2: imports from fractions",
        "m.py:3: uses Fraction",
        "m.py:4: uses Fraction",
    ]


def forbidden_calls(source: str, filename: str) -> list:
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_CALLS:
            out.append(f"{filename}:{node.lineno}: uses {node.attr}")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in FORBIDDEN_CALLS:
                    out.append(f"{filename}:{node.lineno}: imports {alias.name}")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_polyfit_or_vectorize(path):
    assert forbidden_calls(path.read_text(), path.name) == []


def test_forbidden_call_scan_catches_each_form():
    source = (
        "import numpy as np\n"
        "from numpy import vectorize\n"
        "slope = np.polyfit(x, y, 1)[0]\n"
        "f = numpy.vectorize(g)\n"
        "h = np.polynomial.polyfit\n"
    )
    assert sorted(forbidden_calls(source, "m.py")) == [
        "m.py:2: imports vectorize",
        "m.py:3: uses polyfit",
        "m.py:4: uses vectorize",
        "m.py:5: uses polyfit",
    ]
