"""Module boundaries of the library: no module reads another's private state.

An AST scan of every ``src/sphshift/*.py`` file. It fails on a
``_``-prefixed attribute of any object other than ``self`` or ``cls``
(dunder names such as ``__init__`` are public protocol and pass), and on
``from .x import _name``. The ``_kernels`` module may be imported as a
module; its functions are public.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sphshift"
ALLOWED_PRIVATE_MODULES = {"_kernels"}


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
