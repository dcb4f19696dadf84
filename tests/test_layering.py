"""Module boundaries of the library: no module reads another's private state.

An AST scan of every ``src/sphshift/*.py`` file. It fails on a
``_``-prefixed attribute of any object other than ``self`` or ``cls``
(dunder names such as ``__init__`` are public protocol and pass), and on
``from .x import _name``. The ``_kernels`` module may be imported as a
module; its functions are public.

The oracle module ``truncation.py`` may not import ``fractions`` or build
a ``Fraction``: exact closed-form arithmetic lives in ``shift.py``, and
the oracle only reads its level-wise forms.

Exact delta2 has one reader: outside ``scalarseq.py`` no module calls
``delta2_exact``; each reads the exact snapshot ``delta2_exact_array``.

Each family states its float delta2 once, as an array generator: no
module defines or calls a per-k float evaluator ``delta2``, ``gamma`` or
``log_bbeta``; readers take the snapshots ``delta2_array`` and
``log_bbeta_array``.

A further scan forbids the slow numpy calls ``polyfit`` (a Vandermonde
least-squares solve; ``_kernels.fit_slope`` is the one line fit) and
``vectorize`` (a Python loop per element), by attribute or by import.

Reports have one renderer, ``cli._sanitize``, which renders a result
dataclass as the dict of its fields: no class defines its own ``to_dict``.

The last scan keeps the public surface to what is used: every public
top-level function or class and every public method must be referenced
somewhere in ``src/sphshift`` outside its own body, or be on
``UNCALLED_PUBLIC``, which names the outside reader that keeps it.
"""

import ast
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "sphshift"
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


def exact_reads(source: str, filename: str) -> list:
    return [f"{filename}:{node.lineno}: reads .delta2_exact"
            for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Attribute) and node.attr == "delta2_exact"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "scalarseq.py"),
                         ids=lambda p: p.name)
def test_exact_delta2_is_read_through_the_snapshot(path):
    assert exact_reads(path.read_text(), path.name) == []


def test_exact_read_scan_catches_each_form():
    source = (
        "a = seq.delta2_exact(3)\n"
        "f = self.seq.delta2_exact\n"
        "b = seq.delta2_exact_array(3)[3]\n"
    )
    assert sorted(exact_reads(source, "m.py")) == [
        "m.py:1: reads .delta2_exact",
        "m.py:2: reads .delta2_exact",
    ]


PER_K_FLOAT = {"delta2", "gamma", "log_bbeta"}


def per_k_float_evaluators(source: str, filename: str) -> list:
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in PER_K_FLOAT:
            out.append(f"{filename}:{node.lineno}: defines {node.name}")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in PER_K_FLOAT:
                out.append(f"{filename}:{node.lineno}: calls {name}")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_per_k_float_evaluator(path):
    assert per_k_float_evaluators(path.read_text(), path.name) == []


def test_per_k_float_scan_catches_each_form():
    source = (
        "class Seq:\n"
        "    def delta2(self, k):\n"
        "        return 1.0\n"
        "    def gamma(self, k):\n"
        "        return self.log_bbeta(k)\n"
        "a = seq.delta2(3)\n"
        "b = log_bbeta(4)\n"
        "c = seq.delta2_array(3)[3] + seq.log_bbeta_array(4)[4]\n"
        "d = math.lgamma(2.0)\n"
    )
    assert sorted(per_k_float_evaluators(source, "m.py")) == [
        "m.py:2: defines delta2",
        "m.py:4: defines gamma",
        "m.py:5: calls log_bbeta",
        "m.py:6: calls delta2",
        "m.py:7: calls log_bbeta",
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


def to_dict_methods(source: str, filename: str) -> list:
    return [f"{filename}:{sub.lineno}: {node.name} defines to_dict"
            for node in ast.walk(ast.parse(source, filename)) if isinstance(node, ast.ClassDef)
            for sub in node.body
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.name == "to_dict"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_class_renders_itself(path):
    assert to_dict_methods(path.read_text(), path.name) == []


def test_to_dict_scan_catches_each_form():
    source = (
        "class Verdict:\n"
        "    def to_dict(self):\n"
        "        return {}\n"
        "def to_dict(x):\n"
        "    class Inner:\n"
        "        async def to_dict(self):\n"
        "            pass\n"
        "    return x.to_dict()\n"
    )
    assert to_dict_methods(source, "m.py") == [
        "m.py:2: Verdict defines to_dict",
        "m.py:6: Inner defines to_dict",
    ]


# Public names nothing in src calls, by bare name (as the scan matches
# them), grouped by the file outside src that uses them. The names the
# README example and perfbench/reference.py import all have callers in src.
UNCALLED_PUBLIC = {
    # bound by the benchmark's tracer, which times or counts each call
    "perfbench/tracer.py": {"q_power_bruteforce", "bq_bruteforce", "compare_with_closed_form",
                            "weight", "q_diag", "bq_diag", "self_comm_coeff",
                            "cross_comm_coeff", "q_isometry_order", "is_q_expansion",
                            "is_szego", "complete_hyperexpansion_up_to",
                            # reads .matrix.shape of each commutator's first operand
                            "matrix"},
    # called by the benchmark's result checks
    "perfbench/checks.py": {"schatten_power_sum", "closed_form_norm"},
    # the test instrument that rescales a sequence's weights
    "tests/test_scalarseq.py": {"scale"},
}


def public_definitions(trees: dict) -> list:
    """(file, qualified name, node, is_method) of each public top-level def
    or class and each public method of a top-level class."""
    out = []
    for filename, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.append((filename, node.name, node, False))
            if isinstance(node, ast.ClassDef):
                out += [(filename, f"{node.name}.{sub.name}", sub, True) for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return out


def uncalled_public(sources: dict) -> list:
    """(file, qualified name) of each public definition that no code in
    ``sources`` refers to outside its own body. A method counts as
    referenced by an attribute read of its name; a function or class by a
    plain name or an attribute read on anything but ``self`` (which names
    an instance's field); an import alone does not count."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    attrs, names = [], []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.append(node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.append(node)
    out = []
    for filename, qualname, node, is_method in public_definitions(trees):
        inside = {id(sub) for sub in ast.walk(node)}
        refs = [a for a in attrs if a.attr == node.name
                and (is_method or not (isinstance(a.value, ast.Name) and a.value.id == "self"))]
        if not is_method:
            refs += [n for n in names if n.id == node.name]
        if all(id(ref) in inside for ref in refs):
            out.append((filename, qualname))
    return out


def _src_sources() -> dict:
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_public_name_has_a_caller_or_a_listed_reader():
    allowed = set().union(*UNCALLED_PUBLIC.values())
    unlisted = [f"{filename}: {qualname}" for filename, qualname in uncalled_public(_src_sources())
                if qualname.split(".")[-1] not in allowed]
    assert unlisted == []


def test_each_listed_name_is_uncalled_and_its_reader_uses_it():
    uncalled = {qualname.split(".")[-1] for _, qualname in uncalled_public(_src_sources())}
    for reader, listed in UNCALLED_PUBLIC.items():
        text = (REPO / reader).read_text()
        for name in listed:
            assert name in uncalled, f"{name} has a caller in src; drop it from the list"
            assert re.search(rf"\b{name}\b", text), (reader, name)


def test_uncalled_scan_catches_each_kind():
    source = (
        "def used():\n"
        "    return 1\n"
        "def lonely():\n"
        "    return lonely()\n"
        "def imported_only():\n"
        "    pass\n"
        "from .m import imported_only\n"
        "class Shape:\n"
        "    def area(self):\n"
        "        return used()\n"
        "    def name(self):\n"
        "        return 'shape'\n"
        "    def _hidden(self):\n"
        "        pass\n"
        "def caller(shape):\n"
        "    name = shape.area()\n"
        "    return Shape, name\n"
        "def field_named_like_me():\n"
        "    pass\n"
        "class Report:\n"
        "    def show(self):\n"
        "        return self.field_named_like_me\n"
        "def reader(r):\n"
        "    return r.show()\n"
    )
    assert uncalled_public({"m.py": source}) == [
        ("m.py", "lonely"),
        ("m.py", "imported_only"),
        ("m.py", "Shape.name"),
        ("m.py", "caller"),
        ("m.py", "field_named_like_me"),
        ("m.py", "Report"),
        ("m.py", "reader"),
    ]
