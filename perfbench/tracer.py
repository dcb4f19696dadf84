"""Span recorder that wraps sphshift's public functions from outside.

``Tracer.install`` replaces every binding of each traced function: the
defining module's attribute, every ``sphshift*`` module attribute that
holds the same object (names imported with ``from .x import f`` and the
package re-exports), and, for the ``ScalarSequence`` methods, every
subclass that overrides them. Spans are kept in memory; ``restore`` puts
the original functions back.

A span is ``[name, start, end, parent, request]``; a layer's self time is
its spans' durations minus the time their child spans cover. Methods that
run once per basis element are counted, not timed.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

TIMED = {
    "cli": ["main"],
    "spectra": ["spectral_report", "outer_radius", "inner_radius", "convergence_radius",
                "essential_normality_gate", "essential_shell", "point_spectrum_boundary"],
    "schatten": ["decide", "criterion_term_arrays", "cutoff_check",
                 "asymptotic_lemma_check", "closed_form_level_sums"],
    "_kernels": ["kahan_cumsum", "self_level_powersums", "cross_level_powersums",
                 "pairsum", "abs_sum"],
    "classify": ["classification", "is_hyponormal", "q_isometry_order",
                 "complete_hyperexpansion_up_to", "subnormal_consistency", "is_szego",
                 "is_compact", "is_essentially_normal", "is_q_expansion"],
    "truncation": ["oracle_suite", "build_basis", "build_tuple_matrices", "bq_bruteforce",
                   "commutator", "compare_with_closed_form", "q_power_bruteforce"],
    "multiindex": ["enumerate_level"],
}
TIMED_METHODS = {"scalarseq": ("ScalarSequence", ["delta2_array", "log_bbeta_array", "gamma_exact"])}
COUNTED_METHODS = {"shift": ("SphericalShift", ["weight", "q_diag", "bq_diag",
                                                "self_comm_coeff", "cross_comm_coeff"])}
SUBCOMMANDS = ["analyze", "spectrum", "cutoff", "schatten", "classify", "lemmas", "verify"]


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in report order."""
    names = ["cli.import_s", "cli.main.self_s"]
    names += [f"cli.{c}.latency_p50_s" for c in SUBCOMMANDS]
    names += ["scalarseq.delta2_array.calls", "scalarseq.delta2_array.self_s",
              "scalarseq.delta2_array.elements", "scalarseq.log_bbeta_array.calls",
              "scalarseq.log_bbeta_array.self_s", "scalarseq.gamma_exact.calls",
              "scalarseq.gamma_exact.self_s", "scalarseq.materialized_per_needed"]
    names += [f"spectra.{f}.self_s" for f in TIMED["spectra"]]
    names += ["schatten.decide.calls", "schatten.decide.self_s", "schatten.decide.useful_ratio"]
    names += [f"schatten.{f}.self_s" for f in TIMED["schatten"][1:]]
    names += ["kernels.kahan_cumsum.calls", "kernels.kahan_cumsum.self_s",
              "kernels.kahan_cumsum.elements"]
    for f in ("self_level_powersums", "cross_level_powersums"):
        names += [f"kernels.{f}.self_s", f"kernels.{f}.elements"]
    names += ["kernels.pairsum.self_s", "kernels.abs_sum.self_s"]
    names += [f"classify.{f}.self_s" for f in TIMED["classify"][:-1]]
    names += ["classify.is_q_expansion.calls", "classify.is_q_expansion.self_s",
              "classify.is_q_expansion.useful_ratio"]
    names += [f"truncation.{f}.self_s" for f in TIMED["truncation"][:-1]]
    names += ["truncation.q_power_bruteforce.calls", "truncation.q_power_bruteforce.self_s",
              "truncation.q_power_bruteforce.useful_ratio", "truncation.dense_gflop_computed",
              "truncation.cpu_per_wall"]
    names += [f"shift.SphericalShift.{f}.calls" for f in COUNTED_METHODS["shift"][1]]
    names += ["multiindex.enumerate_level.calls", "multiindex.enumerate_level.self_s",
              "trace.overhead_ratio"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith((".calls", ".elements")):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name == "truncation.dense_gflop_computed":
        return "GFLOP"
    return "ratio"


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self.counts = Counter()
        self.elements = Counter()
        self.useful = defaultdict(set)
        self.flops = 0  # an int, so the total does not depend on the call order
        self.oracle_cpu = 0.0
        self._stack = []
        self._patched = []

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, name, fn, hook=None):
        spans, stack, now = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            done = hook(idx, args, kwargs) if hook is not None else None
            stack.append(idx)
            span[1] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
                if done is not None:
                    done()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks: counts measured where the work happens -----------------------

    def _elements(self, name, size):
        """Adds size(args, kwargs) to the element count of name."""
        def hook(idx, args, kwargs):
            self.elements[name] += size(args, kwargs)
        return hook

    def _distinct(self, name, fn, key):
        sig = inspect.signature(fn)

        def hook(idx, args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.useful[name].add(key(bound.arguments))
        return hook

    def _ancestor(self, idx, name):
        parent = self.spans[idx][3]
        while parent >= 0 and self.spans[parent][0] != name:
            parent = self.spans[parent][3]
        return parent

    def _hooks(self, modules):
        level_count = modules["multiindex"].level_count

        def q_power(idx, args, kwargs):
            ts, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
            dim, m = ts[0].matrix.shape[0], len(ts)
            products = level_count(m, k) * (k + 1) if k > 0 else 0
            self.flops += products * 2 * dim ** 3
            self.useful["truncation.q_power_bruteforce"].add(
                (self._ancestor(idx, "truncation.oracle_suite"), k))

        def comm(idx, args, kwargs):
            self.flops += 2 * 2 * args[0].matrix.shape[0] ** 3

        def oracle(idx, args, kwargs):
            cpu0 = time.process_time()

            def done():
                self.oracle_cpu += time.process_time() - cpu0
            return done

        def family(seq):
            return json.dumps(seq.describe(), sort_keys=True, default=str)

        return {
            "scalarseq.delta2_array": self._elements(
                "scalarseq.delta2_array", lambda a, kw: (a[1] if len(a) > 1 else kw["kmax"]) + 1),
            **{name: self._elements(name, lambda a, kw: len(a[0]))
               for name in ("kernels.kahan_cumsum", "kernels.self_level_powersums",
                            "kernels.cross_level_powersums")},
            "schatten.decide": self._distinct(
                "schatten.decide", modules["schatten"].decide,
                lambda a: (self.request, family(a["seq"]), a["m"], float(a["p"]), a["K"])),
            "classify.is_q_expansion": self._distinct(
                "classify.is_q_expansion", modules["classify"].is_q_expansion,
                lambda a: (self.request, family(a["seq"]), a["q"], a["K"])),
            "truncation.q_power_bruteforce": q_power,
            "truncation.commutator": comm,
            "truncation.oracle_suite": oracle,
        }

    # -- install / restore ------------------------------------------------------

    def _rebind(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sphshift" or modname.startswith("sphshift.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import importlib

        modules = {name: importlib.import_module(f"sphshift.{name}")
                   for name in ("cli", "spectra", "schatten", "_kernels", "classify",
                                "truncation", "multiindex", "scalarseq", "shift")}
        hooks = self._hooks(modules)
        for modname, funcs in TIMED.items():
            for fname in funcs:
                # metric names start with a letter: _kernels spans are "kernels.*"
                name = f"{modname.lstrip('_')}.{fname}"
                fn = getattr(modules[modname], fname)
                self._rebind(fn, self._timed(name, fn, hooks.get(name)))
        for modname, (base_name, methods) in TIMED_METHODS.items():
            base = getattr(modules[modname], base_name)
            classes = [c for c in vars(modules[modname]).values()
                       if isinstance(c, type) and issubclass(c, base)]
            for meth in methods:
                name = f"{modname}.{meth}"
                for cls in classes:
                    if meth in vars(cls):
                        fn = vars(cls)[meth]
                        self._patched.append((cls, meth, fn))
                        setattr(cls, meth, self._timed(name, fn, hooks.get(name)))
        for modname, (cls_name, methods) in COUNTED_METHODS.items():
            cls = getattr(modules[modname], cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                self._patched.append((cls, meth, fn))
                setattr(cls, meth, self._counted(f"{modname}.{cls_name}.{meth}", fn))

    def restore(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------------

    def layer_metrics(self, horizon_total: int) -> dict:
        self_s = Counter()
        calls = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        oracle_wall = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
            if name == "truncation.oracle_suite":
                oracle_wall += end - start

        def ratio(name):
            return len(self.useful[name]) / calls[name] if calls[name] else 0.0

        out = {}
        for metric in metric_names():
            parts = metric.rsplit(".", 1)
            base, stat = parts[0], parts[1]
            if stat == "self_s":
                out[metric] = self_s[base]
            elif stat == "calls":
                out[metric] = calls[base] if base in calls else self.counts[base]
            elif stat == "elements":
                out[metric] = self.elements[base]
            elif stat == "useful_ratio":
                out[metric] = ratio(base)
        out["scalarseq.materialized_per_needed"] = (
            self.elements["scalarseq.delta2_array"] / horizon_total)
        out["truncation.dense_gflop_computed"] = self.flops / 1e9
        out["truncation.cpu_per_wall"] = self.oracle_cpu / oracle_wall if oracle_wall else 0.0
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh)
