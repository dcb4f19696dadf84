"""Command-line front end: family registry, analysis commands, verification.

One runner, ``_run``, builds the report of every analysis subcommand: the
request, then one section per stage that the subcommand names, and each
stage's wall time under ``timings``. Reports are schema-stable JSON with
fixed key order; identical requests produce identical reports apart from
the timings. Exit codes: 0 success, 1 verification failure, 2 usage error,
3 internal error (any other exception, such as a MemoryError, as one line
on standard error), 141 when the reader closes standard output early
(128 + SIGPIPE, as a shell reports).

Each subcommand or stage imports the layers it uses when it runs, so that
a request, a fresh process, compiles and loads only those.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .scalarseq import (
    DEFAULT_J,
    DEFAULT_K,
    DEFAULT_K_EXACT,
    DEFAULT_K_SAMPLED,
    DEFAULT_P,
    DEFAULT_Q,
    FAMILIES,
    ScalarSequence,
    TableRangeError,
    UnknownFamilyError,
    VerificationError,
    default_suite,
    make_family,
    parse_rational,
)

SCHEMA_VERSION = 2
CLI_MAX_ARITY = 8


def _parse_rational(text: str) -> Fraction:
    """scalarseq.parse_rational for argparse, which prints the reason of an
    ArgumentTypeError but drops that of a ValueError."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_tail(text: str):
    if text in ("error", "hold"):
        return text
    if text.startswith("const:"):
        return ("const", _parse_rational(text.split(":", 1)[1]))
    raise argparse.ArgumentTypeError(
        f"tail must be 'error', 'hold' or 'const:<value>', got {text!r}"
    )


def _parse_finite_exponent(text: str) -> float:
    """An exponent: a decimal or fraction within float range."""
    try:
        return float(_parse_rational(text))
    except OverflowError:
        raise argparse.ArgumentTypeError(f"exponent {text!r} overflows a float") from None


def _parse_exponent(text: str) -> float:
    """A Schatten exponent: 'inf' or a finite exponent."""
    return math.inf if text == "inf" else _parse_finite_exponent(text)


def _parse_tol(text: str) -> float:
    """A comparison tolerance: a finite float >= 0. The digits before any
    exponent give the text's sign, so '-1e-400', which rounds to -0.0, is
    refused as negative, and '1e-400', which rounds to 0.0, as below the
    float range: only a zero asks for exact agreement."""
    try:
        tol, digits = float(text), float(text.lower().partition("e")[0])
    except ValueError:
        tol = digits = math.nan
    if not (math.isfinite(tol) and tol >= 0 and digits >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    if tol == 0 < digits:
        raise argparse.ArgumentTypeError(f"tolerance {text!r} rounds to 0.0, below the smallest "
                                         f"float; --tol 0 asks for exact agreement")
    return abs(tol)  # '-0' is 0.0, not -0.0


def _parse_window(text: str) -> int:
    """A sample window: an integer >= 1."""
    try:
        window = int(text)
    except ValueError:
        window = 0
    if window < 1:
        raise argparse.ArgumentTypeError(f"window must be an integer >= 1, got {text!r}")
    return window


def _parse_grid(text: str):
    vals = [_parse_exponent(tok.strip()) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("empty p grid")
    return vals


def _parse_coeffs(text: str):
    return [_parse_rational(tok.strip()) for tok in text.split(",") if tok.strip()]


def _parse_krange(text: str):
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("k-range must look like 100:10000") from exc


# the keys of a family file, each with the flag it stands for
FAMILY_FILE_KEYS = {"family": "--family", "m": "--m", "p": "--p-space", "c": "--c",
                    "gamma-coeffs": "--gamma-coeffs", "table": "--table", "tail": "--tail"}


def _family_file_flags(path: str) -> list:
    """The flags that a flat ``key = value`` family file stands for."""
    flags = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            key = key.strip().replace("_", "-")
            if not eq:
                raise ValueError(f"malformed line in {path!r}: {line!r}")
            if key not in FAMILY_FILE_KEYS:
                raise ValueError(f"unknown key {key!r} in {path!r}; the keys are "
                                 + ", ".join(FAMILY_FILE_KEYS))
            # --flag=value: a value that starts with '-' stays a value
            flags.append(f"{FAMILY_FILE_KEYS[key]}={val.strip()}")
    return flags


def _family_from_args(args) -> ScalarSequence:
    return make_family(args.family, m=args.m, p=args.p_family, c=args.c,
                       gamma_coeffs=args.gamma_coeffs, table=args.table, tail=args.tail)


def _sanitize(obj):
    """The one renderer: make a report strictly JSON-serializable and
    reproducible. A result object (a dataclass) renders as the dict of its
    fields, so its field names are the report's keys."""
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields is not None:
        obj = {name: getattr(obj, name) for name in fields}
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return _sanitize(obj.item())
    return obj


def _emit(payload: dict, args) -> None:
    """Write a report: the schema and tool versions, then the payload."""
    report = {"schema_version": SCHEMA_VERSION, "tool_version": __version__, **payload}
    text = json.dumps(_sanitize(report), indent=2, sort_keys=True)
    _write_text(text + "\n", getattr(args, "out", None))


def _write_text(text: str, out) -> None:
    if out:
        out_dir = os.environ.get("SPHSHIFT_OUT_DIR", "")
        if out_dir and not os.path.isabs(out):
            out = os.path.join(out_dir, out)
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe fails here, inside main()


def _default_p_grid(m: int):
    return [1.0, m / 2 + 0.5, m - 0.5, float(m), m + 0.25, m + 1.0]


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


# -- the report runner and the stages it runs ---------------------------------


def _run(args, request: dict, stages, *inputs, passed=lambda sections: True) -> int:
    """The one report path. Each stage is (key, name, compute): in order,
    ``compute(*inputs)`` gives the report's section ``key`` and its wall
    time goes to ``timings[name + "_s"]``; then the request, the sections
    and the timings are emitted. The exit code is 1 when ``passed`` finds
    the sections failed, else 0."""
    sections, timings = {}, {}
    for key, name, compute in stages:
        t0 = time.perf_counter()
        sections[key] = compute(*inputs)
        timings[f"{name}_s"] = time.perf_counter() - t0
    _emit({"request": request, **sections, "timings": timings}, args)
    return 0 if passed(sections) else 1


def _run_family(args, stages, **kwargs) -> int:
    """``_run`` on the subcommand's family, built once, outside the timers."""
    seq = _family_from_args(args)
    request = {"command": args.command, "family": seq.describe(), "m": args.m}
    return _run(args, request, stages, seq, **kwargs)


def _spectrum(seq, m: int, K: int, J: int, window, plot_data):
    """The spectral report; with ``plot_data``, its per-lag radii also go
    to that CSV, before the report is emitted."""
    from .spectra import spectral_report

    report = spectral_report(seq, m, K=K, J=J, window=window)
    if plot_data:
        lags = zip(report.outer_radius.j_grid, report.outer_radius.sequence,
                   report.inner_radius.sequence)
        _write_text(_csv([["j", "outer", "inner"]]
                         + [[j, repr(ro), repr(ri)] for j, ro, ri in lags]), plot_data)
    return report


def _cutoff(seq, m: int, grid, K: int) -> dict:
    """Verdicts across ``grid``, or across a default grid that straddles m."""
    from .schatten import cutoff_check

    return cutoff_check(seq, m, grid or _default_p_grid(m), K=K)


def _classification(seq, P: int, Q: int, K: int, horizon: int, witness: bool) -> dict:
    """The structural classification; without ``witness``, with no failure indices."""
    from .classify import classification

    body = _sanitize(classification(seq, P=P, Q=Q, K=K, horizon=horizon))
    if not witness:
        for entry in [*body.values(), *body["q_expansion"].values()]:
            if isinstance(entry, dict):
                entry.pop("witness", None)
    return body


# -- subcommand bodies -------------------------------------------------------


def cmd_families(args) -> int:
    _emit({"families": [{"name": name, "description": description}
                        for name, description in FAMILIES.items()]}, args)
    return 0


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def cmd_dump_sequence(args) -> int:
    from .shift import SphericalShift

    if args.K < 0:
        raise ValueError("--K must be >= 0")
    if args.Q < 0:
        raise ValueError("--Q must be >= 0")
    seq = _family_from_args(args)
    shift = SphericalShift(args.m, seq)
    logbb = seq.log_bbeta_array(args.K + args.Q).tolist()  # delta2 through K + Q - 1, as bq_rows
    d2 = seq.delta2_array(args.K).tolist()
    ks = range(args.K + 1)
    bq = shift.bq_rows(args.Q, ks).tolist() if args.Q else []
    rows = [["k", "delta2", "gamma", "log_bbeta"] + [f"bq_{q}" for q in range(1, args.Q + 1)]]
    rows += [[k, repr(d2[k]), repr(_exp_or_inf(2.0 * logbb[k])), repr(logbb[k])]
             + [repr(col[k]) for col in bq] for k in ks]
    _write_text(_csv(rows), args.out)
    return 0


def cmd_spectrum(args) -> int:
    return _run_family(args, [("spectrum", "spectrum", lambda seq: _spectrum(
        seq, args.m, args.K, args.J, args.window, args.plot_data))])


def cmd_schatten(args) -> int:
    from .schatten import decide

    return _run_family(args, [("schatten", "schatten",
                               lambda seq: decide(seq, args.m, args.p, K=args.K))])


def cmd_cutoff(args) -> int:
    return _run_family(args, [("cutoff", "cutoff",
                               lambda seq: _cutoff(seq, args.m, args.grid, args.K))])


def cmd_classify(args) -> int:
    return _run_family(args, [("classification", "classify", lambda seq: _classification(
        seq, args.P, args.Q, args.K, args.horizon, args.witness))])


def cmd_lemmas(args) -> int:
    from .schatten import asymptotic_lemma_check

    request = {"command": "lemmas", "m": args.m, "p": args.p, "k_range": list(args.k_range)}
    return _run(args, request, [("lemmas", "lemmas", lambda: asymptotic_lemma_check(
        args.m, args.p, args.k_range, points=args.points))],
        passed=lambda sections: sections["lemmas"]["pass"])


def cmd_verify(args) -> int:
    """The oracle suite on every default family; outside the runner, since
    its report holds the rows and their overall pass at the top level."""
    from .shift import SphericalShift
    from .truncation import oracle_suite, suite_basis

    t0 = time.perf_counter()
    basis = suite_basis(args.m, args.N)
    results = [{"family": label, "m": args.m, "N": args.N, **row}
               for label, seq in default_suite(args.m)
               for row in oracle_suite(SphericalShift(args.m, seq), args.N, tol=args.tol,
                                       basis=basis)]
    ok = all(row["pass"] for row in results)
    _emit({"request": {"command": "verify", "m": args.m, "N": args.N, "tol": args.tol},
           "results": results, "pass": ok,
           "timings": {"verify_s": time.perf_counter() - t0}}, args)
    return 0 if ok else 1


def cmd_analyze(args) -> int:
    from .classify import require_classification_orders
    from .schatten import require_cross_arity, require_exponents_and_horizon
    from .shift import SphericalShift
    from .truncation import oracle_suite, suite_basis

    require_cross_arity(args.m)  # the cutoff stage's refusals, before any stage runs
    require_exponents_and_horizon(args.grid or (), args.K)
    require_classification_orders(args.P, args.Q, args.K_exact)  # the classification's
    basis = suite_basis(args.m, args.N)  # and the oracle's
    return _run_family(args, [
        ("spectrum", "spectrum",
         lambda seq: _spectrum(seq, args.m, args.K, args.J, window=None, plot_data=None)),
        ("schatten_cutoff", "schatten", lambda seq: _cutoff(seq, args.m, args.grid, args.K)),
        ("classification", "classify", lambda seq: _classification(
            seq, args.P, args.Q, args.K_exact, args.K, witness=True)),
        ("oracle", "oracle",
         lambda seq: oracle_suite(SphericalShift(args.m, seq), args.N, tol=args.tol,
                                  basis=basis)),
    ], passed=lambda sections: all(row["pass"] for row in sections["oracle"]))


# -- argument wiring ----------------------------------------------------------


def _add_family_flags(sub, family_p_flag: str = "--p") -> None:
    sub.add_argument("--family", help="registered family name")
    sub.add_argument("--family-file", help="flat key = value family file; its values "
                                           "win over the flags they stand for")
    sub.add_argument("--m", type=int, default=2, help="tuple arity (default 2)")
    flags = [family_p_flag] + (["--p-space"] if family_p_flag == "--p" else [])
    sub.add_argument(*flags, dest="p_family", type=_parse_rational, default=None,
                     help="kernel-scale parameter for --family hp")
    sub.add_argument("--c", type=_parse_rational, default=None,
                     help="weight for --family constant")
    sub.add_argument("--gamma-coeffs", type=_parse_coeffs, default=None,
                     help="comma-separated polynomial coefficients a0,a1,...")
    sub.add_argument("--table", help="one-column CSV of delta2 values")
    sub.add_argument("--tail", type=_parse_tail, default="error",
                     help="tabulated tail rule: error | hold | const:<value>")


def _add_out(sub) -> None:
    sub.add_argument("--out", help="write the report here instead of stdout "
                                   "(SPHSHIFT_OUT_DIR prefixes relative paths)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphshift",
        description="spherical multi-shift analysis: spectra, Schatten membership, "
                    "classification, and brute-force verification",
    )
    parser.add_argument("--version", action="version", version=f"sphshift {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("families", help="list registered families")
    _add_out(sub)
    sub.set_defaults(func=cmd_families)

    sub = subs.add_parser("dump-sequence", help="CSV of k, delta2, gamma, log_bbeta, bq_q")
    _add_family_flags(sub)
    sub.add_argument("--K", type=int, default=50)
    sub.add_argument("--Q", type=int, default=6)
    _add_out(sub)
    sub.set_defaults(func=cmd_dump_sequence)

    sub = subs.add_parser("spectrum", help="spectral-part radii and shells")
    _add_family_flags(sub)
    sub.add_argument("--K", type=int, default=DEFAULT_K)
    sub.add_argument("--J", type=int, default=DEFAULT_J)
    sub.add_argument("--window", type=_parse_window, default=None)
    sub.add_argument("--plot-data", help="CSV dump of the per-lag sequences")
    _add_out(sub)
    sub.set_defaults(func=cmd_spectrum)

    sub = subs.add_parser("schatten", help="membership verdict at one exponent")
    _add_family_flags(sub, family_p_flag="--p-space")
    sub.add_argument("--p", dest="p", required=True,
                     type=_parse_exponent,
                     help="Schatten exponent (family parameter is --p-space here)")
    sub.add_argument("--K", type=int, default=DEFAULT_K)
    _add_out(sub)
    sub.set_defaults(func=cmd_schatten)

    sub = subs.add_parser("cutoff", help="verdicts across a grid of exponents")
    _add_family_flags(sub)
    sub.add_argument("--grid", type=_parse_grid, default=None,
                     help="comma-separated exponents (default straddles m)")
    sub.add_argument("--K", type=int, default=DEFAULT_K)
    _add_out(sub)
    sub.set_defaults(func=cmd_cutoff)

    sub = subs.add_parser("classify", help="structural classification")
    _add_family_flags(sub)
    sub.add_argument("--P", type=int, default=DEFAULT_P)
    sub.add_argument("--Q", type=int, default=DEFAULT_Q)
    sub.add_argument("--K", type=int, default=DEFAULT_K_EXACT)
    sub.add_argument("--horizon", type=int, default=DEFAULT_K_SAMPLED)
    sub.add_argument("--witness", action="store_true", help="include failure indices")
    _add_out(sub)
    sub.set_defaults(func=cmd_classify)

    sub = subs.add_parser("lemmas", help="per-level growth-window measurements")
    sub.add_argument("--m", type=int, default=2)
    sub.add_argument("--p", type=_parse_finite_exponent, default=1.0)
    sub.add_argument("--k-range", type=_parse_krange, default=(100, 10_000))
    sub.add_argument("--points", type=int, default=24)
    _add_out(sub)
    sub.set_defaults(func=cmd_lemmas)

    sub = subs.add_parser("verify", help="run the brute-force oracle suite")
    sub.add_argument("--m", type=int, default=2)
    sub.add_argument("--N", type=int, default=10)
    sub.add_argument("--tol", type=_parse_tol, default=1e-10)
    _add_out(sub)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("analyze", help="full report: spectrum + cutoff + classification + oracle")
    _add_family_flags(sub)
    sub.add_argument("--K", type=int, default=DEFAULT_K)
    sub.add_argument("--J", type=int, default=DEFAULT_J)
    sub.add_argument("--K-exact", dest="K_exact", type=int, default=DEFAULT_K_EXACT)
    sub.add_argument("--N", type=int, default=10)
    sub.add_argument("--P", type=int, default=DEFAULT_P)
    sub.add_argument("--Q", type=int, default=DEFAULT_Q)
    sub.add_argument("--grid", type=_parse_grid, default=None)
    sub.add_argument("--tol", type=_parse_tol, default=1e-10)
    _add_out(sub)
    sub.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "family_file", None):
            # the file's flags come last, so they win, and each value goes
            # through its flag's own type
            args = parser.parse_args(argv + _family_file_flags(args.family_file))
        if getattr(args, "family", "") is None:
            raise ValueError("no family given; use --family or --family-file")
        if hasattr(args, "m") and not 1 <= args.m <= CLI_MAX_ARITY:
            raise ValueError(f"arity m must be in 1..{CLI_MAX_ARITY}")
        return args.func(args)
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to /dev/null, so
        # that the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UnknownFamilyError, TableRangeError, ValueError, OSError) as exc:
        # OSError: a path named by --table, --family-file, --out or
        # --plot-data that cannot be read or written
        print(f"sphshift: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"sphshift: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # any other fault: one line, never a traceback
        detail = " ".join(str(exc).split())
        print(f"sphshift: internal error: {type(exc).__name__}"
              + (f": {detail}" if detail else ""), file=sys.stderr)
        return 3


def run() -> int:
    """The process entry point, of ``python -m sphshift.cli`` and of the
    ``sphshift`` script: ``main()``, then ``gc.freeze()``.

    Interpreter exit ends with full garbage collections that walk every
    object numpy and the layers made, some 20 ms of a short request. Frozen
    objects are not walked; atexit handlers, stream flushing and reference
    count teardown run as before. In-process callers of ``main`` keep their
    collector as it was.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
