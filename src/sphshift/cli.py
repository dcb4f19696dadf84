"""Command-line front end: family registry, analysis commands, verification.

Reports are schema-stable JSON with fixed key order; identical requests
produce identical reports apart from the wall-clock timing block. Exit
codes: 0 success, 1 verification failure, 2 usage error, 3 internal error
(any other exception, such as a MemoryError, as one line on standard
error), 141 when the reader closes standard output early (128 + SIGPIPE,
as a shell reports).

Each subcommand imports the layers it uses in its own body, so that a
request, a fresh process, compiles and loads only those.
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
    """A comparison tolerance: a finite float >= 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


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
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok:
            vals.append(_parse_exponent(tok))
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


def _base_report(args, seq: ScalarSequence) -> dict:
    return {"request": {"command": args.command, "family": seq.describe(), "m": args.m}}


def _default_p_grid(m: int):
    return [1.0, m / 2 + 0.5, m - 0.5, float(m), m + 0.25, m + 1.0]


# -- subcommand bodies -------------------------------------------------------


def cmd_families(args) -> int:
    payload = {
        "families": [
            {"name": name, "description": description}
            for name, description in FAMILIES.items()
        ],
    }
    _emit(payload, args)
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
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["k", "delta2", "gamma", "log_bbeta"] + [f"bq_{q}" for q in range(1, args.Q + 1)]
    )
    logbb = seq.log_bbeta_array(args.K + args.Q).tolist()  # bq_diags reads through K + Q
    d2 = seq.delta2_array(args.K).tolist()
    ks = range(args.K + 1)
    bq = [shift.bq_diags(q, ks).tolist() for q in range(1, args.Q + 1)]
    for k in ks:
        row = [k, repr(d2[k]), repr(_exp_or_inf(2.0 * logbb[k])), repr(logbb[k])]
        row += [repr(col[k]) for col in bq]
        writer.writerow(row)
    _write_text(buf.getvalue(), args.out)
    return 0


def cmd_spectrum(args) -> int:
    from .spectra import spectral_report

    seq = _family_from_args(args)
    t0 = time.perf_counter()
    report = spectral_report(seq, args.m, K=args.K, J=args.J, window=args.window)
    payload = _base_report(args, seq)
    payload["spectrum"] = report
    payload["timings"] = {"spectrum_s": time.perf_counter() - t0}
    if args.plot_data:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["j", "outer", "inner"])
        for j, ro, ri in zip(report.outer_radius.j_grid, report.outer_radius.sequence,
                             report.inner_radius.sequence):
            writer.writerow([j, repr(ro), repr(ri)])
        _write_text(buf.getvalue(), args.plot_data)
    _emit(payload, args)
    return 0


def cmd_schatten(args) -> int:
    from .schatten import decide

    seq = _family_from_args(args)
    t0 = time.perf_counter()
    verdict = decide(seq, args.m, args.p, K=args.K)
    payload = _base_report(args, seq)
    payload["schatten"] = verdict
    payload["timings"] = {"schatten_s": time.perf_counter() - t0}
    _emit(payload, args)
    return 0


def cmd_cutoff(args) -> int:
    from .schatten import cutoff_check

    seq = _family_from_args(args)
    grid = args.grid if args.grid else _default_p_grid(args.m)
    t0 = time.perf_counter()
    report = cutoff_check(seq, args.m, grid, K=args.K)
    payload = _base_report(args, seq)
    payload["cutoff"] = report
    payload["timings"] = {"cutoff_s": time.perf_counter() - t0}
    _emit(payload, args)
    return 0


def cmd_classify(args) -> int:
    from .classify import classification

    seq = _family_from_args(args)
    t0 = time.perf_counter()
    result = classification(seq, P=args.P, Q=args.Q, K=args.K, horizon=args.horizon)
    payload = _base_report(args, seq)
    body = _sanitize(result)
    if not args.witness:
        for entry in [*body.values(), *body["q_expansion"].values()]:
            if isinstance(entry, dict):
                entry.pop("witness", None)
    payload["classification"] = body
    payload["timings"] = {"classify_s": time.perf_counter() - t0}
    _emit(payload, args)
    return 0


def cmd_lemmas(args) -> int:
    from .schatten import asymptotic_lemma_check

    t0 = time.perf_counter()
    report = asymptotic_lemma_check(
        args.m, args.p, args.k_range, points=args.points
    )
    payload = {
        "request": {"command": "lemmas", "m": args.m, "p": args.p, "k_range": list(args.k_range)},
        "lemmas": report,
        "timings": {"lemmas_s": time.perf_counter() - t0},
    }
    _emit(payload, args)
    return 0 if report["pass"] else 1


def cmd_verify(args) -> int:
    from .shift import SphericalShift
    from .truncation import build_basis, oracle_suite

    t0 = time.perf_counter()
    results = []
    ok = True
    basis = build_basis(args.m, args.N)
    for label, seq in default_suite(args.m):
        shift = SphericalShift(args.m, seq)
        for row in oracle_suite(shift, args.N, tol=args.tol, basis=basis):
            entry = {"family": label, "m": args.m, "N": args.N, **row}
            ok = ok and row["pass"]
            results.append(entry)
    payload = {
        "request": {"command": "verify", "m": args.m, "N": args.N, "tol": args.tol},
        "results": results,
        "pass": ok,
        "timings": {"verify_s": time.perf_counter() - t0},
    }
    _emit(payload, args)
    return 0 if ok else 1


def cmd_analyze(args) -> int:
    from .classify import classification
    from .schatten import cutoff_check
    from .shift import SphericalShift
    from .spectra import spectral_report
    from .truncation import oracle_suite

    seq = _family_from_args(args)
    timings = {}
    payload = _base_report(args, seq)

    t0 = time.perf_counter()
    payload["spectrum"] = spectral_report(seq, args.m, K=args.K, J=args.J)
    timings["spectrum_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    grid = args.grid if args.grid else _default_p_grid(args.m)
    payload["schatten_cutoff"] = cutoff_check(seq, args.m, grid, K=args.K)
    timings["schatten_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    payload["classification"] = classification(
        seq, P=args.P, Q=args.Q, K=args.K_exact, horizon=args.K
    )
    timings["classify_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    shift = SphericalShift(args.m, seq)
    oracle = oracle_suite(shift, args.N, tol=args.tol)
    payload["oracle"] = oracle
    timings["oracle_s"] = time.perf_counter() - t0

    payload["timings"] = timings
    _emit(payload, args)
    return 0 if all(row["pass"] for row in oracle) else 1


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
