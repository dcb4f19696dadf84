"""Command-line front end: family registry, analysis commands, verification.

Reports are schema-stable JSON with fixed key order; identical requests
produce identical reports apart from the wall-clock timing block. Exit
codes: 0 success, 1 verification failure, 2 usage error, 141 when the
reader closes standard output early (128 + SIGPIPE, as a shell reports).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__, classify, schatten, spectra
from .scalarseq import (
    FAMILIES,
    ScalarSequence,
    TableRangeError,
    UnknownFamilyError,
    default_suite,
    make_family,
)
from .shift import SphericalShift
from .truncation import StructuralAssumptionError, build_basis, oracle_suite

SCHEMA_VERSION = 1
CLI_MAX_ARITY = 8


def _parse_tail(text: str):
    if text in ("error", "hold"):
        return text
    if text.startswith("const:"):
        return ("const", Fraction(text.split(":", 1)[1]))
    raise argparse.ArgumentTypeError(
        f"tail must be 'error', 'hold' or 'const:<value>', got {text!r}"
    )


def _parse_number(text: str):
    try:
        return Fraction(text)
    except ValueError:
        return float(text)


def _parse_grid(text: str):
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok:
            vals.append(math.inf if tok == "inf" else float(Fraction(tok)))
    if not vals:
        raise argparse.ArgumentTypeError("empty p grid")
    return vals


def _parse_coeffs(text: str):
    return [Fraction(tok.strip()) for tok in text.split(",") if tok.strip()]


def _parse_krange(text: str):
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("k-range must look like 100:10000") from exc


def _read_family_file(path: str) -> dict:
    """Flat key=value document describing a family."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed line in {path!r}: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key.replace("_", "-")] = val
    return out


def _family_from_args(args) -> ScalarSequence:
    spec = {
        "family": args.family,
        "p": getattr(args, "p_family", None),
        "c": getattr(args, "c", None),
        "gamma-coeffs": getattr(args, "gamma_coeffs", None),
        "table": getattr(args, "table", None),
        "tail": getattr(args, "tail", "error"),
    }
    if getattr(args, "family_file", None):
        file_spec = _read_family_file(args.family_file)
        if "family" not in file_spec:
            raise ValueError(f"{args.family_file!r} does not name a family")
        spec["family"] = file_spec["family"]
        if "m" in file_spec:
            args.m = int(file_spec["m"])
        if "p" in file_spec:
            spec["p"] = _parse_number(file_spec["p"])
        if "c" in file_spec:
            spec["c"] = _parse_number(file_spec["c"])
        if "gamma-coeffs" in file_spec:
            spec["gamma-coeffs"] = _parse_coeffs(file_spec["gamma-coeffs"])
        if "table" in file_spec:
            spec["table"] = file_spec["table"]
        if "tail" in file_spec:
            spec["tail"] = _parse_tail(file_spec["tail"])
    if spec["family"] is None:
        raise ValueError("no family given; use --family or --family-file")
    if not 1 <= args.m <= CLI_MAX_ARITY:
        raise ValueError(f"arity m must be in 1..{CLI_MAX_ARITY}")
    return make_family(
        spec["family"],
        m=args.m,
        p=spec["p"],
        c=spec["c"],
        gamma_coeffs=spec["gamma-coeffs"],
        table=spec["table"],
        tail=spec["tail"],
    )


def _sanitize(obj):
    """Make a report strictly JSON-serializable and reproducible."""
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


def _emit(payload, args) -> None:
    text = json.dumps(_sanitize(payload), indent=2, sort_keys=True)
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
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "request": {
            "command": args.command,
            "family": seq.describe(),
            "m": args.m,
        },
    }


def _default_p_grid(m: int):
    return [1.0, m / 2 + 0.5, m - 0.5, float(m), m + 0.25, m + 1.0]


# -- subcommand bodies -------------------------------------------------------


def cmd_families(args) -> int:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "families": [
            {"name": name, "description": description}
            for name, description in FAMILIES.items()
        ],
    }
    _emit(payload, args)
    return 0


def cmd_dump_sequence(args) -> int:
    seq = _family_from_args(args)
    shift = SphericalShift(args.m, seq)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["k", "delta2", "gamma", "log_bbeta"] + [f"bq_{q}" for q in range(1, args.Q + 1)]
    )
    seq.log_bbeta_array(args.K + args.Q)  # grow the snapshot once, not once per row
    for k in range(args.K + 1):
        row = [k, repr(seq.delta2(k)), repr(seq.gamma(k)), repr(seq.log_bbeta(k))]
        row += [repr(shift.bq_diag(k, q)) for q in range(1, args.Q + 1)]
        writer.writerow(row)
    _write_text(buf.getvalue(), args.out)
    return 0


def cmd_spectrum(args) -> int:
    seq = _family_from_args(args)
    t0 = time.perf_counter()
    report = spectra.spectral_report(seq, args.m, K=args.K, J=args.J, window=args.window)
    payload = _base_report(args, seq)
    payload["spectrum"] = report.to_dict()
    payload["timings"] = {"spectrum_s": time.perf_counter() - t0}
    if args.plot_data:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["j", "outer", "inner", "m_infty"])
        for j, ro, ri, mi in zip(
            report.outer.j_grid, report.outer.sequence, report.inner.sequence, report.m_infty
        ):
            writer.writerow([j, repr(ro), repr(ri), repr(mi)])
        _write_text(buf.getvalue(), args.plot_data)
    _emit(payload, args)
    return 0


def cmd_schatten(args) -> int:
    seq = _family_from_args(args)
    t0 = time.perf_counter()
    verdict = schatten.decide(seq, args.m, args.p, K=args.K)
    payload = _base_report(args, seq)
    payload["schatten"] = verdict.to_dict()
    payload["timings"] = {"schatten_s": time.perf_counter() - t0}
    _emit(payload, args)
    return 0


def cmd_cutoff(args) -> int:
    seq = _family_from_args(args)
    grid = args.grid if args.grid else _default_p_grid(args.m)
    t0 = time.perf_counter()
    report = schatten.cutoff_check(seq, args.m, grid, K=args.K)
    payload = _base_report(args, seq)
    payload["cutoff"] = report
    payload["timings"] = {"cutoff_s": time.perf_counter() - t0}
    _emit(payload, args)
    return 0


def cmd_classify(args) -> int:
    seq = _family_from_args(args)
    t0 = time.perf_counter()
    result = classify.classification(
        seq, P=args.P, Q=args.Q, K=args.K, horizon=args.horizon, qmax=args.qmax
    )
    payload = _base_report(args, seq)
    body = result.to_dict()
    if not args.witness:
        for entry in body.values():
            if isinstance(entry, dict):
                entry.pop("witness", None)
    payload["classification"] = body
    payload["timings"] = {"classify_s": time.perf_counter() - t0}
    _emit(payload, args)
    return 0


def cmd_lemmas(args) -> int:
    t0 = time.perf_counter()
    report = schatten.asymptotic_lemma_check(
        args.m, args.p, args.k_range, points=args.points
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "request": {"command": "lemmas", "m": args.m, "p": args.p, "k_range": list(args.k_range)},
        "lemmas": report,
        "timings": {"lemmas_s": time.perf_counter() - t0},
    }
    _emit(payload, args)
    return 0 if report["pass"] else 1


def cmd_verify(args) -> int:
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
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "request": {"command": "verify", "m": args.m, "N": args.N, "tol": args.tol},
        "results": results,
        "pass": ok,
        "timings": {"verify_s": time.perf_counter() - t0},
    }
    _emit(payload, args)
    return 0 if ok else 1


def cmd_analyze(args) -> int:
    seq = _family_from_args(args)
    timings = {}
    payload = _base_report(args, seq)

    t0 = time.perf_counter()
    payload["spectrum"] = spectra.spectral_report(seq, args.m, K=args.K, J=args.J).to_dict()
    timings["spectrum_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    grid = args.grid if args.grid else _default_p_grid(args.m)
    payload["schatten_cutoff"] = schatten.cutoff_check(seq, args.m, grid, K=args.K)
    timings["schatten_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    payload["classification"] = classify.classification(
        seq, P=args.P, Q=args.Q, K=args.K_exact, horizon=args.K
    ).to_dict()
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
    sub.add_argument("--family-file", help="flat key=value family definition file")
    sub.add_argument("--m", type=int, default=2, help="tuple arity (default 2)")
    flags = [family_p_flag] + (["--p-space"] if family_p_flag == "--p" else [])
    sub.add_argument(*flags, dest="p_family", type=_parse_number, default=None,
                     help="kernel-scale parameter for --family hp")
    sub.add_argument("--c", type=_parse_number, default=None,
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
    sub.add_argument("--K", type=int, default=spectra.DEFAULT_K)
    sub.add_argument("--J", type=int, default=spectra.DEFAULT_J)
    sub.add_argument("--window", type=int, default=None)
    sub.add_argument("--plot-data", help="CSV dump of the per-lag sequences")
    _add_out(sub)
    sub.set_defaults(func=cmd_spectrum)

    sub = subs.add_parser("schatten", help="membership verdict at one exponent")
    _add_family_flags(sub, family_p_flag="--p-space")
    sub.add_argument("--p", dest="p", required=True,
                     type=lambda s: math.inf if s == "inf" else float(Fraction(s)),
                     help="Schatten exponent (family parameter is --p-space here)")
    sub.add_argument("--K", type=int, default=schatten.DEFAULT_K)
    _add_out(sub)
    sub.set_defaults(func=cmd_schatten)

    sub = subs.add_parser("cutoff", help="verdicts across a grid of exponents")
    _add_family_flags(sub)
    sub.add_argument("--grid", type=_parse_grid, default=None,
                     help="comma-separated exponents (default straddles m)")
    sub.add_argument("--K", type=int, default=schatten.DEFAULT_K)
    _add_out(sub)
    sub.set_defaults(func=cmd_cutoff)

    sub = subs.add_parser("classify", help="structural classification")
    _add_family_flags(sub)
    sub.add_argument("--P", type=int, default=classify.DEFAULT_P)
    sub.add_argument("--Q", type=int, default=classify.DEFAULT_Q)
    sub.add_argument("--K", type=int, default=classify.DEFAULT_K_EXACT)
    sub.add_argument("--horizon", type=int, default=classify.DEFAULT_K_SAMPLED)
    sub.add_argument("--qmax", type=int, default=None)
    sub.add_argument("--witness", action="store_true", help="include failure indices")
    _add_out(sub)
    sub.set_defaults(func=cmd_classify)

    sub = subs.add_parser("lemmas", help="per-level growth-window measurements")
    sub.add_argument("--m", type=int, default=2)
    sub.add_argument("--p", type=float, default=1.0)
    sub.add_argument("--k-range", type=_parse_krange, default=(100, 10_000))
    sub.add_argument("--points", type=int, default=24)
    _add_out(sub)
    sub.set_defaults(func=cmd_lemmas)

    sub = subs.add_parser("verify", help="run the brute-force oracle suite")
    sub.add_argument("--m", type=int, default=2)
    sub.add_argument("--N", type=int, default=10)
    sub.add_argument("--tol", type=float, default=1e-10)
    _add_out(sub)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("analyze", help="full report: spectrum + cutoff + classification + oracle")
    _add_family_flags(sub)
    sub.add_argument("--K", type=int, default=spectra.DEFAULT_K)
    sub.add_argument("--J", type=int, default=spectra.DEFAULT_J)
    sub.add_argument("--K-exact", dest="K_exact", type=int, default=classify.DEFAULT_K_EXACT)
    sub.add_argument("--N", type=int, default=10)
    sub.add_argument("--P", type=int, default=classify.DEFAULT_P)
    sub.add_argument("--Q", type=int, default=classify.DEFAULT_Q)
    sub.add_argument("--grid", type=_parse_grid, default=None)
    sub.add_argument("--tol", type=float, default=1e-10)
    _add_out(sub)
    sub.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "m") and not 1 <= args.m <= CLI_MAX_ARITY:
        print(f"sphshift: arity m must be in 1..{CLI_MAX_ARITY}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (UnknownFamilyError, TableRangeError, ValueError, FileNotFoundError) as exc:
        print(f"sphshift: {exc}", file=sys.stderr)
        return 2
    except (spectra.CrossCheckError, StructuralAssumptionError) as exc:
        print(f"sphshift: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to /dev/null, so
        # that the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
