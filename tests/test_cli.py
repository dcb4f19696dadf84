import contextlib
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import sphshift

from sphshift import cli, spectra, truncation
from sphshift.cli import main
from sphshift.scalarseq import FAMILIES
from sphshift.truncation import StructuralAssumptionError


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestFamilies:
    def test_lists_registry(self, capsys):
        code, doc = run_json(capsys, ["families"])
        assert code == 0
        names = {f["name"] for f in doc["families"]}
        assert {"hp", "szego", "bergman", "drury-arveson", "rho-eta",
                "alt-twelve", "constant", "poly-gamma", "tabulated"} <= names
        assert [(f["name"], f["description"]) for f in doc["families"]] == list(FAMILIES.items())


class TestDumpSequence:
    def test_csv_columns(self, capsys):
        code = main(["dump-sequence", "--family", "bergman", "--m", "2",
                     "--K", "4", "--Q", "2"])
        assert code == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["k", "delta2", "gamma", "log_bbeta", "bq_1", "bq_2"]
        assert len(rows) == 6
        assert float(rows[1][1]) == pytest.approx(2 / 3)
        assert float(rows[1][4]) == pytest.approx(1 / 3)

    def test_every_order_from_one_defect_pass(self, capsys, monkeypatch):
        from sphshift.scalarseq import ScalarSequence

        passes = []
        exact_defects = ScalarSequence.exact_defects

        def counted(seq, kmax, qmax, scale=None):
            passes.append((kmax, qmax))
            return exact_defects(seq, kmax, qmax, scale)

        monkeypatch.setattr(ScalarSequence, "exact_defects", counted)
        assert main(["dump-sequence", "--family", "bergman", "--K", "40", "--Q", "6"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert passes == [(40, 6)]
        assert rows[0][-6:] == [f"bq_{q}" for q in range(1, 7)] and len(rows) == 42

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "seq.csv"
        code = main(["dump-sequence", "--family", "szego", "--K", "2", "--out", str(out)])
        assert code == 0 and out.exists()
        assert capsys.readouterr().out == ""

    def test_out_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPHSHIFT_OUT_DIR", str(tmp_path))
        code = main(["dump-sequence", "--family", "szego", "--K", "2", "--out", "rel.csv"])
        assert code == 0 and (tmp_path / "rel.csv").exists()


class TestSpectrum:
    def test_bergman_json(self, capsys, tmp_path):
        plot = tmp_path / "j.csv"
        code, doc = run_json(capsys, [
            "spectrum", "--family", "bergman", "--m", "2",
            "--K", "20000", "--J", "30", "--plot-data", str(plot),
        ])
        assert code == 0
        assert doc["spectrum"]["outer_radius"]["value"] == 1.0
        assert doc["spectrum"]["essential_inner"] == 1.0
        rows = list(csv.reader(plot.read_text().splitlines()))
        assert rows[0] == ["j", "outer", "inner"]
        assert len(rows) == 31


class TestSchatten:
    def test_exponent_and_family_parameter(self, capsys):
        code, doc = run_json(capsys, [
            "schatten", "--family", "hp", "--m", "2", "--p-space", "3",
            "--p", "2.5", "--K", "20000",
        ])
        assert code == 0
        assert doc["schatten"]["verdict"] == "converges"

    def test_overflowing_terms_warn_nothing(self, capsys, tmp_path):
        # every other delta2^3 overflows: the series-1 tail holds inf terms,
        # which the log-space fits never form; the differences stay at 1e200
        table = tmp_path / "alt.csv"
        table.write_text("\n".join("1" if i % 2 == 0 else "1e200" for i in range(3000)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run_json(capsys, [
                "schatten", "--family", "tabulated", "--table", str(table), "--tail", "hold",
                "--m", "2", "--p", "3", "--K", "2000",
            ])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert doc["schatten"]["verdict"] == "diverges"
        assert all(math.isfinite(s) for s in doc["schatten"]["tail_exponents"])
        assert "series2 diverges (slope 1.0)" in doc["schatten"]["reason"]

    def test_inf_exponent(self, capsys):
        code, doc = run_json(capsys, [
            "schatten", "--family", "alt-twelve", "--m", "2", "--p", "inf",
        ])
        assert code == 0
        assert doc["schatten"]["verdict"] == "diverges"
        assert doc["schatten"]["p"] == "inf"


class TestCutoff:
    def test_default_grid(self, capsys):
        code, doc = run_json(capsys, [
            "cutoff", "--family", "bergman", "--m", "2", "--K", "20000",
        ])
        assert code == 0
        assert doc["cutoff"]["transition"] == 2.25
        assert doc["cutoff"]["last_diverging"] == 2.0
        assert doc["cutoff"]["violations"] == []


class TestClassify:
    def test_drury_arveson(self, capsys):
        code, doc = run_json(capsys, [
            "classify", "--family", "drury-arveson", "--m", "2", "--witness",
        ])
        assert code == 0
        body = doc["classification"]
        assert body["q_isometry_order"] == 2
        assert body["hyponormal"]["value"] is False
        assert body["subnormal"]["witness"] == [2, 0]

    def test_poly_gamma_deep_horizon(self, capsys):
        # poly-gamma's sup 4 = delta2(0) is derived exactly (delta2 falls),
        # so the check stays exact and no float 4.0 ** k can overflow
        code, doc = run_json(capsys, [
            "classify", "--family", "poly-gamma", "--gamma-coeffs", "1,2,1", "--K", "600",
        ])
        assert code == 0
        sub = doc["classification"]["subnormal"]
        assert sub["mode"] == "exact" and sub["rescale_mode"] == "exact"
        assert sub["witness_value"] == "-7/16"

    def test_tiny_p_finishes(self, capsys):
        # exact delta2(k) = (k+2)/(k+1e-300): gamma(k) has tens of thousands of digits
        # at k = 200, the windows of q consecutive values do not
        t0 = time.perf_counter()
        code, doc = run_json(capsys, ["classify", "--family", "hp", "--m", "2", "--p", "1e-300"])
        assert code == 0 and time.perf_counter() - t0 < 10
        assert doc["classification"]["q_isometry_mode"] == "exact"

    def test_long_decimal_table_at_deep_horizon(self, tmp_path, capsys):
        table = tmp_path / "d2.csv"
        table.write_text("".join(f"{1 / math.sqrt(k + 1):.16f}\n" for k in range(3000)))
        code, doc = run_json(capsys, ["classify", "--family", "tabulated", "--table", str(table),
                                      "--tail", "hold", "--m", "2", "--K", "2000"])
        assert code == 0
        assert doc["classification"]["q_isometry_mode"] == "exact"

    def test_short_table_inside_every_horizon(self, tmp_path, capsys):
        # the request reads delta2(0..2) only: the subnormality rescale takes
        # its sup over the same rows, k <= K + P - 1, and probes nothing past them
        table = tmp_path / "d2.csv"
        table.write_text("1\n0.5\n0.25\n")
        code, doc = run_json(capsys, ["classify", "--family", "tabulated", "--table", str(table),
                                      "--K", "1", "--P", "2", "--Q", "2", "--horizon", "2"])
        assert code == 0
        assert doc["classification"]["subnormal"]["rescale_mode"] == "sampled"

    def test_witness_suppressed_by_default(self, capsys):
        code, doc = run_json(capsys, ["classify", "--family", "alt-twelve", "--m", "2"])
        assert code == 0
        body = doc["classification"]
        assert "witness" not in body["hyponormal"]
        assert all("witness" not in v for v in body["q_expansion"].values())
        code, doc = run_json(capsys, ["classify", "--family", "alt-twelve", "--m", "2",
                                      "--witness"])
        assert code == 0
        assert doc["classification"]["q_expansion"]["1"]["witness"] == [0, "-2/3"]

    def test_qmax_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--family", "szego", "--qmax", "3"])
        assert exc.value.code == 2
        assert "--qmax" in capsys.readouterr().err
        assert main(["classify", "--family", "szego", "--Q", "0"]) == 2
        assert capsys.readouterr().err == "sphshift: the largest order Q must be >= 1\n"


class TestLemmas:
    def test_window_pass(self, capsys):
        code, doc = run_json(capsys, [
            "lemmas", "--m", "2", "--p", "1", "--k-range", "100:2000", "--points", "10",
        ])
        assert code == 0
        assert doc["lemmas"]["pass"] is True


class TestVerify:
    def test_suite_passes(self, capsys):
        code, doc = run_json(capsys, ["verify", "--m", "2", "--N", "8"])
        assert code == 0
        assert doc["pass"] is True
        assert all(r["max_deviation"] <= 1e-10 for r in doc["results"])

    def test_failure_exit_code(self, capsys):
        # an absurd tolerance forces every comparison to fail
        code, doc = run_json(capsys, ["verify", "--m", "2", "--N", "6", "--tol", "0"])
        assert code == 1
        assert doc["pass"] is False

    @pytest.mark.parametrize("zero", ["0", "-0", "0e-400"])
    def test_every_zero_tolerance_asks_for_exact_agreement(self, capsys, zero):
        code, doc = run_json(capsys, ["verify", "--m", "2", "--N", "6", f"--tol={zero}"])
        assert code == 1 and doc["pass"] is False
        assert str(doc["request"]["tol"]) == "0.0"

    def test_three_variables(self, capsys):
        code, doc = run_json(capsys, ["verify", "--m", "3", "--N", "6"])
        assert code == 0 and doc["pass"] is True


class TestAnalyze:
    def test_full_report(self, capsys):
        code, doc = run_json(capsys, [
            "analyze", "--family", "hp", "--m", "2", "--p", "3",
            "--K", "20000", "--N", "6",
        ])
        assert code == 0
        assert doc["schatten_cutoff"]["transition"] == 2.25
        assert doc["classification"]["hyponormal"]["value"] is True
        assert all(r["pass"] for r in doc["oracle"])
        assert doc["request"]["family"] == {"family": "hp", "m": 2, "p": "3"}

    def test_tiny_p_entries_pass_on_rounding(self, capsys):
        # delta2(0) = 2e300: the oracle's entries near 1e300 differ by rounding only
        code, doc = run_json(capsys, ["analyze", "--family", "hp", "--m", "2", "--p", "1e-300"])
        assert code == 0
        assert all(r["pass"] for r in doc["oracle"])
        assert max(r["max_deviation"] for r in doc["oracle"]) > 1e280

    def test_deterministic_modulo_timings(self, capsys):
        argv = ["analyze", "--family", "bergman", "--m", "2", "--K", "5000", "--N", "5"]
        _, doc1 = run_json(capsys, argv)
        _, doc2 = run_json(capsys, argv)
        doc1.pop("timings"), doc2.pop("timings")
        assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def key_tree(doc):
    """The nested keys of a report: a dict maps each key to its subtree, a
    list of dicts to the one tree its items share, and any other value to None."""
    if isinstance(doc, dict):
        return {k: key_tree(v) for k, v in doc.items()}
    if isinstance(doc, list) and doc and isinstance(doc[0], dict):
        trees = [key_tree(v) for v in doc]
        assert all(t == trees[0] for t in trees)
        return trees[:1]
    return None


def leaves(*keys):
    return dict.fromkeys(keys)


# the schema-2 key trees, spelled out independently of the result classes
HEADER = leaves("schema_version", "tool_version")
REQUEST = {"request": {**leaves("command", "m"), "family": leaves("family")}}
VERDICT = leaves("value", "mode", "horizon", "witness", "note")
BARE_VERDICT = leaves("value", "mode", "horizon", "note")
RADIUS = leaves("value", "mode", "j_grid", "sequence", "richardson", "note")
SPECTRUM = {
    **leaves("m", "K", "J", "essential_inner", "essential_outer",
             "essential_refusal", "point_spectrum_boundary", "point_spectrum_exponent"),
    "outer_radius": RADIUS,
    "convergence_radius": RADIUS,
    "inner_radius": RADIUS,
    "essentially_normal": leaves("value", "mode", "detail"),
}
SCHATTEN = leaves("p", "m", "K", "verdict", "analytic", "reason", "tail_exponents",
                  "checkpoints", "partial_sums_1", "partial_sums_2", "cutoff_consistent")
CUTOFF = {**leaves("skipped", "noncompact", "grid", "transition", "last_diverging", "violations"),
          "verdicts": leaves("1.0", "1.5", "2.0", "2.25", "3.0")}
SUBNORMAL = leaves("pass", "order", "horizon", "mode", "rescale_mode", "witness_value")


def classification_tree(verdict, subnormal):
    return {
        **leaves("q_isometry_order", "q_isometry_mode", "complete_hyperexpansion_up_to"),
        "bounded": leaves("verdict", "sup_delta2", "horizon", "qualifier"),
        **{name: verdict for name in ("compact", "essentially_normal", "szego", "hyponormal")},
        "q_expansion": {str(q): verdict for q in range(1, 7)},
        "subnormal": subnormal,
    }


WINDOW = leaves("ratios", "min", "max", "spread", "pass")
ALT_TWELVE = ["--family", "alt-twelve", "--m", "2"]
SCHEMA_CASES = {
    "families": (["families"], {**HEADER, "families": [leaves("name", "description")]}),
    "analyze": (
        ["analyze", *ALT_TWELVE, "--K", "2000", "--J", "10", "--K-exact", "20", "--N", "4"],
        {**HEADER, **REQUEST, "spectrum": SPECTRUM, "schatten_cutoff": CUTOFF,
         "classification": classification_tree(VERDICT, {**SUBNORMAL, "witness": None}),
         "oracle": [leaves("kind", "max_deviation", "margin", "pass")],
         "timings": leaves("spectrum_s", "schatten_s", "classify_s", "oracle_s")}),
    "spectrum": (["spectrum", *ALT_TWELVE, "--K", "2000", "--J", "10"],
                 {**HEADER, **REQUEST, "spectrum": SPECTRUM, "timings": leaves("spectrum_s")}),
    "schatten": (["schatten", *ALT_TWELVE, "--p", "3", "--K", "2000"],
                 {**HEADER, **REQUEST, "schatten": SCHATTEN, "timings": leaves("schatten_s")}),
    "schatten-inf": (["schatten", *ALT_TWELVE, "--p", "inf", "--K", "2000"],
                     {**HEADER, **REQUEST, "schatten": SCHATTEN,
                      "timings": leaves("schatten_s")}),
    "cutoff": (["cutoff", *ALT_TWELVE, "--K", "2000"],
               {**HEADER, **REQUEST, "cutoff": CUTOFF, "timings": leaves("cutoff_s")}),
    "classify": (["classify", *ALT_TWELVE, "--K", "20", "--horizon", "2000"],
                 {**HEADER, **REQUEST,
                  "classification": {**classification_tree(BARE_VERDICT, SUBNORMAL),
                                     "q_expansion": {str(q): BARE_VERDICT for q in range(1, 7)}},
                  "timings": leaves("classify_s")}),
    "classify-witness": (
        ["classify", *ALT_TWELVE, "--K", "20", "--horizon", "2000", "--witness"],
        {**HEADER, **REQUEST,
         "classification": classification_tree(VERDICT, {**SUBNORMAL, "witness": None}),
         "timings": leaves("classify_s")}),
    "lemmas": (["lemmas", "--m", "2", "--k-range", "10:100", "--points", "4"],
               {**HEADER, "request": leaves("command", "m", "p", "k_range"),
                "lemmas": {**leaves("m", "p", "k_grid", "pass"), "pair_sum": WINDOW,
                           "abs_sum": {mode: WINDOW for mode in ("zero", "one", "inv_k")}},
                "timings": leaves("lemmas_s")}),
    "verify": (["verify", "--m", "2", "--N", "3"],
               {**HEADER, "request": leaves("command", "m", "N", "tol"), "pass": None,
                "results": [leaves("family", "m", "N", "kind", "max_deviation", "margin",
                                   "pass")],
                "timings": leaves("verify_s")}),
}


class TestSchema:
    @pytest.mark.parametrize("case", SCHEMA_CASES, ids=str)
    def test_report_keys(self, capsys, case):
        argv, tree = SCHEMA_CASES[case]
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert key_tree(doc) == tree
        assert doc["schema_version"] == 2


class TestErrors:
    def test_unknown_family(self, capsys):
        assert main(["classify", "--family", "mystery", "--m", "2"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_missing_family(self, capsys):
        assert main(["classify", "--m", "2"]) == 2

    def test_arity_out_of_range(self, capsys):
        assert main(["classify", "--family", "szego", "--m", "9"]) == 2

    @pytest.mark.parametrize("argv,message", [
        (["lemmas", "--points", "0"], "need at least one point"),
        (["dump-sequence", "--family", "szego", "--K", "-1"], "--K must be >= 0"),
        (["dump-sequence", "--family", "szego", "--Q", "-1"], "--Q must be >= 0"),
        (["classify", "--family", "szego", "--K", "-3"], "K must be >= 1"),
    ], ids=["no-points", "negative-K", "negative-Q", "classify-negative-K"])
    def test_out_of_range_count_is_a_usage_error(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"sphshift: {message}\n"

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "1e-10x", "-1e-400", "1e-400"])
    @pytest.mark.parametrize("command", [["verify"], ["analyze", "--family", "bergman"]],
                             ids=lambda c: c[0])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, command, tol):
        # a nonzero tolerance that rounds to 0.0 would silently ask for exact agreement
        with pytest.raises(SystemExit) as exc:
            main(command + [f"--tol={tol}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        says = (f"tolerance {tol!r} rounds to 0.0, below the smallest float; --tol 0 asks for "
                f"exact agreement" if tol == "1e-400"
                else f"tolerance must be finite and >= 0, got {tol!r}")
        assert says in captured.err

    @pytest.mark.parametrize("argv", [
        ["schatten", "--family", "bergman", "--p", "1e400"],
        ["schatten", "--family", "bergman", "--p=-1e400"],
        ["cutoff", "--family", "bergman", "--grid", "1,1e400"],
        ["analyze", "--family", "bergman", "--grid", "1e400"],
    ], ids=["p", "negative-p", "cutoff-grid", "analyze-grid"])
    def test_exponent_beyond_float_range_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "overflows a float" in captured.err

    @pytest.mark.parametrize("p", ["nan", "inf", "-1"])
    def test_lemma_exponent_must_be_finite_and_nonnegative(self, capsys, p):
        # nan and inf are refused as the flag is parsed, -1 by the library
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exit_code(["lemmas", f"--p={p}", "--k-range", "100:2000", "--points", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if p == "-1":
            assert captured.err.startswith("sphshift: need a finite p >= 0")
            assert captured.err.count("\n") == 1
        else:
            assert f"--p: {p!r} is not a decimal or a ratio" in captured.err.splitlines()[-1]

    @pytest.mark.parametrize("p", ["0", "0.5"])
    def test_lemma_exponent_zero_and_below_one_still_run(self, capsys, p):
        code, doc = run_json(capsys, ["lemmas", "--p", p, "--k-range", "100:2000",
                                      "--points", "4"])
        assert code == 0 and doc["lemmas"]["p"] == float(p)

    def test_weight_square_outside_float_range(self):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sphshift.__file__))}
        proc = subprocess.run(
            [sys.executable, "-m", "sphshift.cli", "schatten", "--family", "constant",
             "--c", "1e300", "--m", "2", "--p", "2"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "c**2" in proc.stderr

    def test_overflowing_schatten_terms_warn_nothing(self):
        # delta2(0) = 2e300: the cubed first difference leaves the float range
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sphshift.__file__))}
        proc = subprocess.run(
            [sys.executable, "-m", "sphshift.cli", "schatten", "--family", "hp",
             "--m", "2", "--p-space", "1e-300", "--p", "3"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""

        def no_constant(name):
            raise ValueError(f"non-JSON constant {name}")

        doc = json.loads(proc.stdout, parse_constant=no_constant)
        assert doc["schatten"]["partial_sums_2"][0] == "inf"

    def test_closed_stdout_exits_quietly(self):
        # the reader closed the pipe before the CSV (far beyond one buffer) is written
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sphshift.__file__))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sphshift.cli", "dump-sequence", "--family", "bergman",
                 "--m", "2", "--K", "5000"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    def test_structural_assumption_is_a_verification_failure(self, capsys, monkeypatch):
        def not_shift_structured(shift, N, tol, basis=None):
            raise StructuralAssumptionError("C*C has off-diagonal magnitude 1.000e+00")

        monkeypatch.setattr(truncation, "oracle_suite", not_shift_structured)
        assert main(["verify", "--m", "2", "--N", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "sphshift: C*C has off-diagonal magnitude 1.000e+00\n"

    @pytest.mark.parametrize("fault", [MemoryError(), RuntimeError("two\nlines")],
                             ids=lambda e: type(e).__name__)
    def test_any_other_exception_is_an_internal_error(self, capsys, monkeypatch, fault):
        def broken_layer(*args, **kwargs):
            raise fault

        monkeypatch.setattr(spectra, "spectral_report", broken_layer)
        assert main(["spectrum", "--family", "bergman", "--m", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"sphshift: internal error: {type(fault).__name__}")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("m,N", [(8, 11), (2, 100_000)])
    def test_oversized_oracle_is_refused_before_it_is_built(self, capsys, monkeypatch, m, N):
        def refuse(*args):
            raise AssertionError("the basis was enumerated")

        monkeypatch.setattr(truncation, "enumerate_level", refuse)
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            code = main(["verify", "--m", str(m), "--N", str(N)])
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and elapsed < 1.0 and peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"sphshift: the section m = {m}, N = {N} needs "
                                f"{math.comb(N + m, m)} basis columns, beyond the oracle's "
                                f"{truncation.ORACLE_COLUMNS}\n")

    @pytest.mark.parametrize("flags,reference", [
        # verify refuses the same sections; m = 1, which verify accepts, a
        # grid exponent below 1 and a horizon K below schatten.MIN_K are
        # refused as cutoff refuses them, and the classification's orders and
        # exact horizon as classify refuses them
        pytest.param(["--m", "2", "--N", "1"], ["verify", "--m", "2", "--N", "1"], id="2-1"),
        pytest.param(["--m", "8", "--N", "11"], ["verify", "--m", "8", "--N", "11"], id="8-11"),
        pytest.param(["--m", "1", "--N", "10"], ["cutoff", "--family", "bergman", "--m", "1"],
                     id="1-10"),
        pytest.param(["--P", "0"], ["classify", "--family", "bergman", "--P", "0"], id="P-0"),
        pytest.param(["--Q", "0"], ["classify", "--family", "bergman", "--Q", "0"], id="Q-0"),
        pytest.param(["--K-exact", "0"], ["classify", "--family", "bergman", "--K", "0"],
                     id="K-exact-0"),
        pytest.param(["--grid", "0.5"], ["cutoff", "--family", "bergman", "--grid", "0.5"],
                     id="grid-0.5"),
        pytest.param(["--K", "999"], ["cutoff", "--family", "bergman", "--K", "999"],
                     id="K-999"),
    ])
    def test_analyze_refuses_a_bad_section_before_any_stage(self, capsys, monkeypatch,
                                                            flags, reference):
        stages = []

        def stage(*args, **kwargs):
            stages.append(args)

        assert main(reference) == 2
        refused = capsys.readouterr().err
        for module, name in ((cli, "_spectrum"), (cli, "_cutoff"), (cli, "_classification"),
                             (truncation, "oracle_suite")):
            monkeypatch.setattr(module, name, stage)
        assert main(["analyze", "--family", "bergman", *flags]) == 2
        captured = capsys.readouterr()
        assert stages == [] and captured.out == "" and captured.err == refused

    def test_table_overrun(self, tmp_path, capsys):
        table = tmp_path / "d2.csv"
        table.write_text("1\n1/2\n")
        code = main(["dump-sequence", "--family", "tabulated",
                     "--table", str(table), "--K", "10"])
        assert code == 2
        assert "tail" in capsys.readouterr().err

    @pytest.mark.parametrize("tail", ["const:0", "const:-1"])
    @pytest.mark.parametrize("command", [
        ["dump-sequence"], ["spectrum"], ["schatten", "--p", "2"], ["cutoff"],
        ["classify"], ["analyze"],
    ], ids=lambda c: c[0])
    def test_nonpositive_const_tail_is_a_usage_error(self, tmp_path, capsys, command, tail):
        table = tmp_path / "d2.csv"
        table.write_text("1\n1/2\n")
        code = main(command + ["--family", "tabulated", "--table", str(table),
                               "--tail", tail])
        assert code == 2
        assert "const tail" in capsys.readouterr().err

    @pytest.mark.parametrize("rows,flags,classify_code", [
        ("1\nnan\n", ["--tail", "hold"], 2),
        ("1\ninf\n", ["--tail", "hold"], 2),
        ("1\n1e400\n", ["--tail", "hold"], 2),
        ("1\n1/2\n", ["--tail", "const:1e400"], 2),
        # classify decides hp exactly or by declaration and reads no float delta2
        (None, ["--family", "hp", "--p", "1e400"], 0),
        (None, ["--family", "hp", "--p", "1e-400"], 2),
        (None, ["--family", "poly-gamma", "--gamma-coeffs", "1,1e400"], 2),
    ], ids=["nan-row", "inf-row", "huge-row", "huge-const-tail", "huge-p", "tiny-p",
            "huge-coefficient"])
    def test_non_finite_family_data_is_a_usage_error(self, tmp_path, capsys, rows, flags,
                                                     classify_code):
        if rows is not None:
            table = tmp_path / "d2.csv"
            table.write_text(rows)
            flags = ["--family", "tabulated", "--table", str(table)] + flags
        for command in ("dump-sequence", "spectrum", "cutoff", "classify", "analyze"):
            expect = classify_code if command == "classify" else 2
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, "--m", "2"] + flags) == expect, command
            captured = capsys.readouterr()
            if expect == 2:
                assert captured.out == "", command
                assert captured.err.startswith("sphshift: "), command
                assert captured.err.count("\n") == 1, command

    def test_table_with_hold_tail(self, tmp_path, capsys):
        table = tmp_path / "d2.csv"
        table.write_text("# delta2 values\n1\n1/2\n")
        code, doc = run_json(capsys, [
            "classify", "--family", "tabulated", "--table", str(table),
            "--tail", "hold", "--m", "2",
        ])
        assert code == 0
        assert doc["classification"]["bounded"]["verdict"] == "family-declared"

    def test_family_file(self, tmp_path, capsys):
        spec = tmp_path / "fam.cfg"
        spec.write_text("family = hp\nm = 3\np = 1\n")
        code, doc = run_json(capsys, ["classify", "--family-file", str(spec)])
        assert code == 0
        assert doc["classification"]["q_isometry_order"] == 3
        assert doc["request"]["m"] == 3


def without_timings(text: str) -> str:
    doc = json.loads(text)
    doc.pop("timings", None)
    return json.dumps(doc, sort_keys=True)


def exit_code(argv) -> int:
    """What ``main`` exits with, argparse's ``SystemExit`` included; any
    other exception, a traceback in a process, escapes."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# edge inputs: the first six once ended in an internal error (exit 3), on a
# float overflow or on the oracle's check of its own parameters; the rest
# already ended in a verdict or a usage error
EDGE_INPUTS = [
    ["lemmas", "--p", "77"],
    ["lemmas", "--m", "3", "--p", "76"],
    ["analyze", "--family", "constant", "--c", "8e51"],
    ["dump-sequence", "--family", "constant", "--c", "1e52", "--K", "3", "--Q", "3"],
    ["verify", "--N", "2"],
    ["analyze", "--family", "bergman", "--N", "1"],
    ["spectrum", "--family", "bergman", "--K", "1"],
    ["schatten", "--family", "bergman", "--p", "2", "--K", "999"],
    ["cutoff", "--family", "bergman", "--grid", "0.5"],
    ["lemmas", "--k-range", "5:3"],
    ["verify", "--N", "-1"],
    ["classify", "--family", "bergman", "--P", "0"],
    ["analyze", "--family", "bergman", "--K-exact", "0"],
    ["spectrum", "--family", "tabulated", "--table", os.devnull],
    ["schatten", "--family", "hp", "--p-space", "1e-300", "--p", "2"],
]


def test_edge_inputs_end_in_a_verdict_or_a_usage_error(capsys):
    # RuntimeWarnings are errors here, so a numpy warning ends in an internal error too
    broken = {}
    for argv in EDGE_INPUTS:
        code = exit_code(argv)
        err = capsys.readouterr().err
        if code not in (0, 1, 2) or "internal error" in err:
            broken[" ".join(argv)] = (code, err)
    assert broken == {}


def test_quarter_rules_decide_nothing_below_four_samples(tmp_path, capsys):
    # three samples leave a quarter empty, which once ended in numpy's
    # "zero-size array" error as a usage error
    table = tmp_path / "d2.csv"
    table.write_text("1/2\n2/3\n3/4\n")
    code, doc = run_json(capsys, ["spectrum", "--family", "alt-twelve", "--K", "3"])
    assert code == 0 and capsys.readouterr().err == ""
    assert doc["spectrum"]["outer_radius"]["mode"].startswith("sampled")
    code, doc = run_json(capsys, ["classify", "--family", "tabulated", "--table", str(table),
                                  "--tail", "hold", "--horizon", "2"])
    assert code == 0 and capsys.readouterr().err == ""
    compact = doc["classification"]["compact"]
    assert compact["value"] is None and "only 3 samples of delta2" in compact["note"]


def test_float_range_edges_are_refused_or_infinite(capsys):
    for argv in (["lemmas", "--p", "77"], ["analyze", "--family", "constant", "--c", "8e51"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
    assert main(["dump-sequence", "--family", "constant", "--c", "1e52", "--K", "3", "--Q", "3"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [row[-3:] for row in rows[1:]] == [["-1e+104", "1e+208", "-inf"]] * 4
    assert main(["verify", "--N", "2"]) == 2
    err = capsys.readouterr().err
    assert "got N = 2" in err and "margin" not in err


# inputs that once ended in a traceback with exit 1; {dir} is a directory
# holding zero.csv (a row 1/0), d2.csv, p.fam (p = 1/0) and tail.fam (tail = bogus)
BAD_INPUTS = {
    "p": ["classify", "--family", "hp", "--p", "1/0"],
    "p-space": ["classify", "--family", "hp", "--p-space", "3/0"],
    "c": ["classify", "--family", "constant", "--c", "1/0"],
    "gamma-coeffs": ["classify", "--family", "poly-gamma", "--gamma-coeffs", "1,1/0"],
    "const-tail": ["classify", "--family", "tabulated", "--table", "{dir}/d2.csv",
                   "--tail", "const:1/0"],
    "schatten-p": ["schatten", "--family", "bergman", "--p", "1/0"],
    "cutoff-grid": ["cutoff", "--family", "bergman", "--grid", "2,1/0"],
    "table-row": ["classify", "--family", "tabulated", "--table", "{dir}/zero.csv",
                  "--tail", "hold"],
    "table-dir": ["classify", "--family", "tabulated", "--table", "{dir}"],
    "family-file-dir": ["classify", "--family-file", "{dir}"],
    "out-dir": ["classify", "--family", "bergman", "--K", "20", "--horizon", "200",
                "--out", "{dir}"],
    "plot-data-dir": ["spectrum", "--family", "bergman", "--K", "2000", "--J", "4",
                      "--plot-data", "{dir}"],
    "file-p": ["classify", "--family-file", "{dir}/p.fam"],
    "file-tail": ["classify", "--family-file", "{dir}/tail.fam"],
    "lemmas-nan": ["lemmas", "--p", "nan"],
    "lemmas-inf": ["lemmas", "--p", "inf"],
    "lemmas-overflow": ["lemmas", "--p", "1e400"],
    "lemmas-zero-denominator": ["lemmas", "--p", "1/0"],
}

# a family given by a file and by the flags it stands for: the file's text,
# flags that the file overrides, and the flags alone; {dir} holds d2.csv
HP = "family = hp\nm = 3\np = 5/2\n"
FILE_TWINS = {
    "classify": (["classify", "--K", "40", "--horizon", "400"], HP,
                 ["--family", "bergman", "--m", "2", "--p", "9"],
                 ["--family", "hp", "--m", "3", "--p", "5/2"]),
    "schatten": (["schatten", "--p", "3.5", "--K", "2000"], HP, ["--p-space", "9"],
                 ["--family", "hp", "--m", "3", "--p-space", "5/2"]),
    "spectrum": (["spectrum", "--K", "2000", "--J", "6"],
                 "# positive on N\n\nfamily = poly-gamma\ngamma_coeffs = 1, 2, 1\n",
                 ["--gamma-coeffs", "3,1"], ["--family", "poly-gamma", "--gamma-coeffs", "1,2,1"]),
    "cutoff": (["cutoff", "--K", "2000", "--grid", "1,3"],
               "family = tabulated\ntable = {dir}/d2.csv\ntail = const:1/2\n",
               ["--tail", "hold"],
               ["--family", "tabulated", "--table", "{dir}/d2.csv", "--tail", "const:1/2"]),
    "dump-sequence": (["dump-sequence", "--K", "5", "--Q", "2"], "family = constant\nc = 7/10\n",
                      ["--c", "3"], ["--family", "constant", "--c", "7/10"]),
}


@pytest.fixture
def input_dir(tmp_path):
    (tmp_path / "zero.csv").write_text("1\n1/0\n")
    (tmp_path / "d2.csv").write_text("1\n1/2\n2/3\n")
    (tmp_path / "p.fam").write_text("family = hp\np = 1/0\n")
    (tmp_path / "tail.fam").write_text(f"family = tabulated\ntable = {tmp_path}/d2.csv\n"
                                       "tail = bogus\n")
    return tmp_path


def at(argv, directory) -> list:
    return [arg.replace("{dir}", str(directory)) for arg in argv]


# gamma coefficients that the positivity check once scanned integer by
# integer up to the Cauchy root bound, some 10^300 of them: S(0) is huge
# (Descartes' rule certifies S > 0), or the bound is (the check gives up)
HUGE_GAMMA_COEFFS = ["1e300,1", "1e1000,1", "1e300,-1,1e-300", "1,-1e150,1e300,0,1"]


@pytest.mark.parametrize("command", ["classify", "spectrum", "analyze"])
@pytest.mark.parametrize("coeffs", HUGE_GAMMA_COEFFS)
def test_huge_gamma_coefficients_end_within_a_second(command, coeffs, capsys):
    # only the request is timed, in-process: the interpreter start is not
    # part of the hang this guards against; an exception would escape
    t0 = time.perf_counter()
    code = exit_code([command, "--family", "poly-gamma", f"--gamma-coeffs={coeffs}"])
    assert time.perf_counter() - t0 < 1.0
    stderr = capsys.readouterr().err
    assert code in (0, 2) and "Traceback" not in stderr
    assert stderr.count("\n") == (code == 2)
    if "-" in coeffs:
        assert stderr.startswith("sphshift: cannot certify S(k) > 0 for every k >= 0")
        assert "10^" in stderr


class TestUserInput:
    """Flags, family files and tables: a bad value exits 2, never a traceback."""

    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_bad_input_is_a_usage_error(self, input_dir, capsys, case):
        assert exit_code(at(BAD_INPUTS[case], input_dir)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].startswith("sphshift")

    @pytest.mark.parametrize("case", [case for case, argv in BAD_INPUTS.items()
                                      if any("1/0" in arg or "3/0" in arg for arg in argv)])
    def test_usage_error_names_the_zero_denominator(self, input_dir, capsys, case):
        assert exit_code(at(BAD_INPUTS[case], input_dir)) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert "is not a decimal or a ratio p/q with q != 0" in last
        assert "_parse" not in last and "parse_rational" not in last and "invalid" not in last

    def test_lemma_exponent_is_a_rational(self, capsys):
        argv = ["lemmas", "--k-range", "100:2000", "--points", "4", "--p"]
        code, doc = run_json(capsys, argv + ["5/2"])
        assert code == 0 and doc["lemmas"]["p"] == 2.5
        # a decimal is the float it was read as before
        code, doc = run_json(capsys, argv + ["0.1"])
        assert code == 0 and doc["lemmas"]["p"] == float("0.1")

    def test_unknown_family_file_key(self, tmp_path, capsys):
        spec = tmp_path / "fam.cfg"
        spec.write_text("family = bergman\nK = 5\n")
        assert main(["classify", "--family-file", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sphshift: unknown key 'K' in ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("case", FILE_TWINS)
    def test_family_file_is_its_flags(self, input_dir, capsys, case):
        command, text, overridden, flags = FILE_TWINS[case]
        spec = input_dir / "fam.cfg"
        spec.write_text(text.replace("{dir}", str(input_dir)))
        outputs = []
        for argv in (command + overridden + ["--family-file", str(spec)],
                     command + ["--family-file", str(spec)] + overridden,
                     command + flags):
            assert main(at(argv, input_dir)) == 0
            outputs.append(capsys.readouterr().out)
        if case != "dump-sequence":
            outputs = [without_timings(out) for out in outputs]
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("window", ["-5", "0"])
    @pytest.mark.parametrize("family", [["--family", "alt-twelve"],
                                        ["--family", "tabulated", "--table", "{dir}/d2.csv",
                                         "--tail", "const:1"]],
                             ids=["declared", "sampled"])
    def test_window_must_be_positive(self, input_dir, capsys, family, window):
        argv = ["spectrum", *at(family, input_dir), "--K", "2000", f"--window={window}"]
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"window must be an integer >= 1, got {window!r}" in captured.err


FUZZ_KEYS = ["family", "m", "p", "c", "gamma-coeffs", "gamma_coeffs", "table", "tail",
             "K", "window", ""]
FUZZ_FAMILIES = ["hp", "bergman", "constant", "poly-gamma", "rho-eta", "alt-twelve",
                 "tabulated", "bogus", ""]
FUZZ_TOKENS = ["1/0", "bogus", "nan", "-1", "1e400", "", "0", "1", "2", "9", "5/2", "0.1",
               "1,2,1", "1,-3,1", "hold", "error", "const:1/2", "const:0", "{table}", ".",
               *FUZZ_FAMILIES]
FUZZ_COMMANDS = [
    ["classify", "--K", "20", "--horizon", "200"],
    ["spectrum", "--K", "200", "--J", "4"],
    ["schatten", "--p", "3", "--K", "1000"],
    ["cutoff", "--K", "1000", "--grid", "1,3"],
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("family-files")
    (directory / "d2.csv").write_text("1\n1/2\n2/3\n")
    return directory


@settings(max_examples=250, deadline=None, derandomize=True)
@given(command=st.sampled_from(FUZZ_COMMANDS),
       family=st.sampled_from(FUZZ_FAMILIES),
       lines=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_TOKENS)),
                      max_size=4))
def test_random_family_file_exits_0_or_2(fuzz_dir, command, family, lines):
    # the first line names a family (or a bad one), so that some files run
    spec = fuzz_dir / "fam.cfg"
    spec.write_text("".join(f"{key} = {val}\n" for key, val in [("family", family), *lines])
                    .replace("{table}", str(fuzz_dir / "d2.csv")))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exit_code(command + ["--family-file", str(spec)])
    assert code in (0, 2), err.getvalue()
    if code == 0:
        def no_constant(name):
            raise ValueError(f"non-JSON constant {name}")

        json.loads(out.getvalue(), parse_constant=no_constant)
    else:
        assert out.getvalue() == ""


class TestProcessEntry:
    """``python -m sphshift.cli`` runs ``cli.run``: ``main`` and then a frozen
    collector, which must change no output and no exit code."""

    @pytest.mark.parametrize("argv,code", [
        (["verify", "--m", "2", "--N", "4"], 0),
        (["verify", "--m", "2", "--N", "4", "--tol", "0"], 1),
        (["spectrum", "--family", "rho-eta", "--K", "2000"], 0),
        (["dump-sequence", "--family", "szego", "--Q", "-1"], 2),
    ], ids=["pass", "fail", "spectrum", "usage"])
    def test_process_matches_in_process_main(self, capsys, argv, code):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sphshift.__file__))}
        proc = subprocess.run([sys.executable, "-m", "sphshift.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == code
        assert main(argv) == code
        captured = capsys.readouterr()
        assert proc.stderr == captured.err
        if code == 2:
            assert proc.stdout == captured.out == ""
        else:
            assert without_timings(proc.stdout) == without_timings(captured.out)

    def test_only_the_process_entry_freezes_the_collector(self, capsys):
        before = gc.get_freeze_count()
        assert main(["families"]) == 0
        assert gc.get_freeze_count() == before
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sphshift.__file__))}
        code = ("import gc, sys\nfrom sphshift.cli import run\ncode = run()\n"
                "print(gc.get_freeze_count(), file=sys.stderr)\nsys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", code, "families"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0 and int(proc.stderr) > 0
        assert without_timings(proc.stdout) == without_timings(capsys.readouterr().out)

    def test_console_script_is_the_process_entry(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(repo, "pyproject.toml")) as fh:
            assert '\nsphshift = "sphshift.cli:run"\n' in fh.read()
