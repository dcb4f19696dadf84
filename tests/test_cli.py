import csv
import json
import math
import os
import subprocess
import sys
import time
import warnings

import pytest

import sphshift

from sphshift import cli, spectra
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
        assert rows[0] == ["j", "outer", "inner", "m_infty"]
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
        # every other delta2^3 overflows: the series-1 tail holds inf terms
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
        assert doc["schatten"]["tail_exponents"][0] == "nan"
        assert "series1 inconclusive (slope nan)" in doc["schatten"]["reason"]

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
        # poly-gamma declares no sup: the sampled sup 4 is taken exactly,
        # so the check stays exact and no float 4.0 ** k can overflow
        code, doc = run_json(capsys, [
            "classify", "--family", "poly-gamma", "--gamma-coeffs", "1,2,1", "--K", "600",
        ])
        assert code == 0
        sub = doc["classification"]["subnormal"]
        assert sub["mode"] == "exact" and sub["rescale_mode"] == "sampled"
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

    def test_witness_suppressed_by_default(self, capsys):
        code, doc = run_json(capsys, ["classify", "--family", "alt-twelve", "--m", "2"])
        assert code == 0
        assert "witness" not in doc["classification"]["hyponormal"]


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


class TestErrors:
    def test_unknown_family(self, capsys):
        assert main(["classify", "--family", "mystery", "--m", "2"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_missing_family(self, capsys):
        assert main(["classify", "--m", "2"]) == 2

    def test_arity_out_of_range(self, capsys):
        assert main(["classify", "--family", "szego", "--m", "9"]) == 2

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

    def test_failed_cross_check_is_a_verification_failure(self, capsys, monkeypatch):
        # a negative tolerance fails the m-infinity cross-check at the first lag
        monkeypatch.setattr(spectra, "MINFTY_RTOL", -1.0)
        assert main(["spectrum", "--family", "bergman", "--m", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sphshift: m-infinity cross-check failed")
        assert captured.err.count("\n") == 1

    def test_structural_assumption_is_a_verification_failure(self, capsys, monkeypatch):
        def not_shift_structured(shift, N, tol, basis=None):
            raise StructuralAssumptionError("C*C has off-diagonal magnitude 1.000e+00")

        monkeypatch.setattr(cli, "oracle_suite", not_shift_structured)
        assert main(["verify", "--m", "2", "--N", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "sphshift: C*C has off-diagonal magnitude 1.000e+00\n"

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

    def test_table_with_hold_tail(self, tmp_path, capsys):
        table = tmp_path / "d2.csv"
        table.write_text("# delta2 values\n1\n1/2\n")
        code, doc = run_json(capsys, [
            "classify", "--family", "tabulated", "--table", str(table),
            "--tail", "hold", "--m", "2",
        ])
        assert code == 0
        assert doc["classification"]["bounded"]["verdict"] == "yes"

    def test_family_file(self, tmp_path, capsys):
        spec = tmp_path / "fam.cfg"
        spec.write_text("family = hp\nm = 3\np = 1\n")
        code, doc = run_json(capsys, ["classify", "--family-file", str(spec)])
        assert code == 0
        assert doc["classification"]["q_isometry_order"] == 3
        assert doc["request"]["m"] == 3
