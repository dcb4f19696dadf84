"""The committed report corpus: every request of ``tools/report_diff.py``'s
run list, run in this process through ``cli.main`` from a fresh temporary
directory, leaves exactly the bytes of its file under ``tests/golden/``
(exit code, standard output and error, written files; JSON ``timings``
dropped). A change that alters a report rewrites the corpus with
``python tools/report_diff.py --write-golden`` and says why in CHANGES.md.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("report_diff", REPO / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def test_every_request_leaves_its_corpus_bytes(tmp_path):
    golden = pathlib.Path(report_diff.GOLDEN)
    runs = report_diff.golden_runs(str(tmp_path))
    assert sorted(runs) == sorted(path.name for path in golden.glob("*.txt"))
    differ = [name for name, argv in runs.items()
              if report_diff.golden_text(argv, str(tmp_path)).encode()
              != (golden / name).read_bytes()]
    assert differ == []


@pytest.mark.parametrize("argv", [["lemmas", "--m", "2"], ["lemmas", "--m", "3"],
                                  ["lemmas", "--m", "3", "--p", "5/2"]])
def test_lemmas_reports_do_not_depend_on_the_blas_kernel(argv, tmp_path):
    # OpenBLAS picks its kernels for the CPU at run time; another core type
    # must leave the window sums of the lemmas reports as they are
    tables, cwd = tmp_path / "tables", tmp_path / "run"
    tables.mkdir()
    cwd.mkdir()
    name = next(n for n, a in report_diff.golden_runs(str(tables)).items() if a == argv)
    env = {k: v for k, v in os.environ.items() if k != "SPHSHIFT_OUT_DIR"}
    env.update(report_diff.RUN_ENV, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-m", "sphshift.cli"] + argv, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    text = f"sphshift {' '.join(argv)}\n" + report_diff._collect(
        proc.returncode, proc.stdout, proc.stderr, str(cwd))
    assert text.encode() == (pathlib.Path(report_diff.GOLDEN) / name).read_bytes()
