"""The committed report corpus: every request of ``tools/report_diff.py``'s
run list, run in this process through ``cli.main`` from a fresh temporary
directory, leaves exactly the bytes of its file under ``tests/golden/``
(exit code, standard output and error, written files; JSON ``timings``
dropped). A change that alters a report rewrites the corpus with
``python tools/report_diff.py --write-golden`` and says why in CHANGES.md.
"""

import importlib.util
import pathlib

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
