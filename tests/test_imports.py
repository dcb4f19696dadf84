"""What ``import sphshift.cli`` and each CLI request load, and leave behind:
every CLI run pays for it at start-up."""

import inspect
import os
import subprocess
import sys
import time

import pytest

import sphshift
from sphshift import classify, cli, scalarseq, schatten, shift, spectra, truncation

SRC = os.path.dirname(os.path.dirname(sphshift.__file__))


def test_cli_import_loads_no_pool_modules():
    # importing the CLI loads no worker-pool module and not numpy.fft, which
    # the level-sum kernels reach only when called: each would only add
    # start-up time (concurrent.futures alone costs milliseconds)
    code = ("import sphshift.cli, sys; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', 'numpy.fft') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def child_env(**overrides) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    return {**env, "PYTHONPATH": SRC, **overrides}


def test_cli_run_does_not_spin_a_blas_thread():
    # By default OpenBLAS's idle worker busy-waits about 0.1 s after start-up.
    # On a second core, user+sys CPU then reads about 1.5x the wall time of a
    # run that itself is single-threaded. Where the worker shares the main
    # thread's core (or there is one CPU), the spin costs wall time instead and
    # the ratio stays near 1 either way; the next test sees it on any core.
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "sphshift.cli", "families"],
                            stdout=subprocess.DEVNULL, env=child_env())
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    assert os.waitstatus_to_exitcode(status) == 0
    assert usage.ru_utime + usage.ru_stime <= 1.2 * wall


def test_blas_worker_sleeps_when_idle():
    # The same spin, seen whatever core the worker runs on: after a threaded
    # product the worker used about 0.12 s of CPU while the main thread slept.
    code = ("import time, sphshift, numpy as np; a = np.ones((300, 300)); a @ a; "
            "c = time.process_time(); time.sleep(0.3); print(time.process_time() - c)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.03


@pytest.mark.parametrize("preset", [None, "30"])
def test_thread_timeout_leaves_the_environment_as_it_was(preset):
    extra = {} if preset is None else {"OPENBLAS_THREAD_TIMEOUT": preset}
    code = "import os, sphshift; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(**extra), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(preset)


def layers_loaded(prelude: str, package: str = "sphshift") -> set:
    """The modules of ``package`` a fresh interpreter holds after running ``prelude``."""
    code = (prelude + "\nimport sys; "
            f"print(' '.join(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def request_prelude(argv: list) -> str:
    """Code that runs one CLI request in-process, its output discarded."""
    return ("import contextlib, io\nfrom sphshift import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0")


def request_loads(argv: list, package: str = "sphshift") -> set:
    return layers_loaded(request_prelude(argv), package)


def test_import_sphshift_loads_no_layer():
    assert layers_loaded("import sphshift") == {"sphshift"}


def test_verify_loads_only_the_oracle_layers():
    loaded = request_loads(["verify", "--m", "2", "--N", "4"])
    assert loaded == {"sphshift", "sphshift.cli", "sphshift.scalarseq", "sphshift.shift",
                      "sphshift.multiindex", "sphshift.truncation"}


SCALAR_REQUESTS = [  # a request and the layers it loads besides cli and scalarseq
    (["classify", "--family", "bergman", "--K", "20", "--horizon", "200"], {"classify"}),
    (["spectrum", "--family", "bergman", "--K", "2000"], {"_kernels", "spectra"}),
    (["cutoff", "--family", "bergman", "--K", "2000"], {"_kernels", "schatten"}),
    (["schatten", "--family", "bergman", "--p", "3", "--K", "2000"], {"_kernels", "schatten"}),
    (["lemmas", "--k-range", "100:1000", "--points", "4"], {"_kernels", "schatten"}),
]


@pytest.mark.parametrize("argv, layers", SCALAR_REQUESTS,
                         ids=[argv[0] for argv, _ in SCALAR_REQUESTS])
def test_scalar_requests_load_no_oracle(argv, layers):
    # nor another analysis layer: each imports only scalarseq and _kernels
    # (classify only scalarseq), where the sampled answers they share live
    assert request_loads(argv) == {"sphshift", "sphshift.cli", "sphshift.scalarseq",
                                   *(f"sphshift.{layer}" for layer in layers)}


def test_dump_sequence_loads_the_closed_forms_without_multiindex():
    # the closed forms hold multi-indices as plain integer arrays
    loaded = request_loads(["dump-sequence", "--family", "bergman", "--K", "10", "--Q", "2"])
    assert "sphshift.shift" in loaded
    assert not loaded & {"sphshift.truncation", "sphshift.multiindex"}


def test_benchmark_tracer_binds_every_name_it_wraps():
    # perfbench/tracer.py names library functions and methods by string, so
    # a rename breaks its install; a traced verify also runs its hooks
    code = ("import contextlib, io, tracer\n"
            "from sphshift import cli, multiindex\n"
            "original = multiindex.enumerate_level\n"
            "tr = tracer.Tracer()\n"
            "tr.install()\n"
            "assert multiindex.enumerate_level is not original\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', '--m', '2', '--N', '3']) == 0\n"
            "tr.restore()\n"
            "assert multiindex.enumerate_level is original\n"
            "metrics = tr.layer_metrics(1)\n"
            "print(metrics['multiindex.enumerate_level.calls'], "
            "metrics['truncation.dense_gflop_computed'] > 0)")
    perfbench = os.path.join(os.path.dirname(SRC), "perfbench")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(PYTHONPATH=os.pathsep.join([SRC, perfbench])),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["4", "True"]


@pytest.mark.parametrize("argv", [
    ["schatten", "--family", "bergman", "--p", "2.5", "--K", "2000"],
    ["cutoff", "--family", "bergman", "--K", "2000"],
    ["analyze", "--family", "bergman", "--K", "2000", "--K-exact", "20", "--N", "4"],
], ids=lambda argv: argv[0])
def test_schatten_requests_load_no_masked_arrays(argv):
    # importing numpy.ma costs 8-15 ms of a fresh process; np.unique loads it
    assert "numpy.ma" not in request_loads(argv, "numpy")


@pytest.mark.parametrize("prelude", [
    "import sphshift.cli",
    request_prelude(["schatten", "--family", "bergman", "--p", "2.5", "--K", "2000"]),
    request_prelude(["spectrum", "--family", "bergman", "--K", "2000"]),
    "from sphshift import scalarseq, schatten, shift\n"
    "s = shift.SphericalShift(3, scalarseq.make_family('bergman', 3))\n"
    "for j, l in ((1, 1), (1, 2)):\n"
    "    schatten.closed_form_norm(s, j, l, 3.5, 2000)",
], ids=["import", "schatten", "spectrum", "closed_form_norm"])
def test_no_path_loads_numpy_polynomial(prelude):
    # the self-commutator level sums build their Gauss-Legendre rule with
    # numpy.linalg, which import numpy loads anyway; numpy.polynomial would
    # add start-up time and memory to every run that reaches them
    assert "numpy.polynomial" not in layers_loaded(prelude, "numpy")


EXPORTS = {"HpSpace": scalarseq, "RhoEta": scalarseq, "SphericalShift": shift,
           "oracle_suite": truncation, "spectral_report": spectra, "decide": schatten,
           "classification": classify}


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_is_the_defining_modules_object(name):
    assert getattr(sphshift, name) is getattr(EXPORTS[name], name)
    assert name in dir(sphshift)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        sphshift.cli_main  # noqa: B018
    assert not hasattr(sphshift, "DEFAULT_K")


def test_cli_defaults_are_the_layer_defaults():
    parser = cli.build_parser()

    def defaults(fn):
        return {name: par.default for name, par in inspect.signature(fn).parameters.items()
                if par.default is not par.empty}

    def cli_defaults(*argv):
        return vars(parser.parse_args(list(argv)))

    fam = ["--family", "bergman"]
    report, verdict, cut = (defaults(f) for f in (spectra.spectral_report, schatten.decide,
                                                  schatten.cutoff_check))
    battery, oracle = defaults(classify.classification), defaults(truncation.oracle_suite)
    lemma = defaults(schatten.asymptotic_lemma_check)

    args = cli_defaults("spectrum", *fam)
    assert (args["K"], args["J"], args["window"]) == (report["K"], report["J"], report["window"])
    assert cli_defaults("schatten", *fam, "--p", "2")["K"] == verdict["K"]
    assert cli_defaults("cutoff", *fam)["K"] == cut["K"]
    args = cli_defaults("classify", *fam)
    assert [args[k] for k in ("P", "Q", "K", "horizon")] == \
        [battery[k] for k in ("P", "Q", "K", "horizon")]
    assert cli_defaults("lemmas")["points"] == lemma["points"]
    assert cli_defaults("verify")["tol"] == oracle["tol"]
    args = cli_defaults("analyze", *fam)
    assert (args["K"], args["J"]) == (report["K"], report["J"])
    assert (args["K_exact"], args["P"], args["Q"]) == (battery["K"], battery["P"], battery["Q"])
    assert args["tol"] == oracle["tol"]
