"""What ``import sphshift.cli`` loads, and leaves behind: every CLI run pays for it at start-up."""

import os
import subprocess
import sys
import time

import pytest

import sphshift

SRC = os.path.dirname(os.path.dirname(sphshift.__file__))


def test_cli_import_loads_no_pool_modules():
    # the level-sum kernels run plain threads and reach numpy.fft only when
    # called; a pool module or numpy.fft would only add start-up time
    # (concurrent.futures alone costs milliseconds)
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
