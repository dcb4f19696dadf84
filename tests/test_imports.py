"""What ``import sphshift.cli`` loads: every CLI run pays for it at start-up."""

import os
import subprocess
import sys

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
