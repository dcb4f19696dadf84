"""In-process request runner: ``python3 inproc.py JOB.json RESULT.json``.

Runs the job's requests inside one interpreter: CLI requests through
``sphshift.cli.main(argv)`` with stdout captured, ``level-sums`` requests
through ``schatten.closed_form_norm``. A job either

* measures (``mode: "measure"``): whole rounds until ``seconds`` have
  passed, untraced, then runs the level-sums checks; or
* traces (``mode: "trace"``): one round in which every request runs once
  untraced and once traced (every public function of each layer wrapped),
  then the checks.

The result file holds per-request wall and CPU times, the outputs, the
check failures and, when tracing, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracer  # noqa: E402


def run_request(req, tr=None):
    from sphshift import cli, schatten
    from sphshift.scalarseq import make_family
    from sphshift.shift import SphericalShift

    if tr is not None:
        tr.request = req["id"]
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if req["kind"] == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(req["argv"]))
            out = buf.getvalue()
        else:
            shift = SphericalShift(req["m"], make_family(req["fam"]["name"], m=req["m"]))
            code = 0
            out = schatten.closed_form_norm(shift, req["j"], req["l"], req["p"], req["kmax"])
    except Exception as exc:  # a failed request is counted, not fatal
        code, out = -1, f"{type(exc).__name__}: {exc}"
    t1, c1 = time.perf_counter(), time.process_time()
    return {"id": req["id"], "cmd": req["cmd"], "wall": t1 - t0, "cpu": c1 - c0,
            "code": code, "out": out}


def level_sum_failures(reqs, samples):
    """Checks every round in samples; rounds are consecutive runs of len(reqs)."""
    n = len(reqs)
    rounds = [{s["id"]: s["out"] for s in samples[i:i + n] if s["code"] == 0}
              for i in range(0, len(samples), n)]
    return checks.check_level_sums(reqs, rounds)


def measure(job):
    reqs = job["requests"]
    import sphshift.cli  # noqa: F401  (import is set-up, not a request)

    samples, wall, rounds = [], 0.0, 0
    while rounds == 0 or wall < job["seconds"]:
        t0 = time.perf_counter()
        samples += [run_request(req) for req in reqs]
        wall += time.perf_counter() - t0
        rounds += 1
    failures = level_sum_failures(reqs, samples) if reqs[0]["kind"] == "levelsum" else []
    return {"samples": samples, "wall": wall, "failures": failures}


def trace(job):
    import sphshift.cli  # noqa: F401

    reqs = job["requests"]
    tr = tracer.Tracer()
    plain, traced = [], []
    # Each request runs untraced and traced back to back, alternating which
    # goes first, so that both see the same warm process.
    for req in reqs:
        for traced_now in ((False, True) if req["id"] % 2 == 0 else (True, False)):
            if not traced_now:
                plain.append(run_request(req))
                continue
            tr.install()
            try:
                traced.append(run_request(req, tr))
            finally:
                tr.restore()
    tr.dump(job["spans_path"])
    metrics = tr.layer_metrics(sum(r["horizon"] + 1 for r in reqs))
    for cmd in tracer.SUBCOMMANDS:
        walls = [s["wall"] for s in plain if s["cmd"] == cmd]
        metrics[f"cli.{cmd}.latency_p50_s"] = statistics.median(walls) if walls else 0.0
    metrics["trace.overhead_ratio"] = (sum(s["wall"] for s in traced)
                                       / sum(s["wall"] for s in plain))
    failures = []
    if reqs[0]["kind"] == "levelsum":
        failures = level_sum_failures(reqs, plain + traced)
    return {"samples": plain + traced, "failures": failures, "metrics": metrics,
            "spans": len(tr.spans)}


def main(argv):
    with open(argv[1]) as fh:
        job = json.load(fh)
    result = trace(job) if job["mode"] == "trace" else measure(job)
    with open(argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
