#!/usr/bin/env python3
"""sphshift benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` next to this
directory, never from an installed copy. Each workload is driven closed
loop by one client, one request at a time. A run executes whole rounds of
the seeded request list until ``--seconds`` have passed (one round holds
at least 40 requests and today lasts longer than ``--seconds``).

``--trace 0`` prints the end-to-end metrics: CLI requests are separate
``python -m sphshift.cli`` processes, so interpreter start and import are
part of every latency; ``level-sums`` calls the library in one worker
process. ``--trace 1`` prints the per-layer metrics of one untraced and one
traced in-process round (see tracer.py). The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Set-up samples per run, half before and half after the measured rounds,
# so their median spans the run rather than one moment of it.
SETUP_SAMPLES = 8
TAIL_BEYOND = 10
# A child still running this long after the run started is killed and its
# request counted as failed, so a hung program cannot hold the run.
RUN_DEADLINE_S = 150.0
START = time.perf_counter()
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s_per_request": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, out_path=os.devnull):
    """Run argv to its exit; (wall s, user+sys CPU s, max RSS MB, exit code)
    of that one child, read with wait4."""
    err_path = os.devnull if out_path == os.devnull else out_path + ".err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        guard = threading.Timer(max(0.0, START + RUN_DEADLINE_S - t0), proc.kill)
        guard.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            guard.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def setup_samples(statement: str, count: int) -> list:
    """Wall time of fresh interpreters that only run ``statement``."""
    return [spawn([sys.executable, "-c", statement])[0] for _ in range(count)]


def import_samples(module: str, out_dir: str) -> list:
    """Import time measured inside fresh interpreters."""
    path = os.path.join(out_dir, "import_s.txt")
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    out = []
    for _ in range(SETUP_SAMPLES):
        if spawn([sys.executable, "-c", code], path)[3] != 0:
            raise RuntimeError(f"import {module} failed; see {path}.err")
        with open(path) as fh:
            out.append(float(fh.read()))
    return out


def run_worker(job: dict, out_dir: str):
    job_path = os.path.join(out_dir, "job.json")
    result_path = os.path.join(out_dir, "worker.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    _, _, rss, code = spawn([sys.executable, os.path.join(HERE, "inproc.py"),
                             job_path, result_path], os.path.join(out_dir, "worker.log"))
    if code != 0:
        raise RuntimeError(f"worker exited {code}; see {out_dir}/worker.log.err")
    with open(result_path) as fh:
        return json.load(fh), rss


def measure_cli(reqs: list, seconds: float, out_dir: str):
    samples, wall, rounds = [], 0.0, 0
    while rounds == 0 or wall < seconds:
        t0 = time.perf_counter()
        for req in reqs:
            path = os.path.join(out_dir, f"round{rounds}-req{req['id']}.json")
            w, cpu, rss, code = spawn([sys.executable, "-m", "sphshift.cli", *req["argv"]], path)
            samples.append({"id": req["id"], "cmd": req["cmd"], "wall": w, "cpu": cpu,
                            "rss": rss, "code": code, "path": path})
        wall += time.perf_counter() - t0
        rounds += 1
    return samples, wall


def check_cli_samples(reqs: list, samples: list) -> list:
    by_id = {r["id"]: r for r in reqs}
    oracle = checks.Oracle()
    failures = []
    for s in samples:
        if s["code"] != 0:
            continue
        if "path" in s:
            with open(s["path"]) as fh:
                text = fh.read()
        else:
            text = s["out"]
        failures += checks.check_cli(by_id[s["id"]], s["code"], text, oracle)
    return failures


def harrell_davis(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of ``values``.

    A weighted mean of the order statistics, the weight of the i-th being
    the Beta(q(n+1), (1-q)(n+1)) mass on [(i-1)/n, i/n]. It estimates the
    same quantile as the single order statistic, but does not jump when two
    requests of different classes trade places around it.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 200  # midpoint rule per order statistic; the density is smooth
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            mass += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(samples, per_round, wall, setup, peak_rss) -> dict:
    walls = [s["wall"] for s in samples]
    # In each round, the highest percentile with TAIL_BEYOND samples above
    # it, (n - 10)/n, estimated by Harrell-Davis; the median over rounds
    # keeps that percentile whatever the number of rounds.
    q = (per_round - TAIL_BEYOND) / per_round
    tails = [harrell_davis(walls[i:i + per_round], q)
             for i in range(0, len(walls), per_round)]
    return {
        "setup_s": statistics.median(setup),
        "throughput_rps": len(walls) / wall,
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": statistics.median(tails),
        "peak_rss_mb": peak_rss,
        "cpu_s_per_request": statistics.median(s["cpu"] for s in samples),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sphshift", "cli.py")):
        print(f"perfbench: no sphshift sources under {SRC}", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    reqs = workloads.build(args.workload, args.seed, out_dir)
    in_process = args.workload == "level-sums"
    setup_module = "sphshift" if in_process else "sphshift.cli"

    if args.trace:
        import_s = import_samples("sphshift.cli", out_dir)
        result, _ = run_worker({"mode": "trace", "requests": reqs,
                                "spans_path": os.path.join(out_dir, "spans.json")}, out_dir)
        samples = result["samples"]
        metrics = {**result["metrics"], "cli.import_s": statistics.median(import_s)}
        units = {name: tracer.metric_unit(name) for name in tracer.metric_names()}
        failures = result["failures"]
        if not in_process:
            failures += check_cli_samples(reqs, samples)
    else:
        statement = f"import {setup_module}"
        setup = setup_samples(statement, SETUP_SAMPLES // 2)
        if in_process:
            result, rss = run_worker({"mode": "measure", "requests": reqs,
                                      "seconds": args.seconds}, out_dir)
            samples, wall, failures = result["samples"], result["wall"], result["failures"]
        else:
            samples, wall = measure_cli(reqs, args.seconds, out_dir)
        setup += setup_samples(statement, SETUP_SAMPLES - SETUP_SAMPLES // 2)
        if not in_process:
            rss = max(s["rss"] for s in samples)
            failures = check_cli_samples(reqs, samples)
        metrics = end_to_end(samples, len(reqs), wall, setup, rss)
        units = END_TO_END_UNITS

    failed = sum(1 for s in samples if s["code"] != 0)
    for msg in failures[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    line = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({"args": vars(args), "line": line, "failures": failures,
                   "samples": [{k: v for k, v in s.items() if k != "out"} for s in samples]},
                  fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
