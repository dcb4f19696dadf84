#!/usr/bin/env python3
"""Self-test: one round of every workload, untraced and traced.

    python3 perfbench/selftest.py

Each run must exit 0 with all output checks passing and no failed request,
and print exactly the metric names and units that BENCHMARK.json lists
(``end_to_end`` untraced, ``per_layer`` traced). A traced run is made
twice per workload and its count metrics must repeat exactly. A copy of
the benchmark without the sources must exit non-zero without a result.
Takes about five minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_SUFFIXES = (".calls", ".elements", ".useful_ratio", ".materialized_per_needed",
                  ".dense_gflop_computed")


def run(workload: str, trace: int, seed: int = 1, root: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    return proc


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            proc = run(w, trace, seed=len(counts) + 1)
            if proc.returncode != 0:
                problems.append(f"{w} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{w} trace={trace}: metric names/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            if not line["correct"] or line["failed"]:
                problems.append(f"{w} trace={trace}: correct={line['correct']} "
                                f"failed={line['failed']}: {proc.stderr[-500:]}")
            if trace:
                counts.append({k: m["value"] for k, m in line["metrics"].items()
                               if k.endswith(COUNT_SUFFIXES)})
            print(f"{w} trace={trace}: ok={not problems}", flush=True)
        if len(counts) == 2 and counts[0] != counts[1]:
            diff = {k for k in counts[0] if counts[0][k] != counts[1].get(k)}
            problems.append(f"{w}: trace counts differ between seeds: {sorted(diff)}")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("oracle-verify", 0, root=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a copy without src/ did not fail cleanly")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
