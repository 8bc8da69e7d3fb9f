#!/usr/bin/env python3
"""Steadiness self-check: do repeated sets of runs agree within the bounds?

Run from the repository root::

    python3 perfbench/steady.py --seeds 10 --sets 2

For each set and each workload in ``BENCHMARK.json`` the benchmark runs
once per seed (seeds 1..``--seeds``, ``run_seconds`` each, ``--trace 0``).
For every end-to-end metric it reports the spread of the per-seed
values -- the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of their median --
and checks that

* each spread is within the metric's bound, and
* each later set's median is not worse than the first set's by more
  than the bound.

It exits 1 when a check fails.  The tighter target a steady benchmark
should meet is a spread below a third of the bound; spreads above that
are flagged but do not fail the check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(bench: dict, workload: str, seed: int, seconds: int) -> dict:
    command = [*bench["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["took_s"] = took
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first`` (<= 0: not worse)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = list(range(1, args.seeds + 1))
    metrics = bench["end_to_end"]
    failures: list[str] = []
    report: dict = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        sets = []
        for index in range(args.sets):
            runs = []
            for seed in seeds:
                result = run_once(bench, workload, seed, seconds)
                if not result["correct"] or result["failed"]:
                    failures.append(f"{workload} seed {seed}: {result['failed']} failed ops")
                runs.append(result)
                print(f"{workload} set {index + 1} seed {seed}: {result['took_s']:.1f} s, "
                      f"{result['attempted']} ops", flush=True)
            sets.append(runs)
        rows = {}
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            spreads = [spread(values) for values in per_set]
            medians = [statistics.median(values) for values in per_set]
            drifts = [worse_by(medians[0], m, metric["better"]) for m in medians[1:]]
            rows[name] = {"bound": bound, "spreads": spreads, "medians": medians,
                          "drifts": drifts}
            for i, value in enumerate(spreads):
                flag = ""
                if value > bound:
                    failures.append(f"{workload} {name}: spread {value:.3f} > bound {bound} "
                                    f"(set {i + 1})")
                    flag = "FAIL"
                elif value > bound / 3:
                    flag = "above bound/3"
                print(f"  {workload:8} {name:14} set {i + 1}: median {medians[i]:.6g} "
                      f"spread {value:.4f} (bound {bound}) {flag}")
            for i, drift in enumerate(drifts, start=2):
                if drift > bound:
                    failures.append(f"{workload} {name}: set {i} median worse by {drift:.3f} "
                                    f"> bound {bound}")
                print(f"  {workload:8} {name:14} set {i} vs set 1: worse by {drift:+.4f}")
        report["workloads"][workload] = rows
    report["failures"] = failures
    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench-work", f"steady-{int(time.time())}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"report: {os.path.relpath(path, ROOT)}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
