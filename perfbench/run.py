#!/usr/bin/env python3
"""Build and run the rrms-serve benchmark (see perfbench/README.md).

Run from the root of an rrms checkout:

  python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --steadiness --runs 10 [--workloads a,b] [--seconds 10]

The first form builds rrms-serve and the benchmark with dune, then runs
one workload; the last stdout line is the JSON result.  The second runs
every workload once per seed 1..RUNS, the workloads taking turns, and
prints, per end-to-end metric, the median, the quartiles and the spread
(IQR / median) against the bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_EXE = "_build/default/perfbench/perfbench.exe"
SERVER_EXE = "_build/default/bin/rrms_serve_bin.exe"


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        sys.exit("perfbench: not the root of an rrms checkout (no dune-project, lib/ or bin/)")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./" + BENCH_EXE, "./" + SERVER_EXE],
        stdout=sys.stderr,
    )
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def pin():
    """Keep the client and the server on one CPU.  The closed loop never has
    both busy at once, and no answer then waits for an idle second vCPU to
    wake, which took longer the busier the host was (see README.md)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_once(workload, seed, seconds, trace, echo=True):
    cmd = [BENCH_EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--exe", SERVER_EXE]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
    if r.returncode != 0:
        sys.exit(r.returncode)
    return json.loads(r.stdout.strip().splitlines()[-1])


def steadiness(args):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    # the workloads take turns, so a slow stretch of the host falls on all
    # of them alike
    values = {wl: {} for wl in names}
    for k in range(args.runs):
        for wl in names:
            res = run_once(wl, 1 + k, seconds, 0, echo=False)
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {1 + k}: INCORRECT {res}")
            for name, m in res["metrics"].items():
                values[wl].setdefault(name, []).append(m["value"])
            print(f"{wl:11s} seed {1 + k:2d} " + " ".join(
                f"{name} {m['value']:.4f}" for name, m in res["metrics"].items()), flush=True)
    worst = 0.0
    for wl in names:
        for metric in spec["end_to_end"]:
            xs = values[wl][metric["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            bound = metric["bound"]
            verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
            worst = max(worst, spread / bound)
            print(f"{wl:11s} {metric['name']:15s} median {med:12.4f} {metric['unit']:5s} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:6.3f} bound {bound:.2f} {verdict}",
                  flush=True)
    print(f"worst spread / bound: {worst:.3f}")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads")
    args = p.parse_args()
    build()
    pin()
    if args.steadiness:
        steadiness(args)
    elif args.workload is None or args.seconds is None:
        p.error("--workload and --seconds are required")
    else:
        run_once(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
