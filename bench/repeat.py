"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --workload edit-dna --seeds 1-10 [--json out.json]

For every metric this prints the median over the runs, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
Runs go one after another, each in its own process, so they do not share
the machine with each other.
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


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--json", help="also write the runs and the summary here")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["end_to_end"]

    runs = []
    for seed in seeds_of(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        print(f"seed {seed}: exit {proc.returncode}, {wall:.1f} s"
              + ("" if result else f"\n{proc.stderr[-2000:]}"), flush=True)
        if result is None or not result["correct"]:
            return 1
        details = json.loads(lines[-2]) if len(lines) > 1 else None
        runs.append({"seed": seed, "wall_s": wall, "result": result, "details": details})

    summary = {}
    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for m in declared:
        name = m["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": m["unit"], "bound": m["bound"]}
        print(f"{name:44} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} {m['bound']:6.2f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "runs": runs,
                       "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
