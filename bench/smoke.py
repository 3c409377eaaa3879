"""Smoke test of the benchmark: tiny inputs, every workload, both modes.

    python3 bench/smoke.py

Runs ``run.py --tiny`` untraced once and traced twice per workload, each in
its own process, and checks that every run exits 0 with all outputs
correct and no failed operation, that it prints exactly the metrics
``BENCHMARK.json`` declares for its mode with their units, and that the
two traced runs of one seed report identical exact counts.  It gates
nothing on timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from layers import EXACT  # noqa: E402


def run(spec: dict, workload: str, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, declared: list, what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] is True, what
    assert result["failed"] == 0 and result["attempted"] >= 1, what
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{what}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), f"{what}: {name}"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        name = w["name"]
        check(run(spec, name, 0), spec["end_to_end"], f"{name} untraced")
        first, second = run(spec, name, 1), run(spec, name, 1)
        check(first, spec["per_layer"], f"{name} traced")
        counts = [{k: r["metrics"][k]["value"] for k in EXACT} for r in (first, second)]
        assert counts[0] == counts[1], f"{name}: exact counts differ between runs: {counts}"
        print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
