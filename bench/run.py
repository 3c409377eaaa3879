"""Benchmark of the ``drc`` package, run from the root of a source checkout.

    python3 bench/run.py --workload edit-dna --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``edit-dna``, ``forest-text`` and
``cli-revision``.  The package is imported from ``src/`` next to this
directory; without it the run exits with code 2 and prints no result.

``--trace 0`` sets up the workload ``setup_reps`` times (the median is
``setup_s``), then runs a closed loop for ``--seconds`` and prints the
end-to-end metrics; set-up times, latencies and ops/s are scaled by the
speed probe of ``speed.py``.  ``--trace 1`` replays one fixed operation
sequence three times from the same state, once untraced and twice traced,
checks that the exact counts agree, and prints the per-layer metrics; the
second pass's spans are written to ``bench/out/<workload>.spans.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (sample counts, input sizes, environment).  The exit code
is 0 when every output was correct and 1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "drc", "__init__.py")):
        print(f"bench: no drc package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import drc

    if not os.path.abspath(drc.__file__).startswith(SRC + os.sep):
        print(f"bench: imported drc from {drc.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def tail(samples: list) -> tuple:
    """(median, p99, samples beyond p99) of latencies in seconds."""
    xs = sorted(samples)
    k = int(0.99 * len(xs))
    return statistics.median(xs), xs[k], len(xs) - 1 - k


# ----------------------------------------------------------------------

def run_untraced(wl, seed: int, seconds: float) -> tuple:
    from speed import Probe, SpeedLog, setup_scale
    from workloads import Recorder

    probe = Probe()
    times, scaled, state = [], [], None
    for _ in range(wl.setup_reps):
        state = None
        gc.collect()
        before = probe.burst()
        t0 = time.perf_counter()
        state = wl.setup()
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * setup_scale(before, probe.burst()))

    rec = Recorder()
    wl.check_setup(state, rec)
    speed = SpeedLog(probe, rec)
    rec.tick = speed.tick
    speed.close()
    deadline = time.perf_counter() + seconds
    wl.ops(state, random.Random(seed * 7919 + 1), rec, lambda: time.perf_counter() < deadline)
    speed.close()
    ratio = wl.check(state, rec)

    lat, factors = speed.scaled()
    # the slowest ops gain far less than the probe when the machine speeds
    # up, so p99 is scaled down in slow windows and never up in fast ones
    tails = speed.scaled(cap=1.0)[0]
    metrics = {"setup_s": (statistics.median(scaled), "s"),
               "ops_per_s": (rec.ops_done / sum(map(sum, lat.values())), "1/s")}
    counts = {}
    for kind in ("read", "edit"):
        p50 = statistics.median(lat[kind])
        _, p99, beyond = tail(tails[kind])
        metrics[f"{kind}_p50_us"] = (p50 * 1e6, "us")
        metrics[f"{kind}_p99_us"] = (p99 * 1e6, "us")
        raw50, raw99, _ = tail(rec.lat[kind])
        counts[kind] = {"samples": len(lat[kind]), "beyond_p99": beyond,
                        "raw_p50_us": raw50 * 1e6, "raw_p99_us": raw99 * 1e6}
    if lat["splice"]:
        counts["splice"] = {"samples": len(lat["splice"]),
                            "p50_us": statistics.median(lat["splice"]) * 1e6}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["cover_ratio"] = (ratio, "ratio")
    details = {"setup_s_raw": times, "setup_s_scaled": scaled, "latency_samples": counts,
               "raw_ops_per_s": rec.ops_done / sum(map(sum, rec.lat.values())),
               "speed_factor": [min(factors), statistics.median(factors), max(factors)]}
    return rec, metrics, details


# ----------------------------------------------------------------------

def build_stages(reference: bytes) -> dict:
    """Index build-stage figures from ``stages.py``, run in a fresh process."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "stages.py")], input=reference,
                          capture_output=True, timeout=170, check=True)
    return json.loads(proc.stdout)


def run_traced(wl, seed: int) -> tuple:
    from tracing import Tracer
    from workloads import CONCAT_BUDGET, ST_BUDGET, Recorder

    import layers

    metrics = build_stages(wl.reference)
    gc.collect()
    rec = Recorder()
    with Tracer() as setup_trace:
        state = wl.setup()
    wl.check_setup(state, rec)
    snap = wl.snapshot(state)
    state = None

    passes = []
    for traced in (False, True, True):
        st = wl.restore(snap)
        prec = Recorder()
        rng = random.Random(seed * 7919 + 2)
        gc.collect()
        tracer = Tracer([st["index"]] if "index" in st else []) if traced else None
        t0 = time.perf_counter()
        if tracer is None:
            wl.fixed_ops(st, rng, prec)
        else:
            with tracer:
                wl.fixed_ops(st, rng, prec)
        wall = time.perf_counter() - t0
        passes.append((st, prec, tracer, wall, wl.fingerprint(st)))
        rec.attempted += prec.attempted
        rec.failed += prec.failed
        rec.notes += prec.notes

    st, prec, tracer, _wall, _fp = passes[1]
    ratio = wl.check(st, rec)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"{wl.name}.spans.tsv"))

    per_pass = [layers.layer_metrics(p[2], setup_trace, sum(passes[0][1].walls),
                                     p[4]["blocks"], metrics) if p[2] else None
                for p in passes]
    metrics = per_pass[1]
    metrics["trace.overhead_s"] = passes[1][3] - passes[0][3]
    # the per-edit budgets, read from the spans: this covers CoverForest
    # edits, which keep no counters of their own
    rec.attempted += 1
    st_ops = metrics["partial_sums.calls_per_edit_max"]
    concats = metrics["ref_index.concat_calls_per_edit_max"]
    if st_ops > ST_BUDGET or concats > CONCAT_BUDGET:
        rec.fail(f"an edit over budget: {st_ops} SumTree ops, {concats} concat queries")

    # determinism: the exact counts agree between the two traced passes,
    # and with what the untraced pass could see
    exact = [layers.exact_counts(p[1], p[4], m) for p, m in zip(passes, per_pass)]
    mismatches = [k for k in exact[1] if exact[1][k] != exact[2][k]]
    mismatches += [k for k in exact[0] if exact[0][k] != exact[1][k]]
    mismatches += layers.span_vs_counter(metrics, prec)
    rec.attempted += 1
    if mismatches:
        rec.fail(f"counts differ between passes: {sorted(set(mismatches))}")
    details = {"passes_wall_s": [p[3] for p in passes], "exact_counts": exact[1],
               "cover_ratio": ratio, "spans": len(tracer.spans)}
    units = {name: unit for name, unit, _better in layers.PER_LAYER}
    return rec, {k: (v, units[k]) for k, v in metrics.items()}, details


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the smoke test; timings mean nothing")
    args = ap.parse_args(argv)

    _import_package()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    extra = {}
    if cls.name == "cli-revision":
        extra["workdir"] = os.path.join(OUT, f"cli-work-{os.getpid()}")
    wl = cls(args.seed, args.tiny, **extra)
    try:
        if args.trace:
            rec, metrics, details = run_traced(wl, args.seed)
        else:
            rec, metrics, details = run_untraced(wl, args.seed, args.seconds)
    finally:
        wl.close()

    details.update(workload=wl.name, seed=args.seed, trace=args.trace, why=wl.why,
                   sizes=wl.sizes, mix=wl.mix, failures=rec.notes, environment=environment())
    print(json.dumps(details))
    correct = rec.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
