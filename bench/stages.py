"""Index build stages of one reference, timed in a fresh process.

Reads the reference from standard input and prints one JSON object: the
seconds of ``build_index`` (suffix array), of the first ``lce`` call (LCP
array and RMQ) and of the first ``substring_concat`` call (suffix tree and
heavy paths), and the growth of peak resident memory across the three.
A fresh process keeps earlier work in the benchmark from warming caches or
raising the peak.  Started by ``run.py --trace 1``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    reference = sys.stdin.buffer.read()
    sys.path.insert(0, SRC)
    from drc.ref_index import build_index

    base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    marks = [time.perf_counter()]
    index = build_index(reference)
    marks.append(time.perf_counter())
    index.lce(1, 1 + (len(reference) > 1))
    marks.append(time.perf_counter())
    index.substring_concat((1, 1), (1, 1))
    marks.append(time.perf_counter())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sa, lce, tree = (b - a for a, b in zip(marks, marks[1:]))
    print(json.dumps({"ref_index.sa_build_s": sa, "ref_index.lce_build_s": lce,
                      "ref_index.tree_build_s": tree,
                      "ref_index.build_peak_mb": (peak_kb - base_kb) / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
