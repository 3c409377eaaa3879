"""Shared fixtures: a fully worked 19-entry packing, op resolvers, and a
counter of the B-tree's walks."""

from __future__ import annotations

import collections

import pytest

from drc.errors import DrcError
from drc.partial_sums import SumTree
from drc.partial_sums_small import PsConfig

# A hand-checked 19-entry sequence with run threshold 4, small enough to
# trace on paper, busy enough to hit every run shape.  Nineteen 16-bit
# fields need a simulated word wider than 64 bits; Python ints make the
# width a free parameter.
DEMO_CONFIG = PsConfig(w=256, delta=2, B=24, F=16, run_gap=4)

# Sixteen 16-bit fields in a 128-bit word pair: a tree five levels deep at
# ~50k entries.  The cases labelled B16 run on it, and those labelled B64
# on DEFAULT_CONFIG, the package's 64-entry nodes.
B16_CONFIG = PsConfig(w=128, B=16)

DEMO_Z = [5, 1, 4, 7, 1, 1, 6, 5, 1, 1, 2, 2, 1, 3, 5, 10, 5, 10, 2]

DEMO_START = dict(
    sums=[5, 6, 10, 17, 18, 19, 25, 30, 31, 32, 34, 36, 37, 40, 45, 55, 60, 70, 72],
    reps=[5, 17, 25, 30, 45, 55, 60, 70],
    flags=[1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0],
    counts=[1, 1, 1, 2, 2, 2, 3, 4, 4, 4, 4, 4, 4, 4, 5, 6, 7, 8, 8],
    offsets=[0, 1, 5, 0, 1, 2, 0, 0, 1, 2, 4, 6, 7, 10, 0, 0, 0, 0, 2],
)

# After divide(8, 3): entry 8 (value 5) becomes entries of value 3 and 2,
# and anchor value 30 disappears.
DEMO_AFTER_DIVIDE = dict(
    sums=[5, 6, 10, 17, 18, 19, 25, 28, 30, 31, 32, 34, 36, 37, 40,
          45, 55, 60, 70, 72],
    reps=[5, 17, 25, 45, 55, 60, 70],
    flags=[1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0],
    counts=[1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 5, 6, 7, 7],
    offsets=[0, 1, 5, 0, 1, 2, 0, 3, 5, 6, 7, 9, 11, 12, 15, 0, 0, 0, 0, 2],
)

# Then merge(12): entries 12, 13 (values 2, 2) fuse into value 4.
DEMO_AFTER_MERGE = dict(
    sums=[5, 6, 10, 17, 18, 19, 25, 28, 30, 31, 32, 36, 37, 40,
          45, 55, 60, 70, 72],
    reps=[5, 17, 25, 45, 55, 60, 70],
    flags=[1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0],
    counts=[1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 5, 6, 7, 7],
    offsets=[0, 1, 5, 0, 1, 2, 0, 3, 5, 6, 7, 11, 12, 15, 0, 0, 0, 0, 2],
)

OP_KINDS = ("sum", "search", "update", "divide", "merge", "insert", "delete")
MUTATOR_KINDS = ("update", "divide", "merge", "insert", "delete")


def resolve_op(kind, a, b, values, *, capacity=None, delta=2):
    """Map raw integers (a, b) onto valid arguments for kind, given the
    current entry values; None when the kind is impossible right now."""
    n = len(values)
    full = capacity is not None and n >= capacity
    if kind == "sum":
        return ("sum", a % n + 1) if n else None
    if kind == "search":
        total = sum(values)
        return ("search", a % total + 1) if total >= 1 else None
    if kind == "update":
        if not n:
            return None
        i = a % n + 1
        lo = -min((1 << delta) - 1, values[i - 1])
        hi = (1 << delta) - 1
        return ("update", i, lo + b % (hi - lo + 1))
    if kind == "divide":
        if not n or full:
            return None
        i = a % n + 1
        return ("divide", i, b % (values[i - 1] + 1))
    if kind == "merge":
        return ("merge", a % (n - 1) + 1) if n >= 2 else None
    if kind == "insert":
        if full:
            return None
        return ("insert", a % (n + 1) + 1, b % (1 << delta))
    if kind == "delete":
        small = [i for i, v in enumerate(values, 1) if v < 1 << delta]
        return ("delete", small[a % len(small)]) if small else None
    raise ValueError(kind)


def resolve_bad_op(kind, a, b, values, *, delta=2):
    """Map raw integers (a, b) onto arguments for kind of which exactly
    one integer is out of range or over delta, given the current entry
    values; None when the kind has no such argument right now."""
    n = len(values)
    far = a % 3 + 1  # how far outside the range
    low, c = b % 2, b // 2
    if kind in ("sum", "search", "merge") or c % 2 or not n and kind != "insert":
        # a position (a target, for search) below or past its range
        last = {"search": sum(values), "merge": n - 1, "insert": n + 1}.get(kind, n)
        at = 1 - far if low else last + far
        return (kind, at) if kind in ("sum", "search", "merge", "delete") else (kind, at, 0)
    wide = (1 << delta) + far - 1
    if kind == "update":
        # over delta either way, or to below zero
        i = a % n + 1
        return ("update", i, -values[i - 1] - far if c % 3 == 2 else (-1) ** low * wide)
    if kind == "divide":
        i = a % n + 1
        return ("divide", i, -far if low else values[i - 1] + far)
    if kind == "insert":
        return ("insert", a % (n + 1) + 1, -far if low else wide)
    if kind == "delete":
        large = [i for i, v in enumerate(values, 1) if v >= 1 << delta]
        return ("delete", large[a % len(large)]) if large else None
    raise ValueError(kind)


def assert_rejected_alike(target, oracle, op):
    """op raises the same DrcError type from target as from the oracle
    and changes neither."""
    before = oracle.values()
    raised = []
    for s in (target, oracle):
        with pytest.raises(DrcError) as exc:
            apply_op(s, op)
        raised.append(exc.type)
    assert raised[0] is raised[1], (op, raised)
    assert target.values() == oracle.values() == before, op


def apply_op(target, op):
    """Run one resolved op; returns the query answer or None."""
    kind = op[0]
    if kind == "sum":
        return target.sum(op[1])
    if kind == "search":
        return target.search(op[1])
    getattr(target, kind)(*op[1:])
    return None


def count_walks(monkeypatch):
    """A Counter that, while the test runs, counts each child step of a
    SumTree walk from the root (``_child_for``) under "level" and each node
    regroup (``_regroup``) under "shape"."""
    steps = collections.Counter()
    child_for, regroup = SumTree._child_for, SumTree._regroup
    monkeypatch.setattr(SumTree, "_child_for", staticmethod(
        lambda node, i: steps.update(["level"]) or child_for(node, i)))
    monkeypatch.setattr(SumTree, "_regroup",
                        lambda self, *a: steps.update(["shape"]) or regroup(self, *a))
    return steps
