"""Span tracing around the public functions of each ``drc`` layer.

Nothing in the package changes: :class:`Tracer` swaps the public methods and
module functions listed in :data:`LAYERS` and :data:`MODULE_FUNCTIONS` for
wrappers that record one span per call, and puts the originals back on
exit.  A span is ``[layer, name, parent, start, end, note]``; ``parent`` is
the index of the enclosing span or -1, so spans of one request share the
root they descend from.  Spans stay in memory until :meth:`Tracer.write`.

Self time is a span's duration minus its children's.  A call *enters* a
layer when its parent span belongs to another layer (or there is none);
only entering calls are counted, and a layer's self time per call is the
self time of the entering span plus that of the same-layer spans below it.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import drc.cover_engine
import drc.drc_cli
import drc.multi_cover
import drc.partial_sums
import drc.partial_sums_small
import drc.ref_index

PS_OPS = ("sum", "search", "update", "divide", "merge", "insert", "delete")
CS_READS = ("access", "extract")
CS_EDITS = ("replace", "insert", "delete")
MC_EDITS = ("replace", "insert", "delete")
MC_SPLICES = ("split", "concat")

# layer -> (class, public methods wrapped)
LAYERS = {
    "partial_sums_small": (drc.partial_sums_small.PackedSums, PS_OPS + ("values",)),
    "partial_sums": (drc.partial_sums.SumTree, PS_OPS),
    "ref_index": (drc.ref_index.RefIndex,
                  ("substring_concat", "lce", "factorize", "occurrence", "longest_match")),
    "cover_engine": (drc.cover_engine.CompressedString, CS_READS + CS_EDITS),
    "multi_cover": (drc.multi_cover.CoverForest,
                    ("add", "add_blocks", "access", "decompress", "blocks")
                    + MC_EDITS + MC_SPLICES),
}

# (layer, function name, modules whose global of that name is swapped)
MODULE_FUNCTIONS = (
    ("ref_index", "build_index", (drc.ref_index, drc.drc_cli)),
    ("cover_engine", "compress", (drc.cover_engine, drc.drc_cli)),
    ("drc_cli", "main", (drc.drc_cli,)),
    ("drc_cli", "fnv1a64", (drc.drc_cli,)),
    ("drc_cli", "encode_cover", (drc.drc_cli,)),
    ("drc_cli", "decode_cover", (drc.drc_cli,)),
    ("drc_cli", "parse_script", (drc.drc_cli,)),
    # the CLI's file reads, so that verify's scan can be told from its I/O
    ("drc_cli", "_read", (drc.drc_cli,)),
)

# op spans of the two string types: the unit a benchmark op is counted in
OP_SPANS = {("cover_engine", m) for m in CS_READS + CS_EDITS} | {
    ("multi_cover", m) for m in ("access",) + MC_EDITS + MC_SPLICES}
EDIT_SPANS = {("cover_engine", m) for m in CS_EDITS} | {
    ("multi_cover", m) for m in MC_EDITS}


def _note_packed(args, result, before):
    ps = args[0]
    return (ps.rebuilds - before[0], ps.search_fallbacks - before[1])


def _note_last_counts(args, result, before):
    cs = args[0]
    return (cs.last_st_ops, cs.last_concat_calls)


@contextlib.contextmanager
def patched(owner, replacements: dict):
    """Set attributes of ``owner`` (a class or a module) while the block
    runs, and put the originals back when it ends."""
    saved = {name: owner.__dict__[name] for name in replacements}
    try:
        for name, value in replacements.items():
            setattr(owner, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(owner, name, value)


class Tracer:
    """Context manager that records spans while it is active.

    ``warm`` lists indexes whose lazy structures are already built; the
    first ``substring_concat`` on any other index is noted as a build.
    """

    def __init__(self, warm=()):
        self.spans: list = []
        self._stack: list = []
        self._patches = contextlib.ExitStack()
        self._indexes_seen: set = {id(index) for index in warm}

    # ------------------------------------------------------------------

    def _wrap(self, fn, layer, name, pre=None, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [layer, name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            before = pre(args) if pre is not None else None
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if post is not None:
                rec[5] = post(args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def _note_concat(self, args, result, before):
        # the first query against an index builds its suffix tree
        first = id(args[0]) not in self._indexes_seen
        self._indexes_seen.add(id(args[0]))
        return (result is not None, first)

    def _hooks(self, layer, name):
        if layer == "partial_sums_small" and name != "values":
            return (lambda a: (a[0].rebuilds, a[0].search_fallbacks)), _note_packed
        if layer == "cover_engine" and name in CS_EDITS:
            return None, _note_last_counts
        if layer == "ref_index" and name == "substring_concat":
            return None, self._note_concat
        if layer == "ref_index" and name == "factorize":
            return None, lambda a, r, b: len(a[1])
        if layer == "drc_cli" and name == "main":
            return None, lambda a, r, b: (a[0][0] if a and a[0] else "", r)
        return None, None

    def __enter__(self):
        for layer, (cls, methods) in LAYERS.items():
            self._patches.enter_context(patched(cls, {
                name: self._wrap(cls.__dict__[name], layer, name, *self._hooks(layer, name))
                for name in methods}))
        for layer, name, modules in MODULE_FUNCTIONS:
            traced = self._wrap(getattr(modules[0], name), layer, name, *self._hooks(layer, name))
            for mod in modules:
                self._patches.enter_context(patched(mod, {name: traced}))
        return self

    def __exit__(self, *exc):
        self._patches.close()
        return False

    # ------------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: id, parent, layer, name, start and
        end in ns from the first span, note."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tlayer\tname\tstart_ns\tend_ns\tnote\n")
            for k, (layer, name, parent, start, end, note) in enumerate(self.spans):
                fh.write(f"{k}\t{parent}\t{layer}\t{name}\t{round((start - t0) * 1e9)}\t"
                         f"{round((end - t0) * 1e9)}\t{'' if note is None else note}\n")


class SpanSummary:
    """Per-layer figures derived from one tracer's spans."""

    def __init__(self, spans: list):
        n = len(spans)
        self.spans = spans
        dur = [s[4] - s[3] for s in spans]
        self_t = dur[:]
        for k, s in enumerate(spans):
            if s[2] >= 0:
                self_t[s[2]] -= dur[k]
        # entering span of each span's layer, and the op span it serves
        entry = list(range(n))
        op_of = [-1] * n
        root = list(range(n))
        for k, (layer, name, parent, *_rest) in enumerate(spans):
            if parent >= 0:
                root[k] = root[parent]
                if spans[parent][0] == layer:
                    entry[k] = entry[parent]
            op_of[k] = k if (layer, name) in OP_SPANS and entry[k] == k else (
                op_of[parent] if parent >= 0 else -1)
        layer_self = defaultdict(float)  # entering span -> layer self time
        by_layer = defaultdict(list)  # layer -> its entering spans
        for k in range(n):
            layer_self[entry[k]] += self_t[k]
            if entry[k] == k:
                by_layer[spans[k][0]].append(k)
        self.dur, self.op_of, self.root, self.layer_self = dur, op_of, root, layer_self
        self._by_layer = by_layer

    def under(self, top: int) -> list:
        """Spans below the root span ``top``."""
        return [k for k in range(top + 1, len(self.spans)) if self.root[k] == top]

    def entering(self, layer: str, names=None):
        """Indices of spans entering ``layer`` (optionally of given names)."""
        ks = self._by_layer.get(layer, [])
        return ks if names is None else [k for k in ks if self.spans[k][1] in names]

    def mean_self_us(self, layer: str, names=None, skip=None) -> float:
        ks = [k for k in self.entering(layer, names) if skip is None or not skip(k)]
        return 1e6 * sum(self.layer_self[k] for k in ks) / len(ks) if ks else 0.0

    def ops(self, kinds=OP_SPANS):
        return [k for k in range(len(self.spans))
                if self.op_of[k] == k and (self.spans[k][0], self.spans[k][1]) in kinds]

    def calls_per_op(self, layer: str, op_kinds, names=None):
        """(mean, max) entering calls into ``layer`` per op of the kinds."""
        ops = self.ops(op_kinds)
        per = dict.fromkeys(ops, 0)
        for k in self.entering(layer, names):
            if self.op_of[k] in per:
                per[self.op_of[k]] += 1
        if not per:
            return 0.0, 0
        return sum(per.values()) / len(per), max(per.values())

    def inclusive_s(self, layer: str, within=None) -> float:
        ks = self.entering(layer)
        if within is not None:
            ks = [k for k in ks if self.op_of[k] in within]
        return sum(self.dur[k] for k in ks)
