"""Word-packed dynamic partial sums over a short sequence.

Maintains nonnegative entries Z[1..n], n <= B, under prefix-sum queries
(``sum``, ``search``, and ``find``, a search that also returns the prefix
before its answer) and five local edits (``update``, ``divide``,
``merge``, ``insert``, ``delete``).  Instead of storing prefix sums
outright, consecutive sums are grouped into *runs*: a new run starts
wherever one entry exceeds the run gap, each run is anchored at its
head's own prefix sum, and every sum is kept as a small offset from its
run's anchor (0 at the head).  The offsets are bit fields packed into a
Python int sized like a machine word, so a run shift is one multiply-add
and an intra-run search is one guarded subtraction (SIMD within a
register).  Each run is one head bit: a slot's run is the popcount of
the head bits at or below it, and a run's head slot is a select over
them.

>>> ps = PackedSums([5, 1, 4, 7])
>>> ps.sum(4)
17
>>> ps.search(7)
3
>>> ps.find(7)
(3, 6)
>>> ps.update(1, 1)
>>> ps.prefix_sums()
[6, 7, 11, 18]
>>> ps
PackedSums([6, 1, 4, 7])

``divide`` follows one rule.  The new entry i heads a run iff i = 1 or
its value exceeds the run gap, and the new entry i+1 iff its own value
does; each new head is anchored at its own prefix sum, the anchor of a
run that entry i headed is dropped, and the rest of the old run shifts
onto the anchor of i+1's run.  ``insert`` applies the same rule to its
one new entry and leaves every other head bit as it was; ``delete``
hands a removed head's run to the slot after it.  Each edit is one
primitive: one set of checks, one count toward the repack.  The checks
go arguments, then room, then writes (``insert`` checks its position
after room), so a SumTree splits a node on StructureFull alone.  Every
edit keeps each head's offset at exactly 0, so the anchors are the
heads' prefix sums, ordered by construction.

A search for t is one ``bisect`` over the anchors: run r, the last
whose anchor is below t, holds the answer after its head, or else the
next head is the answer.  One packed comparison (``_first_ge``) over
run r's other fields tells which; where every entry heads its own run,
the bisect alone answers.  On an internal SumTree level too, an entry
heads a run only when its subtree sum exceeds the gap.  An update at a
head moves anchors only, elsewhere it also adds to the rest of that one
run's fields.  The structure is repacked every B edits, which keeps
every offset inside the bound that PsConfig checks.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, islice
from operator import index, le, sub

from .errors import (
    BadConfig,
    BadSplit,
    DeleteTooLarge,
    DeltaTooLarge,
    IndexOutOfRange,
    NegativeEntry,
    SearchOutOfRange,
    StructureFull,
)


@lru_cache(maxsize=None)
def _ones(field_bits: int, m: int) -> int:
    """Int holding m >= 0 fields of width field_bits, each with value 1."""
    return ((1 << (field_bits * m)) - 1) // ((1 << field_bits) - 1)


def _first_ge(word: int, nfields: int, tau: int, field_bits: int):
    """Smallest field index in word with value >= tau, else None.

    Fields must keep their top (guard) bit clear; tau must satisfy
    1 <= tau < 2**(field_bits-1).  Setting every guard bit and then
    subtracting tau from every field in one word-wide subtraction
    leaves field i's guard bit set exactly when field i >= tau.
    """
    ones = _ones(field_bits, nfields)
    guards = ones << (field_bits - 1)
    z = ((word | guards) - tau * ones) & guards
    if not z:
        return None
    low = z & -z
    return (low.bit_length() - 1) // field_bits


@dataclass(frozen=True)
class PsConfig:
    """Packing geometry for one PackedSums instance.

    w       simulated machine word width in bits (budget check only;
            the arithmetic itself runs on Python ints of any size)
    delta   update/insert arguments satisfy |d| < 2**delta
    B       capacity, and the rebuild period, of the structure
    F       bit width of one packed field (1 guard + 1 bias bit + room
            for the largest offset)
    run_gap override for the run-splitting threshold; defaults to
            B * 2**delta and may only be lowered

    The field defaults (w=64, B=8) describe one 64-bit word pair; the
    package default is :data:`DEFAULT_CONFIG`.

    The paper sizes a node by the word: B entries of F bits fill a pair
    of w-bit words, and a SumTree over s entries is about log s / log B
    levels deep, so each op costs O(log s / log(w/delta)).  Only the
    budget below limits w here, as the arithmetic runs on Python ints of
    any size; the default takes the narrowest word past which a wider
    node stopped paying.  Each SumTree level an op walks costs a fixed
    amount of interpreter work, and a PackedSums op on a 1152-bit int
    costs about what one on a 256-bit int costs, so fewer, wider levels
    are faster: at B=64 the 47,427-entry edit-dna tree is 3 levels deep,
    at B=16 it is 5, and its edit and read medians fell 8-13% in process.
    At B=128 (w=1280, F=20) neither median fell below B=64's.  With
    delta=2 and B=64 the budget is 2*B^2*2^delta = 32,768, so the bias
    2^(F-2) must exceed it: F=17 gives exactly 2^15 and fails, F=18
    (bias 2^16) is the narrowest field, and B*F = 1152 = 2w for w=576.
    The bound's form, O(log s / log(w/delta)), is unchanged: w/delta
    grows by a constant factor.
    """

    w: int = 64
    delta: int = 2
    B: int = 8
    F: int = 16
    run_gap: int | None = None

    def __post_init__(self):
        if self.B < 1:
            raise BadConfig("B must be at least 1")
        if self.delta < 1:
            raise BadConfig("delta must be at least 1")
        if self.B * self.F > 2 * self.w:
            raise BadConfig(f"{self.B} fields of {self.F} bits exceed two "
                            f"{self.w}-bit words")
        # An offset is the sum of the entries after its run's head up to
        # its own, so it lies in [0, M], M the summed value of all
        # non-heads.  Let k be the number of non-heads (at most B - 1, as
        # slot 1 heads) and P = M - k*gap.  A packing makes every non-head
        # at most the gap: P <= 0.  Each of the at most B ops before the
        # next packing raises P by at most max(gap, 2**delta):
        # - update adds below 2**delta to one entry;
        # - insert adds a non-head below 2**delta, or a head, which moves
        #   the rest of a run into its own run and changes neither M nor k;
        # - divide keeps or lowers P: each entry it leaves a non-head is
        #   at most the gap;
        # - merge and delete take at most one non-head out of k and add
        #   nothing to M (delete's new head is the non-head after a
        #   removed head, whose value leaves M).
        # So M <= (B-1)*gap + B*max(gap, 2**delta), below 2*B^2*2^delta as
        # gap <= B*2^delta.  Below the bias, every biased field stays in
        # [bias, guard): no packed add carries or borrows across a field,
        # and no write needs a check.
        if self.bias <= 2 * self.B * self.B * (1 << self.delta):
            raise BadConfig(f"F={self.F} too narrow for B={self.B}, "
                            f"delta={self.delta}")
        if self.run_gap is not None and not 0 <= self.run_gap <= self.B << self.delta:
            raise BadConfig("run_gap must lie in [0, B * 2**delta]")

    @property
    def gap(self) -> int:
        return self.run_gap if self.run_gap is not None else self.B << self.delta

    @property
    def bias(self) -> int:
        return 1 << (self.F - 2)

    @property
    def guard(self) -> int:
        return 1 << (self.F - 1)

    @property
    def field_mask(self) -> int:
        return (1 << self.F) - 1

    @cached_property
    def _geometry(self) -> tuple:
        """(F, field_mask, bias, guard, gap), computed once per config."""
        return self.F, self.field_mask, self.bias, self.guard, self.gap


# Sixty-four 18-bit fields in a simulated 576-bit word pair: the budget
# check holds (2 * B^2 * 2^delta = 32,768 < bias = 2^16), and the fanout
# keeps a SumTree over 2^17 entries three levels deep (five at B=16) and
# one over 2^20 four (six at B=16); the PsConfig docstring argues the word
DEFAULT_CONFIG = PsConfig(w=576, B=64, F=18)


class PackedSums:
    """Dynamic partial sums over at most cfg.B nonnegative entries.

    Public state mirrors made available for tests and debugging:
    ``representatives`` (run anchor values), ``offsets`` (per-entry
    distance from its anchor), ``run_flags`` (run-head bits), and
    ``run_prefix_counts`` (how many run heads at or before each entry).
    """

    __slots__ = ("cfg", "_F", "_mask", "_bias", "_guard", "_gap",
                 "_n", "_reps", "_u", "_bits", "ops_since_rebuild", "rebuilds")

    # an exact anchor never misleads a search, so none falls back to a
    # repack; the counter stays for the readers of PackedSums statistics
    search_fallbacks = 0

    def __init__(self, values=(), *, config: PsConfig | None = None):
        cfg = self.cfg = config if config is not None else DEFAULT_CONFIG
        # the geometry as plain ints, read on every hot path
        self._F, self._mask, self._bias, self._guard, self._gap = cfg._geometry
        vals = list(map(index, values))
        for v in vals:
            if v < 0:
                raise NegativeEntry(f"entry value {v} is negative")
        if len(vals) > cfg.B:
            raise StructureFull(f"{len(vals)} entries exceed capacity {cfg.B}")
        self.rebuilds = 0
        self._pack(accumulate(vals))

    @classmethod
    def _of_sums(cls, ys: list, config: PsConfig) -> "PackedSums":
        """What the constructor makes of the differences of ys, nondecreasing
        prefix sums from at least 0, without its checks."""
        ps = cls.__new__(cls)
        ps.cfg = config
        ps._F, ps._mask, ps._bias, ps._guard, ps._gap = config._geometry
        ps.rebuilds = 0
        ps._pack(ys)
        return ps

    # ---------------------------------------------------------------- loading

    def _pack(self, ys):
        """Canonical packing of the prefix sums ys, an iterable: greedy
        runs, fresh anchors."""
        F, bias, gap = self._F, self._bias, self._gap
        reps = []
        u = bits = y = rep = 0
        p = -1
        for p, x in enumerate(ys):
            if x - y > gap or not p:
                rep = x
                reps.append(x)
                bits |= 1 << p
            u |= (x - rep + bias) << (F * p)
            y = x
        self._n, self._reps, self._u, self._bits = p + 1, reps, u, bits
        self.ops_since_rebuild = 0

    def rebuild(self) -> None:
        """Repack from scratch: recompute runs, anchors and offsets.  When
        every slot heads its run and every entry after the first exceeds
        the gap, as on an internal SumTree level, the packing already is
        the one a repack makes, and only the count restarts."""
        reps, gap = self._reps, self._gap
        if len(reps) == self._n and min(map(sub, reps[1:], reps), default=gap + 1) > gap:
            self.ops_since_rebuild = 0
        else:
            self._pack(self.prefix_sums())
        self.rebuilds += 1

    # ---------------------------------------------------------------- queries

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"PackedSums({self.values()!r})"

    @property
    def total(self) -> int:
        # _sum(n), whose last slot is in the last run
        n = self._n
        if not n:
            return 0
        return self._reps[-1] + ((self._u >> (self._F * (n - 1))) & self._mask) - self._bias

    def sum(self, i: int) -> int:
        """Y[i] = Z[1] + ... + Z[i]."""
        if not 1 <= i <= self._n:
            raise IndexOutOfRange(f"sum index {i} outside [1, {self._n}]")
        return self._sum(i)

    def _sum(self, i: int) -> int:
        if i == 0:
            return 0
        p = i - 1
        return (self._reps[self._run(p) - 1]
                + ((self._u >> (self._F * p)) & self._mask) - self._bias)

    def search(self, t: int) -> int:
        """Smallest i with sum(i) >= t, for 1 <= t <= total."""
        return self.find(t)[0]

    def find(self, t: int) -> tuple[int, int]:
        """(i, sum(i - 1)) for the smallest i with sum(i) >= t, for
        1 <= t <= total: the answer and the prefix sum before it."""
        t = index(t)
        if self._n == 0 or not 1 <= t <= self._sum(self._n):
            raise SearchOutOfRange(f"search target {t} outside [1, total]")
        return self._find(t)

    def _find(self, t: int) -> tuple[int, int]:
        """find for a caller that already knows 1 <= t <= total, such as a
        SumTree walk, where the parent's entry bounds t."""
        reps = self._reps
        # heads of runs 1..r sum below t, the head of run r + 1 reaches it
        r = bisect_left(reps, t)
        if r == 0:
            return 1, 0
        n = self._n
        if len(reps) == n:
            return r + 1, reps[r - 1]
        F, mask, bias, u = self._F, self._mask, self._bias, self._u
        # run r's head slot s and last slot e (_head and _run_end, inline)
        rep, s = reps[r - 1], self._head(r) if r > 1 else 0
        later = self._bits >> (s + 1)
        e = n - 1 if not later else s + (later & -later).bit_length() - 1
        # the first of run r's slots s+1..e whose sum reaches t, else the
        # head after e; a field reaches t when it is >= tau
        tau = t - rep + bias
        k = None
        if e > s and tau < self._guard:
            k = _first_ge((u >> (F * (s + 1))) & ((1 << (F * (e - s))) - 1), e - s, tau, F)
        j = e + 1 if k is None else s + 1 + k
        return j + 1, rep + ((u >> (F * (j - 1))) & mask) - bias

    def values(self) -> list:
        """Current entry values Z[1..n]."""
        ys = self.prefix_sums()
        return [y - x for x, y in zip([0] + ys, ys)]

    def prefix_sums(self) -> list:
        """Y[1..n], decoded field by field: each head bit starts the next
        anchor."""
        F, mask, bits, u = self._F, self._mask, self._bits, self._u
        reps = iter(self._reps)
        out, rep = [], 0
        for _ in range(self._n):
            if bits & 1:
                rep = next(reps) - self._bias
            out.append(rep + (u & mask))
            u >>= F
            bits >>= 1
        return out

    @property
    def representatives(self) -> list:
        return list(self._reps)

    @property
    def offsets(self) -> list:
        return [self._u_field(p) - self._bias for p in range(self._n)]

    @property
    def run_flags(self) -> list:
        return [(self._bits >> p) & 1 for p in range(self._n)]

    @property
    def run_prefix_counts(self) -> list:
        return [self._run(p) for p in range(self._n)]

    # ------------------------------------------------------------------- runs

    def _run(self, p):
        """Run (1-based) of slot p: the head bits at or below p."""
        return (self._bits & ((2 << p) - 1)).bit_count()

    def _head(self, r):
        """Head slot of run r: the lowest head bit once r - 1 are cleared."""
        bits = self._bits
        for _ in range(r - 1):
            bits &= bits - 1
        return (bits & -bits).bit_length() - 1

    def _run_end(self, p):
        """Last slot of the run holding slot p: before the next head bit."""
        later = self._bits >> (p + 1)
        return self._n - 1 if not later else p + (later & -later).bit_length() - 1

    # ---------------------------------------------------- packed word surgery

    def _u_field(self, p):
        return (self._u >> (self._F * p)) & self._mask

    def _range_add(self, lo, hi, d):
        """Add d to the offset fields of slots lo..hi (inclusive).  The
        offset bound of PsConfig keeps every field in [bias, guard), so
        no carry or borrow crosses a field."""
        if lo <= hi:
            self._u += d * (_ones(self._F, hi - lo + 1) << (self._F * lo))

    def _slot_remove(self, p):
        """Drop slot p: its offset field and its head bit."""
        sh = self._F * p
        u, bits = self._u, self._bits
        self._u = (u & ((1 << sh) - 1)) | ((u >> (sh + self._F)) << sh)
        self._bits = (bits & ((1 << p) - 1)) | ((bits >> (p + 1)) << p)
        self._n -= 1

    # --------------------------------------------------------------- mutators

    def _finish(self):
        """Count the op, and repack every B ops: that bounds the offsets."""
        self.ops_since_rebuild += 1
        if self.ops_since_rebuild >= self.cfg.B:
            self.rebuild()

    def update(self, i: int, d: int) -> None:
        """Z[i] += d; shifts every later prefix sum by d."""
        d = index(d)
        if not 1 <= i <= self._n:
            raise IndexOutOfRange(f"update index {i} outside [1, {self._n}]")
        if abs(d) >= 1 << self.cfg.delta:
            raise DeltaTooLarge(f"|{d}| >= 2**{self.cfg.delta}")
        if d < 0 and self._sum(i) - self._sum(i - 1) + d < 0:
            raise NegativeEntry(f"entry {i} would fall below zero")
        self._shift(i, d)

    def _shift(self, i: int, d: int) -> None:
        """update for a caller that keeps Z[i] + d nonnegative and bounds d,
        as a SumTree level above an entry whose own op checked d, or needs
        no bound: at a head only anchors move, and d < 0 at the last slot
        lowers that one field, as a SumTree merge across nodes shifts."""
        p, reps = i - 1, self._reps
        if len(reps) == self._n:
            # every slot heads its own run, as on an internal SumTree level:
            # the anchors from slot p's on move, and no offset does
            for p in range(p, len(reps)):
                reps[p] += d
        else:
            # at a head the whole run moves with its anchor; elsewhere slots
            # p.. of the run move, and the anchors after it
            head = (self._bits >> p) & 1
            if not head:
                self._range_add(p, self._run_end(p), d)
            q = self._run(p) - head
            reps[q:] = [x + d for x in reps[q:]]
        self._finish()

    def divide(self, i: int, t: int) -> None:
        """Split entry i of value v into consecutive entries (t, v - t),
        by the one divide rule of the module docstring."""
        n = self._n
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"divide index {i} outside [1, {n}]")
        F, mask, bias, gap = self._F, self._mask, self._bias, self._gap
        u, bits, reps = self._u, self._bits, self._reps
        # slot p is in run q and slot p - 1 in run q - head (_run and _sum,
        # inline, as are _run_end, _range_add and the slot insert below)
        p = i - 1
        sh = F * p
        q = (bits & ((2 << p) - 1)).bit_count()
        head = (bits >> p) & 1
        y_i = reps[q - 1] + ((u >> sh) & mask) - bias
        y_before = reps[q - 1 - head] + ((u >> (sh - F)) & mask) - bias if p else 0
        v = y_i - y_before
        if not 0 <= t <= v:
            raise BadSplit(f"split point {t} outside [0, {v}]")
        y_new = y_before + index(t)  # a float t raises here, before any write
        if n >= self.cfg.B:
            raise StructureFull(f"capacity {self.cfg.B} reached")
        cut_left = not p or t > gap
        cut_mid = v - t > gap
        # a headless entry i stays in run q, or joins run q - 1 if it headed q
        a_i = y_new if cut_left else reps[q - 1 - head]
        a_next = y_i if cut_mid else a_i
        if cut_left or cut_mid or head:
            # the rest of run q, old slots p + 1 .. e, moves onto a_next;
            # else both entries stay in run q and no anchor or offset moves
            later = bits >> (p + 1)
            e = n - 1 if not later else p + (later & -later).bit_length() - 1
            if e > p:
                u += (reps[q - 1] - a_next) * (_ones(F, e - p) << (sh + F))
            reps[q - head:q] = [y_new] * cut_left + [y_i] * cut_mid
        # slot p's new field, the new slot p + 1, and the old slots above
        hi = sh + F
        self._u = ((u & ((1 << sh) - 1)) | ((y_new - a_i + bias) << sh)
                   | ((y_i - a_next + bias) << hi) | ((u >> hi) << (hi + F)))
        self._bits = ((bits & ((1 << p) - 1)) | (cut_left << p) | (cut_mid << (p + 1))
                      | ((bits >> (p + 1)) << (p + 2)))
        self._n = n + 1
        self._finish()

    def merge(self, i: int) -> None:
        """Fuse entries i and i+1 into one entry of their summed value."""
        if not 1 <= i < self._n:
            raise IndexOutOfRange(f"merge index {i} outside [1, {self._n - 1}]")
        p = i - 1
        b1 = (self._bits >> p) & 1
        if b1 and not (self._bits >> (p + 1)) & 1:
            # i heads the run i+1 continues: re-anchor it at Y[i+1] and
            # shift the rest of the run down by Z[i+1]
            z = self._u_field(p + 1) - self._bias
            self._slot_remove(p + 1)
            self._reps[self._run(p) - 1] += z
            self._range_add(p + 1, self._run_end(p), -z)
        else:
            if b1:
                # i was a singleton run; the merged entry inherits i+1's head
                self._reps.pop(self._run(p) - 1)
            # dropping i's slot leaves i+1's field, and head bit, in place
            self._slot_remove(p)
        self._finish()

    def insert(self, i: int, d: int) -> None:
        """Insert a new entry of value d at position i (old i shifts right).

        The new entry heads a run iff i = 1 or d exceeds the run gap; every
        other entry keeps its head bit.  A new head is anchored at its own
        prefix sum and takes over the rest of the run before it; a new
        non-head joins that run, whose later slots move up by d."""
        d = index(d)
        if not 0 <= d < 1 << self.cfg.delta:
            raise DeltaTooLarge(f"insert value {d} outside [0, 2**{self.cfg.delta})")
        n = self._n
        if n >= self.cfg.B:
            raise StructureFull(f"capacity {self.cfg.B} reached")
        if not 1 <= i <= n + 1:
            raise IndexOutOfRange(f"insert index {i} outside [1, {n + 1}]")
        F, bias, u, bits, reps = self._F, self._bias, self._u, self._bits, self._reps
        p = i - 1
        sh = F * p
        # run q holds slot p - 1, at offset off, and ends at old slot e;
        # y is Y[i - 1] (_run, _u_field and _run_end, inline)
        q = off = y = 0
        e = -1
        if p:
            q = (bits & ((1 << p) - 1)).bit_count()
            off = ((u >> (sh - F)) & self._mask) - bias
            later = bits >> p
            e = n - 1 if not later else p + (later & -later).bit_length() - 2
            y = reps[q - 1] + off
        head = not p or d > self._gap
        # a new head takes slots p..e off run q's anchor onto its own; a
        # new non-head moves them up by d
        if e >= p:
            u += (-off if head else d) * (_ones(F, e - p + 1) << sh)
        raw = bias if head else off + d + bias
        self._u = (u & ((1 << sh) - 1)) | (raw << sh) | ((u >> sh) << (sh + F))
        self._bits = (bits & ((1 << p) - 1)) | (head << p) | ((bits >> p) << (p + 1))
        self._n = n + 1
        reps[q:] = [y + d] * head + [x + d for x in reps[q:]]
        self._finish()

    def delete(self, i: int) -> None:
        """Remove entry i; its value must fit one delta-bounded update.

        A removed non-head takes its value off the rest of its run; a
        removed head hands its run to the next slot, re-anchored at that
        slot's new prefix sum, or takes its anchor along if it ran alone."""
        n = self._n
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"delete index {i} outside [1, {n}]")
        F, mask, bias = self._F, self._mask, self._bias
        u, bits, reps = self._u, self._bits, self._reps
        # slot p is in run q, which ends at slot e (_run, _sum and
        # _run_end, inline, as in divide)
        p = i - 1
        sh = F * p
        q = (bits & ((2 << p) - 1)).bit_count()
        head = (bits >> p) & 1
        y_i = reps[q - 1] + ((u >> sh) & mask) - bias
        v = y_i - (reps[q - 1 - head] + ((u >> (sh - F)) & mask) - bias if p else 0)
        if v >= 1 << self.cfg.delta:
            raise DeleteTooLarge(f"entry value {v} >= 2**{self.cfg.delta}")
        later = bits >> (p + 1)
        e = n - 1 if not later else p + (later & -later).bit_length() - 1
        if not head:
            # the rest of the run, slots p + 1 .. e, loses v
            delta = -v
            reps[q:] = [x - v for x in reps[q:]]
        elif e > p:
            # slot p + 1, of value z, heads the run: its anchor is Y[i + 1] - v
            z = ((u >> (sh + F)) & mask) - bias
            delta = -z
            reps[q - 1:] = [reps[q - 1] + z - v] + [x - v for x in reps[q:]]
        else:
            delta = 0
            reps[q - 1:] = [x - v for x in reps[q:]]
        if e > p:
            u += delta * (_ones(F, e - p) << (sh + F))
        # drop slot p; a removed head hands its bit to the slot after it
        self._u = (u & ((1 << sh) - 1)) | ((u >> (sh + F)) << sh)
        self._bits = ((bits & ((1 << p) - 1)) | ((bits >> (p + 1)) << p)
                      | (head and e > p) << p)
        self._n = n - 1
        self._finish()

    # -------------------------------------------------------------- validation

    def validate(self) -> None:
        """Full structural self-check; raises AssertionError on any breach."""
        n, cfg, reps = self._n, self.cfg, self._reps
        assert self._u >> (cfg.F * n) == 0, "stray offset bits past count"
        assert self._bits >> n == 0, "stray head bits past count"
        assert len(reps) == self._bits.bit_count(), "anchor/head mismatch"
        if n:
            assert self._bits & 1, "first entry must head a run"
        # one pass over the fields: Y[p + 1] is the anchor of slot p's run
        # (the heads at or below p) plus p's offset, as _sum reads it
        F, mask, bias, bits, u = self._F, self._mask, self._bias, self._bits, self._u
        ys, r = [0], 0
        for p in range(n):
            f = (u >> (F * p)) & mask
            assert 0 < f < self._guard, f"offset field {p} out of range"
            if (bits >> p) & 1:
                assert f == bias, f"head {p} is not at its anchor"
                r += 1
            ys.append(reps[r - 1] + f - bias)
        assert all(map(le, reps, islice(reps, 1, None))), "anchors decrease"
        assert all(map(le, ys, islice(ys, 1, None))), "prefix sums must be nondecreasing"
        assert self.ops_since_rebuild < cfg.B, "rebuild counter overdue"
