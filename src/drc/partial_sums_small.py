"""Word-packed dynamic partial sums over a short sequence.

Maintains nonnegative entries Z[1..n], n <= B, under prefix-sum queries
(``sum``, ``search``, and ``find``, a search that also returns the prefix
before its answer) and five local edits (``update``, ``divide``,
``merge``, ``insert``, ``delete``).  Instead of storing prefix sums
outright, consecutive sums are grouped into *runs*: a new run starts
wherever one entry exceeds the run gap, each run is anchored by a
representative value, and every sum is kept as a small offset from its
run's anchor.  The offsets are bit fields packed into a Python int sized
like a machine word, so a whole-suffix shift is one multiply-add and an
intra-run search is one guarded subtraction (SIMD within a register).
Each run is one head bit: a slot's run is the popcount of the head bits
at or below it, and a run's head slot is a select over them.

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

``divide`` follows one rule.  The new entry i heads a run iff i = 1 or
its value exceeds the run gap, and the new entry i+1 iff its own value
does; each new head is anchored at its own prefix sum, the anchor of a
run that entry i headed is dropped, and the rest of the old run shifts
onto the anchor of i+1's run.  Every packed field it will write is
checked before the first write, so an overflow leaves the state as it
was and the edit falls back to a rebuild.

A search is one pass, with no per-run helper call, over at most three
candidate runs: the run holding t's successor anchor and its two
neighbors.  The first candidate's head slot is r - 1 when every entry
heads its own run (as on every internal SumTree level, whose entries
exceed the gap), else one select over the head bits; a one-entry run is
one field comparison, a longer one a packed comparison (``_first_ge``).

Anchors drift as edits land between rebuilds, so queries verify their
answers and fall back to an immediate rebuild when a stale anchor
misleads them; the structure is rebuilt from scratch every B edits
regardless.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice
from operator import le, lt

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


class _Overflow(Exception):
    """Internal: a packed write would not fit its field."""


@dataclass(frozen=True)
class PsConfig:
    """Packing geometry for one PackedSums instance.

    w       simulated machine word width in bits (budget check only;
            the arithmetic itself runs on Python ints of any size)
    delta   update/insert arguments satisfy |d| < 2**delta
    B       capacity, and the rebuild period, of the structure
    F       bit width of one packed field (1 guard + 1 sign-ish bias bit
            + room for the largest offset plus drift)
    run_gap override for the run-splitting threshold; defaults to
            B * 2**delta and may only be lowered

    The field defaults (w=64, B=8) describe one 64-bit word pair; the
    package default is :data:`DEFAULT_CONFIG`.
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
        # Worst-case |offset|: canonical span (B-1)*gap plus drift from B
        # delta-bounded edits and divide-time anchor reuse; 2*B^2*2^delta
        # bounds both with room to spare.
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


# Sixteen 16-bit fields in a simulated 128-bit word pair: the budget check
# holds (2 * B^2 * 2^delta = 2048 < bias = 2^14), and the wider fanout keeps
# a SumTree over ~50k entries four levels deep instead of six.
DEFAULT_CONFIG = PsConfig(w=128, B=16)


class PackedSums:
    """Dynamic partial sums over at most cfg.B nonnegative entries.

    Public state mirrors made available for tests and debugging:
    ``representatives`` (run anchor values), ``offsets`` (per-entry
    distance from its anchor), ``run_flags`` (run-head bits), and
    ``run_prefix_counts`` (how many run heads at or before each entry).
    """

    __slots__ = ("cfg", "_F", "_mask", "_bias", "_guard", "_gap",
                 "_n", "_reps", "_u", "_bits",
                 "ops_since_rebuild", "rebuilds", "search_fallbacks")

    def __init__(self, values=(), *, config: PsConfig | None = None):
        cfg = self.cfg = config if config is not None else DEFAULT_CONFIG
        # the geometry as plain ints, read on every hot path
        self._F, self._mask, self._bias = cfg.F, cfg.field_mask, cfg.bias
        self._guard, self._gap = cfg.guard, cfg.gap
        vals = [int(v) for v in values]
        for v in vals:
            if v < 0:
                raise NegativeEntry(f"entry value {v} is negative")
        if len(vals) > cfg.B:
            raise StructureFull(f"{len(vals)} entries exceed capacity {cfg.B}")
        self.rebuilds = 0
        self.search_fallbacks = 0
        self._load(vals)

    # ---------------------------------------------------------------- loading

    def _load(self, vals):
        """Canonical packing of the given values: greedy runs, fresh anchors."""
        F, bias, gap = self._F, self._bias, self._gap
        self._n = len(vals)
        self._reps = []
        u = bits = 0
        y = rep = 0
        for p, z in enumerate(vals):
            y += z
            if p == 0 or z > gap:
                rep = y
                self._reps.append(y)
                bits |= 1 << p
            u |= (y - rep + bias) << (F * p)
        self._u, self._bits = u, bits
        self.ops_since_rebuild = 0

    def rebuild(self) -> None:
        """Repack from scratch: recompute runs, anchors and offsets."""
        self._repack(self.values())

    def _repack(self, vals) -> None:
        """Load ``vals`` afresh, counted as a rebuild."""
        self._load(vals)
        self.rebuilds += 1

    # ---------------------------------------------------------------- queries

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"PackedSums({self.values()!r})"

    @property
    def total(self) -> int:
        return self._sum(self._n)

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
        1 <= t <= total: the answer and the prefix that verified it."""
        if self._n == 0 or not 1 <= t <= self._sum(self._n):
            raise SearchOutOfRange(f"search target {t} outside [1, total]")
        return self._find(t)

    def _find(self, t: int) -> tuple[int, int]:
        """find for a caller that already knows 1 <= t <= total, such as a
        SumTree walk, where the parent's entry bounds t."""
        found = self._search(t)
        if found is None:
            # A stale anchor pushed the answer outside the inspected runs;
            # repacking makes the three-run window argument exact.
            self.search_fallbacks += 1
            self.rebuild()
            found = self._search(t)
            if found is None:
                raise AssertionError("search window missed on a fresh packing")
        return found

    def _search(self, t: int):
        # Candidate runs: the one holding the successor anchor of t plus
        # its two neighbors.  Answers are verified before being trusted.
        # The first candidate's head slot is r - 1 when every entry heads
        # its own run, else a select over the head bits; each later run
        # starts at the next head bit.
        reps, bits, n, u = self._reps, self._bits, self._n, self._u
        F, mask, bias = self._F, self._mask, self._bias
        r0 = bisect_left(reps, t)
        r, last = max(1, r0), min(len(reps), r0 + 2)
        s0 = r - 1 if len(reps) == n else self._head(r)
        while True:
            later = bits >> (s0 + 1)
            e0 = n - 1 if not later else s0 + (later & -later).bit_length() - 1
            # one packed comparison finds the run's first slot whose sum
            # is >= t; tau <= 1 means the head's, tau >= guard none
            tau = t - reps[r - 1] + bias
            if tau <= 1:
                j = s0 + 1
            elif tau >= self._guard:
                j = None
            elif e0 == s0:
                j = s0 + 1 if (u >> (F * s0)) & mask >= tau else None
            else:
                m = e0 - s0 + 1
                k = _first_ge((u >> (F * s0)) & ((1 << (F * m)) - 1), m, tau, F)
                j = None if k is None else s0 + k + 1
            # the slot before j, j - 2, is in this run unless j heads it
            if j is not None:
                q = j - 2
                before = 0 if q < 0 else (reps[r - 1 - (q < s0)]
                                          + ((u >> (F * q)) & mask) - bias)
                if before < t:
                    return j, before
            if r >= last:
                return None
            r, s0 = r + 1, e0 + 1

    def values(self) -> list:
        """Current entry values Z[1..n]."""
        ys = self.prefix_sums()
        return [y - x for x, y in zip([0] + ys, ys)]

    def prefix_sums(self) -> list:
        F, mask, bias, reps, u = self._F, self._mask, self._bias, self._reps, self._u
        return [reps[r - 1] + ((u >> p) & mask) - bias
                for p, r in zip(range(0, F * self._n, F), accumulate(self.run_flags))]

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

    def _u_set(self, p, raw):
        sh = self._F * p
        self._u = (self._u & ~(self._mask << sh)) | (raw << sh)

    def _range_add(self, lo, hi, d):
        """Add d to biased offset fields lo..hi (slots, inclusive).  Raises
        _Overflow, before writing anything, if a field would leave
        (0, guard)."""
        if d == 0 or lo > hi:
            return
        F, guard = self._F, self._guard
        if not -guard < d < guard:
            raise _Overflow
        pattern = _ones(F, hi - lo + 1) << (F * lo)
        heads = pattern << (F - 1)
        u = self._u
        # Fields start inside (0, guard) and |d| < guard, so no carry or
        # borrow crosses a field: a head bit tells each field's fate.
        if d > 0:
            u += d * pattern
            if u & heads:
                raise _Overflow
        else:
            # a field f survives exactly when f >= 1 - d
            if ((u | heads) - (1 - d) * pattern) & heads != heads:
                raise _Overflow
            u -= -d * pattern
        self._u = u

    def _slot_insert(self, p, raw, head):
        """Insert slot p: offset field raw, and a head bit iff head."""
        sh = self._F * p
        u, bits = self._u, self._bits
        self._u = (u & ((1 << sh) - 1)) | (raw << sh) | ((u >> sh) << (sh + self._F))
        self._bits = (bits & ((1 << p) - 1)) | (head << p) | ((bits >> p) << (p + 1))
        self._n += 1

    def _slot_remove(self, p):
        """Drop slot p: its offset field and its head bit."""
        sh = self._F * p
        u, bits = self._u, self._bits
        self._u = (u & ((1 << sh) - 1)) | ((u >> (sh + self._F)) << sh)
        self._bits = (bits & ((1 << p) - 1)) | ((bits >> (p + 1)) << p)
        self._n -= 1

    # --------------------------------------------------------------- mutators

    def _finish(self):
        """Post-edit bookkeeping: periodic repack, and a repack when an
        update left an anchor at or above the next one.  Offsets need no
        check here: every writer refuses a value outside (0, guard)."""
        self.ops_since_rebuild += 1
        reps = self._reps
        if (self.ops_since_rebuild >= self.cfg.B
                or not all(map(lt, reps, islice(reps, 1, None)))):
            self.rebuild()

    def update(self, i: int, d: int) -> None:
        """Z[i] += d; shifts every later prefix sum by d."""
        if not 1 <= i <= self._n:
            raise IndexOutOfRange(f"update index {i} outside [1, {self._n}]")
        if abs(d) >= 1 << self.cfg.delta:
            raise DeltaTooLarge(f"|{d}| >= 2**{self.cfg.delta}")
        if d < 0 and self._sum(i) - self._sum(i - 1) + d < 0:
            raise NegativeEntry(f"entry {i} would fall below zero")
        p = i - 1
        try:
            self._range_add(p, self._run_end(p), d)
        except _Overflow:
            # _range_add refuses before it writes: the state is untouched
            vals = self.values()
            vals[p] += d
            self._repack(vals)
            return
        q = self._run(p)
        reps = self._reps
        for k in range(q, len(reps)):
            reps[k] += d
        self._finish()

    def divide(self, i: int, t: int) -> None:
        """Split entry i of value v into consecutive entries (t, v - t)."""
        if not 1 <= i <= self._n:
            raise IndexOutOfRange(f"divide index {i} outside [1, {self._n}]")
        y_i = self._sum(i)
        v = y_i - self._sum(i - 1)
        if not 0 <= t <= v:
            raise BadSplit(f"split point {t} outside [0, {v}]")
        if self._n >= self.cfg.B:
            raise StructureFull(f"capacity {self.cfg.B} reached")
        try:
            self._divide_fast(i, t, v, y_i)
        except _Overflow:
            # _divide_fast refuses before it writes: the state is untouched
            vals = self.values()
            vals[i - 1:i] = [t, v - t]
            self._repack(vals)
            return
        self._finish()

    def _divide_fast(self, i, t, v, y_i):
        """The one divide rule of the module docstring.  Raises _Overflow,
        before writing anything, if a field would leave (0, guard)."""
        bias, gap = self._bias, self._gap
        p = i - 1
        q = self._run(p)
        reps = self._reps
        rep_q = reps[q - 1]
        head = (self._bits >> p) & 1
        y_new = y_i - v + t
        cut_left = i == 1 or t > gap
        cut_mid = v - t > gap
        # a headless entry i stays in run q, or joins run q - 1 if it headed q
        a_i = y_new if cut_left else reps[q - 1 - head]
        a_next = y_i if cut_mid else a_i
        raw_i, raw_next = y_new - a_i + bias, y_i - a_next + bias
        if not (0 < raw_i < self._guard and 0 < raw_next < self._guard):
            raise _Overflow
        # the first write, which refuses before it writes; the rest fit
        self._range_add(p + 1, self._run_end(p), rep_q - a_next)
        reps[q - head:q] = [y_new] * cut_left + [y_i] * cut_mid
        self._u_set(p, raw_i)
        self._bits ^= (head ^ cut_left) << p
        self._slot_insert(p + 1, raw_next, cut_mid)

    def merge(self, i: int) -> None:
        """Fuse entries i and i+1 into one entry of their summed value."""
        if not 1 <= i < self._n:
            raise IndexOutOfRange(f"merge index {i} outside [1, {self._n - 1}]")
        p = i - 1
        b1 = (self._bits >> p) & 1
        b2 = (self._bits >> (p + 1)) & 1
        if b1 and b2:
            # i was a singleton run; the merged entry inherits i+1's head
            self._reps.pop(self._run(p) - 1)
            self._slot_remove(p)
        elif b1:
            # keep i's head bit, adopt i+1's offset (same anchor, Y[i+1])
            self._u_set(p, self._u_field(p + 1))
            self._slot_remove(p + 1)
        else:
            # i sat mid-run: dropping its slot leaves i+1's field in place
            self._slot_remove(p)
        self._finish()

    def insert(self, i: int, d: int) -> None:
        """Insert a new entry of value d at position i (old i shifts right)."""
        if not 0 <= d < 1 << self.cfg.delta:
            raise DeltaTooLarge(f"insert value {d} outside [0, 2**{self.cfg.delta})")
        if self._n >= self.cfg.B:
            raise StructureFull(f"capacity {self.cfg.B} reached")
        if not 1 <= i <= self._n + 1:
            raise IndexOutOfRange(f"insert index {i} outside [1, {self._n + 1}]")
        if self._n == 0:
            self._load([d])
            self._finish()
            return
        if i <= self._n:
            self.divide(i, 0)
            self.update(i, d)
        else:
            last = self._sum(self._n) - self._sum(self._n - 1)
            self.divide(self._n, last)
            # divide already grew the sequence; the fresh zero is the tail
            self.update(self._n, d)

    def delete(self, i: int) -> None:
        """Remove entry i; its value must fit one delta-bounded update."""
        if not 1 <= i <= self._n:
            raise IndexOutOfRange(f"delete index {i} outside [1, {self._n}]")
        v = self._sum(i) - self._sum(i - 1)
        if v >= 1 << self.cfg.delta:
            raise DeleteTooLarge(f"entry value {v} >= 2**{self.cfg.delta}")
        self.update(i, -v)
        if self._n == 1:
            self._load([])
        elif i < self._n:
            self.merge(i)
        else:
            self.merge(i - 1)

    # -------------------------------------------------------------- validation

    def validate(self) -> None:
        """Full structural self-check; raises AssertionError on any breach."""
        n, cfg, reps = self._n, self.cfg, self._reps
        assert self._u >> (cfg.F * n) == 0, "stray offset bits past count"
        assert self._bits >> n == 0, "stray head bits past count"
        assert len(reps) == self._bits.bit_count(), "anchor/head mismatch"
        if n:
            assert self._bits & 1, "first entry must head a run"
        for p in range(n):
            assert 0 < self._u_field(p) < cfg.guard, f"offset field {p} out of range"
        assert all(map(lt, reps, islice(reps, 1, None))), "anchors not increasing"
        ys = [self._sum(i) for i in range(n + 1)]
        assert all(map(le, ys, islice(ys, 1, None))), "prefix sums must be nondecreasing"
        assert self.ops_since_rebuild < cfg.B, "rebuild counter overdue"
