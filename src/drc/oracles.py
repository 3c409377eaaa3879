"""Brute-force reference implementations.

Everything in here is a definitional transcription: plain lists, plain
scans, no cleverness.  The real structures are tested by agreement with
these, so none of this may import from the modules it checks.  Shipped
as a module (not hidden in the test tree) so documented examples stay
reproducible.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from operator import index

from .errors import (
    BadSplit,
    DeleteTooLarge,
    DeltaTooLarge,
    IndexOutOfRange,
    InvalidBlock,
    NegativeEntry,
    SearchOutOfRange,
    StructureFull,
)


class NaivePartialSums:
    """Plain-list partial sums with the same seven-operation contract.

    ``capacity`` / ``delta`` default to None / 2; capacity is only
    enforced when given, so the same oracle serves the fixed-size packed
    structure and the unbounded tree.
    """

    def __init__(self, values=(), *, capacity=None, delta=2):
        self.z = [int(v) for v in values]
        for v in self.z:
            if v < 0:
                raise NegativeEntry(f"entry value {v} is negative")
        self.capacity = capacity
        self.delta = delta
        self._cs = None  # cached prefix sums; None after any mutation
        if capacity is not None and len(self.z) > capacity:
            raise StructureFull(f"{len(self.z)} entries exceed capacity {capacity}")

    def __len__(self):
        return len(self.z)

    def _cumsum(self):
        if self._cs is None:
            self._cs = list(itertools.accumulate(self.z))
        return self._cs

    @property
    def total(self):
        cs = self._cumsum()
        return cs[-1] if cs else 0

    def sum(self, i):
        if not 1 <= i <= len(self.z):
            raise IndexOutOfRange(f"sum index {i} outside [1, {len(self.z)}]")
        return self._cumsum()[i - 1]

    def search(self, t):
        t = index(t)
        if not self.z or not 1 <= t <= self.total:
            raise SearchOutOfRange(f"search target {t} outside [1, total]")
        return bisect_left(self._cumsum(), t) + 1

    def update(self, i, d):
        if not 1 <= i <= len(self.z):
            raise IndexOutOfRange(f"update index {i} outside [1, {len(self.z)}]")
        if abs(d) >= 1 << self.delta:
            raise DeltaTooLarge(f"|{d}| >= 2**{self.delta}")
        if self.z[i - 1] + d < 0:
            raise NegativeEntry(f"entry {i} would fall below zero")
        self.z[i - 1] += d
        self._cs = None

    def divide(self, i, t):
        if not 1 <= i <= len(self.z):
            raise IndexOutOfRange(f"divide index {i} outside [1, {len(self.z)}]")
        v = self.z[i - 1]
        if not 0 <= t <= v:
            raise BadSplit(f"split point {t} outside [0, {v}]")
        if self.capacity is not None and len(self.z) >= self.capacity:
            raise StructureFull(f"capacity {self.capacity} reached")
        self.z[i - 1:i] = [t, v - t]
        self._cs = None

    def merge(self, i):
        if not 1 <= i < len(self.z):
            raise IndexOutOfRange(f"merge index {i} outside [1, {len(self.z) - 1}]")
        self.z[i - 1:i + 1] = [self.z[i - 1] + self.z[i]]
        self._cs = None

    def insert(self, i, d):
        if not 0 <= d < 1 << self.delta:
            raise DeltaTooLarge(f"insert value {d} outside [0, 2**{self.delta})")
        if not 1 <= i <= len(self.z) + 1:
            raise IndexOutOfRange(f"insert index {i} outside [1, {len(self.z) + 1}]")
        if self.capacity is not None and len(self.z) >= self.capacity:
            raise StructureFull(f"capacity {self.capacity} reached")
        self.z.insert(i - 1, d)
        self._cs = None

    def delete(self, i):
        if not 1 <= i <= len(self.z):
            raise IndexOutOfRange(f"delete index {i} outside [1, {len(self.z)}]")
        if self.z[i - 1] >= 1 << self.delta:
            raise DeleteTooLarge(f"entry value {self.z[i - 1]} >= 2**{self.delta}")
        del self.z[i - 1]
        self._cs = None

    def values(self):
        return list(self.z)

    def prefix_sums(self):
        return list(self._cumsum())


def _check_block(r: int, block) -> tuple:
    start, end = block
    if not 1 <= start <= end <= r:
        raise InvalidBlock(f"block ({start}, {end}) outside reference of length {r}")
    return start, end


def naive_substring_concat(ref: bytes, x, y):
    """Start of an occurrence of ref[x]+ref[y] in ref, else None.

    Blocks are 1-based inclusive (start, end) pairs; so is the answer.
    """
    xs, xe = _check_block(len(ref), x)
    ys, ye = _check_block(len(ref), y)
    needle = ref[xs - 1:xe] + ref[ys - 1:ye]
    pos = ref.find(needle)
    return None if pos < 0 else pos + 1


def naive_longest_match(ref: bytes, text: bytes, start: int):
    """Longest prefix of text[start..] occurring in ref: (length, witness).

    start and witness are 1-based; witness is None when the length is 0.
    """
    if not 1 <= start <= len(text):
        raise IndexOutOfRange(f"start {start} outside [1, {len(text)}]")
    limit = len(text) - start + 1
    # Grow the probe geometrically, then bisect between the last hit and
    # the first miss; every probe is one substring scan.
    if ref.find(text[start - 1:start]) < 0:
        return 0, None
    lo = 1
    hi = 2
    while hi <= limit and ref.find(text[start - 1:start - 1 + hi]) >= 0:
        lo = hi
        hi *= 2
    hi = min(hi, limit + 1)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ref.find(text[start - 1:start - 1 + mid]) >= 0:
            lo = mid
        else:
            hi = mid
    return lo, ref.find(text[start - 1:start - 1 + lo]) + 1


def naive_greedy_cover(ref: bytes, src: bytes):
    """Left-to-right greedy cover of src by maximal reference substrings."""
    from .errors import CharNotInReference

    blocks = []
    pos = 1
    while pos <= len(src):
        length, witness = naive_longest_match(ref, src, pos)
        if length == 0:
            raise CharNotInReference(pos, src[pos - 1])
        blocks.append((witness, witness + length - 1))
        pos += length
    return blocks


def naive_maximality_check(ref: bytes, blocks) -> bool:
    """True iff no two adjacent blocks concatenate to a substring of ref."""
    for a, b in zip(blocks, blocks[1:]):
        if naive_substring_concat(ref, a, b) is not None:
            return False
    return True


def naive_decompress(ref: bytes, blocks) -> bytes:
    out = bytearray()
    for block in blocks:
        s, e = _check_block(len(ref), block)
        out += ref[s - 1:e]
    return bytes(out)


def naive_edit_replay(src: bytes, ops):
    """Apply parsed edit ops to a plain byte string.

    ops are tuples: ("A", i), ("X", i, length), ("R", i, byte),
    ("I", i, byte), ("D", i).  Returns (final string, list of query
    results in order).
    """
    s = bytearray(src)
    results = []
    for op in ops:
        verb, i = op[0], op[1]
        if verb == "A":
            if not 1 <= i <= len(s):
                raise IndexOutOfRange(f"access {i} outside [1, {len(s)}]")
            results.append(bytes(s[i - 1:i]))
        elif verb == "X":
            length = op[2]
            if length < 0 or not (1 <= i and i + length - 1 <= len(s)):
                raise IndexOutOfRange(f"extract ({i}, {length}) outside string")
            results.append(bytes(s[i - 1:i - 1 + length]))
        elif verb == "R":
            if not 1 <= i <= len(s):
                raise IndexOutOfRange(f"replace {i} outside [1, {len(s)}]")
            s[i - 1] = op[2]
        elif verb == "I":
            if not 1 <= i <= len(s) + 1:
                raise IndexOutOfRange(f"insert {i} outside [1, {len(s) + 1}]")
            s[i - 1:i - 1] = bytes([op[2]])
        elif verb == "D":
            if not 1 <= i <= len(s):
                raise IndexOutOfRange(f"delete {i} outside [1, {len(s)}]")
            del s[i - 1]
        else:
            raise ValueError(f"unknown verb {verb!r}")
    return bytes(s), results
