"""Maximal-cover compression of one string against a reference.

A source string S is stored as an ordered sequence of reference intervals
(blocks) whose concatenation spells S.  The sequence is *maximal*: no two
adjacent blocks concatenate to a substring of R.  Reads and single-character
edits work directly on this form:

* one SumTree holds the sequence: its entries are the block lengths, so
  position arithmetic (which block holds S[i]) is a ``search`` and a
  ``sum``, and each entry's item is the block itself, reached by ordinal;
* an edit splits the affected block around the edited position and then
  restores maximality inside the at-most-5-block window by querying the
  reference index for adjacent-pair concatenations until a fixpoint
  (:func:`restore_maximal`, shared with the multi-string forest).

A boundary whose concatenation is absent from R can never become present
by merging its neighbors (merging only extends the string being sought),
so the fixpoint loop touches each window boundary O(1) times; per edit it
issues at most 8 concatenation queries and 10 SumTree operations.  Both
counts are instrumented.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, List, Optional, Tuple

from .errors import CharNotInReference, IndexOutOfRange, InvalidBlock
from .partial_sums import SumTree
from .ref_index import RefIndex

__all__ = ["CompressedString", "compress", "restore_maximal"]

Block = Tuple[int, int]  # 1-based inclusive interval of R


def restore_maximal(
    win: List[Block],
    concat: Callable[[Block, Block], Optional[int]],
    merged: Optional[Callable[[int, Block], None]] = None,
) -> List[Block]:
    """Merge adjacent pairs of a block window, in place, while their
    concatenation occurs in R, and return the window.

    Every boundary starts dirty and the lowest dirty one is queried first.
    ``concat`` answers one concatenation query; ``merged(k, blk)`` is told
    each merge of window slots k and k + 1 (0-based) into ``blk``.
    """
    dirty = [True] * (len(win) - 1)
    while True:
        try:
            k = dirty.index(True)
        except ValueError:
            return win
        dirty[k] = False
        pos = concat(win[k], win[k + 1])
        if pos is None:
            continue
        s1, e1 = win[k]
        s2, e2 = win[k + 1]
        win[k] = (pos, pos + (e1 - s1) + (e2 - s2) + 1)
        del win[k + 1]
        del dirty[k]
        if merged is not None:
            merged(k, win[k])
        if k > 0:
            dirty[k - 1] = True
        if k < len(dirty):
            dirty[k] = True


class CompressedString:
    """One source string held as a maximal cover of reference blocks.

    ``last_concat_calls`` and ``last_st_ops`` expose how many reference
    concatenation queries and SumTree operations the most recent public
    operation issued.
    """

    __slots__ = (
        "index", "_tree", "length",
        "last_concat_calls", "last_st_ops",
    )

    def __init__(self, index: RefIndex, blocks: Iterable[Block] = ()):
        blocks = list(blocks)
        for blk in blocks:
            s, e = blk
            if not 1 <= s <= e <= index.r:
                raise InvalidBlock(f"block {blk} outside reference of length {index.r}")
        self.index = index
        self._tree = SumTree([e - s + 1 for s, e in blocks], blocks)
        self.length = sum(e - s + 1 for s, e in blocks)
        self.last_concat_calls = 0
        self.last_st_ops = 0

    # ------------------------------------------------------------------

    @property
    def block_count(self) -> int:
        return len(self._tree)

    def blocks(self) -> List[Block]:
        return list(self._tree.items_from(1))

    def __len__(self) -> int:
        return self.length

    def _st(self, op: str, *args: int):
        self.last_st_ops += 1
        return getattr(self._tree, op)(*args)

    def _concat(self, a: Block, b: Block) -> Optional[int]:
        self.last_concat_calls += 1
        return self.index.substring_concat(a, b)

    def _locate(self, i: int) -> Tuple[int, int]:
        """(block ordinal, 1-based offset inside the block) for S[i]."""
        l = self._st("search", i)
        before = self._st("sum", l - 1) if l > 1 else 0
        return l, i - before

    # ------------------------------------------------------------------
    # reads

    def access(self, i: int) -> int:
        """S[i] as an int byte."""
        self.last_concat_calls = self.last_st_ops = 0
        if not 1 <= i <= self.length:
            raise IndexOutOfRange(f"position {i} outside [1, {self.length}]")
        l, off = self._locate(i)
        s, _ = self._tree.item(l)
        return self.index.data[s + off - 2]

    def extract(self, i: int, ell: int) -> bytes:
        """S[i .. i+ell-1]."""
        self.last_concat_calls = self.last_st_ops = 0
        if ell < 0 or i < 1 or i + ell - 1 > self.length:
            raise IndexOutOfRange(
                f"range ({i}, len {ell}) outside string of length {self.length}")
        if ell == 0:
            return b""
        l, off = self._locate(i)
        data = self.index.data
        out = []
        need = ell
        for s, e in self._tree.items_from(l):
            take = min(e - s + 1 - (off - 1), need)
            out.append(data[s + off - 2 : s + off - 2 + take])
            need -= take
            if need == 0:
                break
            off = 1
        return b"".join(out)

    # ------------------------------------------------------------------
    # edits

    def replace(self, i: int, byte: int) -> None:
        """S[i] = byte."""
        self.last_concat_calls = self.last_st_ops = 0
        if not 1 <= i <= self.length:
            raise IndexOutOfRange(f"position {i} outside [1, {self.length}]")
        occ = self.index.occurrence(byte)
        if occ is None:
            raise CharNotInReference(i, byte)
        l, off = self._locate(i)
        s, e = self._tree.item(l)
        blk_len = e - s + 1
        parts: List[Block] = []
        if off > 1:
            parts.append((s, s + off - 2))
        parts.append((occ, occ))
        if off < blk_len:
            parts.append((s + off, e))
        # carve the length entry to match the parts
        if off > 1 and off < blk_len:
            self._st("divide", l, off - 1)
            self._st("divide", l + 1, 1)
        elif off > 1:  # replaced the last char
            self._st("divide", l, blk_len - 1)
        elif off < blk_len:  # replaced the first char
            self._st("divide", l, 1)
        self._place(l, parts)

    def insert(self, i: int, byte: int) -> None:
        """Insert byte before position i (i = N+1 appends)."""
        self.last_concat_calls = self.last_st_ops = 0
        if not 1 <= i <= self.length + 1:
            raise IndexOutOfRange(f"position {i} outside [1, {self.length + 1}]")
        occ = self.index.occurrence(byte)
        if occ is None:
            raise CharNotInReference(i, byte)
        nchar: Block = (occ, occ)
        if i == self.length + 1:  # append; also the only path when S is empty
            l = self.block_count + 1
            self._st("insert", l, 1)
            self.length += 1
            self._place(l, [nchar])
            return
        l, off = self._locate(i)
        if off == 1:
            self._st("insert", l, 1)
            self.length += 1
            self._place(l, [nchar], 2)
            return
        s, e = self._tree.item(l)
        self._st("divide", l, off - 1)
        self._st("insert", l + 1, 1)
        self.length += 1
        self._place(l, [(s, s + off - 2), nchar, (s + off - 1, e)])

    def delete(self, i: int) -> None:
        """Remove S[i]."""
        self.last_concat_calls = self.last_st_ops = 0
        if not 1 <= i <= self.length:
            raise IndexOutOfRange(f"position {i} outside [1, {self.length}]")
        l, off = self._locate(i)
        s, e = self._tree.item(l)
        blk_len = e - s + 1
        parts: List[Block] = []
        if off > 1:
            parts.append((s, s + off - 2))
        if off < blk_len:
            parts.append((s + off, e))
        if off > 1 and off < blk_len:
            self._st("divide", l, off - 1)
            self._st("divide", l + 1, 1)
            self._st("delete", l + 1)
        elif off > 1:
            self._st("divide", l, blk_len - 1)
            self._st("delete", l + 1)
        elif off < blk_len:
            self._st("divide", l, 1)
            self._st("delete", l)
        else:
            self._st("delete", l)
        self.length -= 1
        self._place(l, parts)

    # ------------------------------------------------------------------

    def _place(self, first: int, parts: List[Block], nparts: Optional[int] = None) -> None:
        """Write ``parts`` as the blocks at ordinals first, first + 1, ...,
        whose length entries are already in place, then re-merge the window
        around the ``nparts`` (default: all) edited ordinals until every
        window boundary is maximal."""
        self._tree.set_items(first, parts)
        lo = max(1, first - 1)
        # inclusive ordinal of the window's end
        hi = min(self.block_count, first + (len(parts) if nparts is None else nparts))
        if hi <= lo:
            return

        def merged(k: int, blk: Block) -> None:
            self._st("merge", lo + k)
            self._tree.set_item(lo + k, blk)

        window = list(islice(self._tree.items_from(lo), hi - lo + 1))
        restore_maximal(window, self._concat, merged)

    # ------------------------------------------------------------------

    def check(self) -> None:
        """Structural coherence between payloads and length entries."""
        blocks = self.blocks()
        assert None not in blocks
        lengths = self._tree.values()
        assert len(blocks) == len(lengths)
        assert all(e - s + 1 == v for (s, e), v in zip(blocks, lengths))
        assert all(1 <= s <= e <= self.index.r for s, e in blocks)
        assert self._tree.total == self.length
        self._tree.validate()


def compress(index: RefIndex, src: bytes) -> CompressedString:
    """Greedy maximal cover of ``src`` against the indexed reference.

    Greedy left-to-right factorization is itself maximal: were two adjacent
    blocks concatenable in R, the left match could have been longer.
    """
    return CompressedString(index, index.factorize(src))
