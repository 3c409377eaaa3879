"""Maximal-cover compression of one string against a reference.

A source string S is stored as an ordered sequence of reference intervals
(blocks) whose concatenation spells S.  The sequence is *maximal*: no two
adjacent blocks concatenate to a substring of R.  Reads and single-character
edits work directly on this form:

* one SumTree holds the sequence: its entries are the block lengths and
  each entry's item is the block itself, so position arithmetic (which
  block holds S[i], at what offset) is one walk.  The reads take the
  read descent: ``access`` by ``lookup``, which returns the length
  before the block and the block, and ``extract`` by ``lookup_items``,
  which returns that length and the blocks from there on for
  :func:`spell` to slice.  The edits take ``find``, which also returns
  the block's ordinal and leaves the tree's finger on its node;
* replace, insert and delete are one edit: drop 0 or 1 characters at a
  position and put 0 or 1 new ones there.  :func:`cut` splits the block
  that holds the position into the part before it, the new character and
  the part after it; ``CompressedString._edit`` carves the block's length
  entry to match and writes the parts with ``set_item``.  Every SumTree
  operation and item access after the ``find`` starts from the finger,
  or from one step along its path when it lands in the next bottom
  node, so an edit that fuses no nodes walks the index once;
* maximality is then restored inside the at-most-5-block window by one
  forward scan of adjacent-pair concatenation queries
  (:func:`restore_maximal`).  Both helpers, and the position and
  character check every edit starts with (:func:`edit_block`), are
  shared with the multi-string forest, as :func:`spell` is.

A boundary whose concatenation is absent from R can never become present
by merging its neighbors (merging only extends the string being sought),
so the scan asks each window boundary once: per edit ``len(window) - 1``
concatenation queries, at most 4, and at most 10 SumTree operations.
Both counts are instrumented: each operation is one call of the tree's
public methods, which a tracer wrapping them sees as one call each.
Blocks are stored as ``(s, e)`` tuples whatever pair type they came in.
"""

from __future__ import annotations

from operator import index as as_int
from typing import Callable, Iterable, List, Optional, Tuple

from .errors import CharNotInReference, IndexOutOfRange
from .partial_sums import SumTree
from .ref_index import RefIndex

__all__ = ["CompressedString", "compress", "cut", "edit_block", "restore_maximal", "spell"]

Block = Tuple[int, int]  # 1-based inclusive interval of R


def edit_block(index: RefIndex, length: int, j: int, drop: int,
               byte: Optional[int]) -> Optional[Block]:
    """Check an edit of a string of ``length`` characters that drops
    ``drop`` (0 or 1) characters at position j and puts ``byte`` (None:
    nothing) there, and return the block of the new character, or None.

    >>> from drc.ref_index import build_index
    >>> edit_block(build_index(b"banana"), 6, 7, 0, ord("n"))  # append
    (3, 3)
    >>> edit_block(build_index(b"banana"), 6, 7, 1, None)
    Traceback (most recent call last):
    drc.errors.IndexOutOfRange: position 7 outside [1, 6]
    """
    n = length + 1 - drop
    if not 1 <= j <= n:
        raise IndexOutOfRange(f"position {j} outside [1, {n}]")
    if byte is None:
        return None
    occ = index.occurrence(byte)
    if occ is None:
        raise CharNotInReference(j, byte)
    return occ, occ


def cut(blk: Block, off: int, drop: int, new: Optional[Block]) -> List[Block]:
    """The blocks that spell ``blk`` once its ``drop`` (0 or 1) characters
    at 1-based offset ``off`` are replaced by ``new`` (a one-char block, or
    None); empty parts are left out.

    With nothing dropped ``new`` goes before offset ``off``, which may be
    one past the block's end.

    >>> cut((3, 8), 3, 1, (5, 5))
    [(3, 4), (5, 5), (6, 8)]
    >>> cut((3, 8), 1, 0, (5, 5))
    [(5, 5), (3, 8)]
    >>> cut((3, 8), 6, 1, None)
    [(3, 7)]
    """
    s, e = blk
    parts = [(s, s + off - 2)] if off > 1 else []
    if new is not None:
        parts.append(new)
    if s + off - 1 + drop <= e:
        parts.append((s + off - 1 + drop, e))
    return parts


def restore_maximal(
    win: List[Block],
    concat: Callable[[Block, Block], Optional[int]],
    merged: Optional[Callable[[int, Block], None]] = None,
) -> List[Block]:
    """Merge adjacent pairs of a block window, in place, while their
    concatenation occurs in R, and return the window.

    One forward scan: a hit merges slots k and k + 1 and asks boundary k
    again; a miss moves on.  The boundary before a merge is not asked
    again, since its new pair extends one found absent, so a call asks
    ``len(win) - 1`` queries.  ``concat`` answers one; ``merged(k, blk)``
    is told each merge of slots k and k + 1 (0-based) into ``blk``.

    >>> R = b"abcdefghijklmnopqrstuvwxyz"
    >>> asked = []
    >>> def concat(x, y):  # blocks are 1-based inclusive intervals of R
    ...     asked.append(R[x[0] - 1 : x[1]] + R[y[0] - 1 : y[1]])
    ...     return R.find(asked[-1]) + 1 or None
    >>> restore_maximal([(21, 23), (1, 3), (4, 5)], concat)
    [(21, 23), (1, 5)]
    >>> asked
    [b'uvwabc', b'abcde']
    """
    k = 0
    while k < len(win) - 1:
        pos = concat(win[k], win[k + 1])
        if pos is None:
            k += 1
            continue
        s1, e1 = win[k]
        s2, e2 = win[k + 1]
        win[k] = (pos, pos + (e1 - s1) + (e2 - s2) + 1)
        del win[k + 1]
        if merged is not None:
            merged(k, win[k])
    return win


def spell(data: bytes, blocks: Iterable[Block], off: int, m: int) -> bytes:
    """The m bytes of R (``data``) that ``blocks`` spell from 1-based
    offset ``off`` in the first block on.

    >>> spell(b"abcdefghij", [(2, 4), (8, 10)], 2, 4)
    b'cdhi'
    """
    out = []
    for s, e in blocks:
        take = min(e - s + 2 - off, m)
        out.append(data[s + off - 2 : s + off - 2 + take])
        m -= take
        if not m:
            break
        off = 1
    return b"".join(out)


class CompressedString:
    """One source string held as a maximal cover of reference blocks.

    ``last_concat_calls`` and ``last_st_ops`` expose how many reference
    concatenation queries and SumTree operations the most recent public
    operation issued.  Locating a position is one read descent or ``find``,
    counted as one SumTree operation; an append locates nothing.
    """

    __slots__ = (
        "index", "_tree", "length",
        "last_concat_calls", "last_st_ops",
    )

    def __init__(self, index: RefIndex, blocks: Iterable[Block] = ()):
        blocks = [index._check_block(blk) for blk in blocks]
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

    def _concat(self, a: Block, b: Block) -> Optional[int]:
        self.last_concat_calls += 1
        return self.index.substring_concat(a, b)

    # ------------------------------------------------------------------
    # reads

    def access(self, i: int) -> int:
        """S[i] as an int byte."""
        i = as_int(i)
        self.last_concat_calls = self.last_st_ops = 0
        if not 1 <= i <= self.length:
            raise IndexOutOfRange(f"position {i} outside [1, {self.length}]")
        self.last_st_ops = 1
        before, (s, _) = self._tree.lookup(i)
        return self.index.data[s + i - before - 2]

    def extract(self, i: int, ell: int) -> bytes:
        """S[i .. i+ell-1]."""
        i, ell = as_int(i), as_int(ell)
        self.last_concat_calls = self.last_st_ops = 0
        if ell < 0 or i < 1 or i + ell - 1 > self.length:
            raise IndexOutOfRange(
                f"range ({i}, len {ell}) outside string of length {self.length}")
        if ell == 0:
            return b""
        self.last_st_ops = 1
        before, items = self._tree.lookup_items(i)
        return spell(self.index.data, items, i - before, ell)

    # ------------------------------------------------------------------
    # edits

    def replace(self, i: int, byte: int) -> None:
        """S[i] = byte."""
        self._edit(as_int(i), 1, as_int(byte))

    def insert(self, i: int, byte: int) -> None:
        """Insert byte before position i (i = N+1 appends)."""
        self._edit(as_int(i), 0, as_int(byte))

    def delete(self, i: int) -> None:
        """Remove S[i]."""
        self._edit(as_int(i), 1, None)

    def _edit(self, i: int, drop: int, byte: Optional[int]) -> None:
        """Replace the ``drop`` (0 or 1) characters at S[i] by ``byte``
        (None: by nothing), carve the block's length entry to match the
        parts :func:`cut` returns, and re-merge around them."""
        self.last_concat_calls = self.last_st_ops = 0
        new = edit_block(self.index, self.length, i, drop, byte)
        tree = self._tree
        ops = 0  # SumTree operations, one per call
        if i > self.length:  # append; also the only path when S is empty
            l, off, rest, parts = len(tree) + 1, 1, 0, [new]
        else:
            # one find: the block's ordinal, the length before it, and the block
            ops += 1
            l, before, blk = tree.find(i)
            off = i - before
            s, e = blk
            rest = e - s + 2 - off  # chars from S[i] to the block's end
            parts = cut(blk, off, drop, new)
            if parts[-1:] == [blk]:
                # the last part is the block itself (an insert at its start):
                # it keeps its entry and item, and its boundary with the next
                # block, known absent from R, stays out of the window
                parts.pop()
        # carve: split off the part before S[i], then S[i] from the rest,
        # then drop S[i]'s entry or add one for the new character
        m = l
        if off > 1:
            ops += 1
            tree.divide(l, off - 1)
            m += 1
        if drop and rest > 1:
            ops += 1
            tree.divide(m, 1)
        if new is None:
            ops += 1
            tree.delete(m)
        elif not drop:
            ops += 1
            tree.insert(m, 1)
        self.last_st_ops = ops
        self.length += (new is not None) - drop
        self._place(l, parts)

    # ------------------------------------------------------------------

    def _place(self, first: int, parts: List[Block]) -> None:
        """Write ``parts`` as the blocks at ordinals first, first + 1, ...,
        whose length entries are already in place, and read the block
        before them and the block after them; then re-merge that window
        until every boundary is maximal.  Each access starts from the
        finger the carve left, or one step along its path."""
        tree = self._tree
        for k, blk in enumerate(parts, first):
            tree.set_item(k, blk)
        lo = max(1, first - 1)
        end = first + len(parts)  # ordinal of the block after the parts
        window = parts  # _edit's own list, which it reads no further
        if lo < first:
            window.insert(0, tree.item(lo))
        if end <= len(tree):
            window.append(tree.item(end))

        def merged(k: int, blk: Block) -> None:
            self.last_st_ops += 1
            tree.merge(lo + k)
            tree.set_item(lo + k, blk)

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
