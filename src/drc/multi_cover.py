"""A forest of compressed strings supporting split and concatenation.

Each string is a maximal cover of reference blocks, held in a leaf-oriented
AVL tree whose leaves are chunks: lists of up to ``_CHUNK`` consecutive
blocks, kept with an array of the prefix sums of their lengths.
Internal nodes cache the character count, block count (``nleaves``) and
height of their subtree, so block ordinals and position lookups work as if
every block were a leaf; a lookup descends by character counts to a chunk
and bisects the chunk's prefix sums.  Split and concatenate are tree split
and join.  ``_chunks`` is the one in-order walk of a string's chunks:
``_leaves``, ``extract``, ``split`` and ``validate`` take it, and
``extract`` slices the blocks with :func:`spell`, as ``CompressedString``
does.  Blocks are read by character position or at a string's ends
(``_first``, ``_last``); block ordinals only address writes (``_splice``).

A point edit reads its window of blocks in the descent that locates it
(``_edit_window``).  When what it writes back lies inside one chunk (a
neighbor from another chunk that did not merge is not written back) and
the chunk stays within its size bounds, the edit rewrites a slice of the
chunk (``_rewrite``) and adds its char and block deltas to the nodes on the
descent path: no node is allocated and nothing is joined.  Otherwise (a
neighbor in another chunk merged, or the chunk overflows or runs
underfull) ``_splice`` writes the window back in one descent, combining
each node's new children with ``_concat``, which joins them with ``_join``
(never rewriting its inputs' nodes, and reusing the rewritten node itself
as the ``top`` where the heights meet).  A chunk over ``_CHUNK`` blocks is
rebuilt as chunks of near-equal size.  No chunk but a string's only one
has fewer than ``_CHUNK // 4`` blocks, by one rule: wherever two trees
meet, at a splice's node, a cut or a concatenation's seam, ``_concat``
puts a lone chunk that small into the other side's edge chunk instead of
under a join.  No node or chunk is shared between strings, so a rewrite
never reaches another handle.

Joins and cuts expose fresh block adjacencies, so every operation re-checks
the affected boundary pairs against the reference index and merges while a
pair's concatenation still occurs in R.  A boundary already known absent
from R stays absent when its blocks grow, so the re-check never cascades
past the touched window.  ``split`` and ``concat`` read the pairs beside a
cut or seam at the ends of the strings there and hand them to ``_remerge``.

Strings are addressed by opaque integer handles; split and concatenate
consume their inputs and hand out fresh handles.  Empty strings are legal
forest members (their tree is empty).

Consecutive reads share a descent: the forest keeps one read finger on the
block the last ``access`` reached: the handle, the chunk and the position
just before it, the block's span of positions, and the shift from a
position in that span to its byte of R.  A read of the same handle inside
that block is answered from the finger, and a read elsewhere in the same
chunk moves the finger to its block by bisection, without descending.  Every edit, ``split`` and
``concat`` drops the finger on entry, because they rewrite chunks in place;
``add`` and ``add_blocks`` keep it, because handles are never reused.

>>> from drc.ref_index import build_index
>>> forest = CoverForest(build_index(b"banana"))
>>> a, b = forest.add(b"ban"), forest.add(b"ana")
>>> c = forest.concat(a, b)  # handles a and b are consumed
>>> forest.blocks(c)
[(1, 6)]
>>> left, right = forest.split(c, 4)
>>> forest.decompress(left), forest.decompress(right)
(b'ban', b'ana')
>>> forest.access(right, 1), forest.access(right, 2)  # one descent
(97, 110)
>>> forest.replace(right, 2, ord("b"))  # drops the finger
>>> bytes(forest.access(right, j) for j in range(1, 4))
b'aba'
>>> forest.extract(right, 2, 2)
b'ba'
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from itertools import accumulate, chain
from operator import index as as_int
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .cover_engine import cut, edit_block, restore_maximal, spell
from .errors import IndexOutOfRange, SameHandle, UnknownHandle
from .ref_index import RefIndex

__all__ = [
    "CoverForest",
    "mc_access", "mc_replace", "mc_insert", "mc_delete",
    "mc_concat", "mc_split",
]

Block = Tuple[int, int]

# Most blocks a chunk holds; _concat puts one under _CHUNK // 4 into a
# neighbor unless it is its string's only chunk.
_CHUNK = 32


def _ends(blks: List[Block]) -> array:
    """The prefix sums of the block lengths of a chunk."""
    return array("q", list(accumulate([e - s + 1 for s, e in blks])))


class _Tree:
    """Leaf (``blks``, a chunk of blocks, and ``ends``, the prefix sums of
    their lengths, computed when not given) or internal node (both None,
    two children)."""

    __slots__ = ("blks", "ends", "left", "right", "height", "nchars", "nleaves")

    def __init__(self, blks: Optional[List[Block]], ends: Optional[array] = None):
        self.blks = blks
        self.left: Optional[_Tree] = None
        self.right: Optional[_Tree] = None
        self.height = 1
        if blks is None:
            self.ends = None
            self.nchars = self.nleaves = 0
        else:
            self.ends = ends = _ends(blks) if ends is None else ends
            self.nchars = ends[-1] if blks else 0
            self.nleaves = len(blks)


def _rewrite(t: _Tree, a: int, w: int, new: List[Block]) -> int:
    """Write ``new`` over the ``w`` blocks of chunk ``t`` from index a, in
    place, keeping its prefix ends and counts; returns the char delta."""
    blks, ends = t.blks, t.ends
    x = ends[a - 1] if a else 0
    dc = -(ends[a + w - 1] if a + w else 0)
    part = []
    for s, e in new:
        x += e - s + 1
        part.append(x)
    dc += x
    blks[a : a + w] = new
    if dc:  # the ends after the window move too
        part += [y + dc for y in ends[a + w :]]
        ends[a:] = array("q", part)
    else:
        ends[a : a + w] = array("q", part)
    t.nchars += dc
    t.nleaves = len(blks)
    return dc


def _pull(n: _Tree) -> None:
    l, r = n.left, n.right
    n.height = 1 + max(l.height, r.height)
    n.nchars = l.nchars + r.nchars
    n.nleaves = l.nleaves + r.nleaves


def _rot_right(n: _Tree) -> _Tree:
    p = n.left
    n.left = p.right
    p.right = n
    _pull(n)
    _pull(p)
    return p


def _rot_left(n: _Tree) -> _Tree:
    p = n.right
    n.right = p.left
    p.left = n
    _pull(n)
    _pull(p)
    return p


def _rebalance(n: _Tree) -> _Tree:
    """Fix a balance factor of +-2 left by a join step.  A double rotation
    lifts a grandchild from the join's inputs, so it lifts a copy of it."""
    _pull(n)
    bf = n.left.height - n.right.height
    if bf > 1:
        if n.left.left.height < n.left.right.height:
            n.left.right = _join(n.left.right.left, n.left.right.right)
            n.left = _rot_left(n.left)
        return _rot_right(n)
    if bf < -1:
        if n.right.right.height < n.right.left.height:
            n.right.left = _join(n.right.left.left, n.right.left.right)
            n.right = _rot_right(n.right)
        return _rot_left(n)
    return n


def _join(a: Optional[_Tree], b: Optional[_Tree],
          top: Optional[_Tree] = None) -> Optional[_Tree]:
    """Concatenate two AVL trees of chunks without rewriting their nodes.
    ``top``, an internal node the caller no longer uses, goes over the two
    subtrees whose heights meet (a new node when None); new nodes above."""
    if a is None:
        return b
    if b is None:
        return a
    d = a.height - b.height
    if d > 1:
        n = _Tree(None)
        n.left, n.right = a.left, _join(a.right, b, top)
        return _rebalance(n)
    if d < -1:
        n = _Tree(None)
        n.left, n.right = _join(a, b.left, top), b.right
        return _rebalance(n)
    n = top or _Tree(None)
    n.left, n.right = a, b
    _pull(n)
    return n


def _seek(t: _Tree, j: int) -> Tuple[int, int]:
    """(index, 1-based offset) of char j in chunk ``t``, by bisection;
    j = t.nchars + 1 is one past the last block's end."""
    ends = t.ends
    k = min(bisect_left(ends, j), len(ends) - 1)
    return k, j - ends[k - 1] if k else j


def _split_chars(t: Optional[_Tree], c: int) -> Tuple[Optional[_Tree], Optional[_Tree]]:
    """First c characters, rest; divides the chunk, and the block, the cut
    lands in, and consumes ``t``: each node on the cut's path is the ``top``
    of the ``_concat`` at its level, which puts a piece of that chunk under
    ``_CHUNK // 4`` blocks into its neighbor on the same side."""
    if t is None or c == 0:
        return None, t
    if c == t.nchars:
        return t, None
    if t.blks is not None:
        blks = t.blks
        k, off = _seek(t, c)
        s, e = blks[k]
        ends = t.ends
        rest = array("q", [x - c for x in ends[k:]])
        if s + off - 1 == e:
            return _Tree(blks[: k + 1], ends[: k + 1]), _Tree(blks[k + 1 :], rest[1:])
        head = ends[:k]
        head.append(c)
        return (_Tree(blks[:k] + [(s, s + off - 1)], head),
                _Tree([(s + off, e)] + blks[k + 1 :], rest))
    if c <= t.left.nchars:
        l, r = _split_chars(t.left, c)
        return l, _concat(r, t.right, t)
    l, r = _split_chars(t.right, c - t.left.nchars)
    return _concat(t.left, l, t), r


def _concat(a: Optional[_Tree], b: Optional[_Tree],
            top: Optional[_Tree] = None) -> Optional[_Tree]:
    """``_join(a, b, top)`` of two trees the caller gives up, except that a
    lone chunk under ``_CHUNK // 4`` blocks on either side goes into the
    other side's edge chunk, in place, instead of under a join.  This is
    the one place where an undersized chunk is absorbed."""
    if a is None or b is None:
        return b if a is None else a
    if a.blks is not None and a.nleaves < _CHUNK // 4:
        return _splice(b, 1, 1, a.blks + _first(b).blks[:1])
    if b.blks is not None and b.nleaves < _CHUNK // 4:
        return _splice(a, a.nleaves, a.nleaves, _last(a).blks[-1:] + b.blks)
    return _join(a, b, top)


def _edit_window(t: _Tree, j: int, drop: int, new: Optional[Block]
                 ) -> Tuple[int, int, List[Block], List[_Tree], _Tree, int]:
    """Blocks [lo, hi] (1-based) that an edit at position j of ``t``
    rewrites, and the blocks to re-merge in their place: the :func:`cut`
    of the block holding j (one past the end appends to the last block),
    after its predecessor and before its successor.  A neighbor stays out
    when the part next to it is the old block itself, whose boundary with
    it is known absent from R.

    One descent finds the chunk, recording the internal nodes on its
    path, and the last node where it went right (the previous chunk ends
    that node's left child) and left (the next chunk starts its right
    child); only a neighbor in another chunk has that spine walked.  Also
    returns the path, the chunk and the ordinal of its first block."""
    path, l, before, after = [], 1, None, None
    while t.blks is None:
        path.append(t)
        if j <= t.left.nchars:
            after, t = t.right, t.left
        else:
            j -= t.left.nchars
            l += t.left.nleaves
            before, t = t.left, t.right
    blks = t.blks
    k, off = _seek(t, j)
    blk = blks[k]
    win = cut(blk, off, drop, new)
    lo = hi = l + k
    head, tail = not win or win[0] != blk, not win or win[-1] != blk
    if head and (k or before is not None):
        win.insert(0, blks[k - 1] if k else _last(before).blks[-1])
        lo -= 1
    if tail and (k + 1 < len(blks) or after is not None):
        win.append(blks[k + 1] if k + 1 < len(blks) else _first(after).blks[0])
        hi += 1
    return lo, hi, win, path, t, l


def _splice(t: _Tree, lo: int, hi: int, new: List[Block]) -> Optional[_Tree]:
    """Replace blocks [lo, hi] (1-based) of ``t`` by the blocks ``new`` in
    one descent that rewrites ``t`` in place.  A window straddling both
    children gives the left one as many of the new blocks as it loses, and
    the right one the rest.  A chunk's list is rewritten in place; one left
    empty goes, and one over ``_CHUNK`` blocks is rebuilt as chunks of
    near-equal size.  Each node on the way combines its new children through
    ``_concat`` with itself as the ``top``, so a chunk left under
    ``_CHUNK // 4`` blocks goes into its sibling's edge chunk."""
    if t.blks is not None:
        _rewrite(t, lo - 1, min(hi, t.nleaves) - lo + 1, new)
        return t if 0 < t.nleaves <= _CHUNK else _build(t.blks)
    k = t.left.nleaves
    if hi <= k:
        return _concat(_splice(t.left, lo, hi, new), t.right, t)
    if lo > k:
        return _concat(t.left, _splice(t.right, lo - k, hi - k, new), t)
    m = k - lo + 1
    return _concat(_splice(t.left, lo, k, new[:m]), _splice(t.right, 1, hi - k, new[m:]), t)


def _first(t: _Tree) -> _Tree:
    while t.blks is None:
        t = t.left
    return t


def _last(t: _Tree) -> _Tree:
    while t.blks is None:
        t = t.right
    return t


def _chunks(t: Optional[_Tree], j: int = 1) -> Iterator[Tuple[_Tree, int]]:
    """The chunk of ``t`` that holds char j, with j's position in it, then
    every later chunk, with position 1: one descent by character counts
    that keeps the right subtrees it passes, to walk them in order."""
    if t is None:
        return
    rights = []  # the right subtrees still to walk, nearest last
    while True:
        while t.blks is None:
            if j <= t.left.nchars:
                rights.append(t.right)
                t = t.left
            else:
                j -= t.left.nchars
                t = t.right
        yield t, j
        if not rights:
            return
        t, j = rights.pop(), 1


def _leaves(t: Optional[_Tree]) -> Iterator[Block]:
    """The blocks of ``t`` in string order."""
    return chain.from_iterable(c.blks for c, _ in _chunks(t))


def _build(blocks: List[Block]) -> Optional[_Tree]:
    """A balanced tree of ``blocks`` in chunks of near-equal size: one
    chunk up to ``_CHUNK`` blocks, else chunks about three quarters full,
    so that the first inserts into them split nothing."""
    n = len(blocks)
    q = min(n, -(-4 * n // (3 * _CHUNK))) if n > _CHUNK else min(n, 1)
    return _stack([_Tree(blocks[n * i // q : n * (i + 1) // q]) for i in range(q)])


def _stack(leaves: List[_Tree]) -> Optional[_Tree]:
    if len(leaves) <= 1:
        return leaves[0] if leaves else None
    mid = len(leaves) // 2
    return _join(_stack(leaves[:mid]), _stack(leaves[mid:]))


class CoverForest:
    """Compressed strings over one reference, keyed by integer handles."""

    def __init__(self, index: RefIndex):
        self.index = index
        self._trees: Dict[int, Optional[_Tree]] = {}
        self._next_handle = 1
        # the read finger (see access); no finger while the leaf is None,
        # and then its block is the empty span (0, 0].  Separate attributes,
        # not a tuple: a tuple per descent would feed the cyclic garbage
        # collector.
        self._finger_handle = 0
        self._finger_leaf: Optional[_Tree] = None  # the chunk
        self._finger_chunk = 0  # the position before the chunk
        self._finger_base = 0  # the block's span of positions, (base, end]
        self._finger_end = 0
        self._finger_shift = 0  # the index in R's data of S_h[j] is shift + j

    # ------------------------------------------------------------------

    def _drop_finger(self) -> None:
        self._finger_leaf = None
        self._finger_end = 0

    def _adopt(self, t: Optional[_Tree]) -> int:
        h = self._next_handle
        self._next_handle += 1
        self._trees[h] = t
        return h

    def _tree(self, h: int) -> Optional[_Tree]:
        try:
            return self._trees[h]
        except KeyError:
            raise UnknownHandle(f"no string with handle {h}") from None

    def add(self, src: bytes) -> int:
        """Compress a new string into the forest."""
        return self._adopt(_build(self.index.factorize(src)))

    def add_blocks(self, blocks: Iterable[Block]) -> int:
        """Add a string given as its blocks, which must already be a
        maximal cover, as ``add`` makes: edits keep a cover maximal, they
        do not make it so, and ``validate`` does not test it."""
        blocks = [self.index._check_block(blk) for blk in blocks]
        return self._adopt(_build(blocks))

    def handles(self) -> List[int]:
        return sorted(self._trees)

    def length(self, h: int) -> int:
        t = self._tree(h)
        return t.nchars if t is not None else 0

    def block_count(self, h: int) -> int:
        t = self._tree(h)
        return t.nleaves if t is not None else 0

    def blocks(self, h: int) -> List[Block]:
        return list(_leaves(self._tree(h)))

    def decompress(self, h: int) -> bytes:
        data = self.index.data
        return b"".join(data[s - 1 : e] for s, e in _leaves(self._tree(h)))

    # ------------------------------------------------------------------

    def _remerge(self, t: _Tree, lo: int, win: List[Block]) -> Optional[_Tree]:
        """Re-merge the boundaries of ``win``, a fresh list of the blocks of
        ``t`` from ordinal lo (1-based) on, and splice the result back in
        place of the window if a pair merged; returns the root."""
        n = len(win)
        restore_maximal(win, self.index.substring_concat)
        return _splice(t, lo, lo + n - 1, win) if len(win) < n else t

    def access(self, h: int, j: int) -> int:
        """S_h[j] as an int byte.  The read finger holds a handle and a
        block of its string; a j inside that block is read off it, a j
        elsewhere in the block's chunk moves the finger to the block that
        holds j without a descent, and any other j descends from the root
        and moves the finger to the block it reaches.  A j that is no
        integer is refused before the finger moves.  Edits, ``split`` and
        ``concat`` drop the finger; ``add`` keeps it, as handles are never
        reused."""
        if self._finger_handle == h and self._finger_base < j <= self._finger_end:
            return self.index.data[self._finger_shift + j]
        j = as_int(j)
        t = self._finger_leaf
        k = j - self._finger_chunk
        if self._finger_handle != h or t is None or not 0 < k <= t.nchars:
            t = self._tree(h)
            n = t.nchars if t is not None else 0
            if not 1 <= j <= n:
                raise IndexOutOfRange(f"position {j} outside [1, {n}]")
            k = j
            while t.blks is None:
                l = t.left
                if k <= l.nchars:
                    t = l
                else:
                    k -= l.nchars
                    t = t.right
            self._finger_handle, self._finger_leaf, self._finger_chunk = h, t, j - k
        ends = t.ends  # _seek, inline on the read path
        i = bisect_left(ends, k)
        if i:
            k -= ends[i - 1]
        s, e = t.blks[i]
        base = j - k
        self._finger_base, self._finger_end = base, base + e - s + 1
        self._finger_shift = s - 2 - base
        return self.index.data[s + k - 2]

    def extract(self, h: int, j: int, m: int) -> bytes:
        """S_h[j .. j+m-1]: ``_chunks`` descends once to the chunk holding
        j and walks on through the chunks after it, and :func:`spell`
        slices their blocks from j onward."""
        j, m = as_int(j), as_int(m)
        t = self._tree(h)
        n = t.nchars if t is not None else 0
        if m < 0 or j < 1 or j + m - 1 > n:
            raise IndexOutOfRange(f"range ({j}, len {m}) outside string of length {n}")
        if m == 0:
            return b""
        chunks = _chunks(t, j)
        t, j = next(chunks)
        k, off = _seek(t, j)
        blocks = chain(t.blks[k:], chain.from_iterable(c.blks for c, _ in chunks))
        return spell(self.index.data, blocks, off, m)

    def replace(self, h: int, j: int, byte: int) -> None:
        self._edit(h, as_int(j), 1, as_int(byte))

    def insert(self, h: int, j: int, byte: int) -> None:
        """Insert byte before position j of S_h (j = length+1 appends)."""
        self._edit(h, as_int(j), 0, as_int(byte))

    def delete(self, h: int, j: int) -> None:
        self._edit(h, as_int(j), 1, None)

    def _edit(self, h: int, j: int, drop: int, byte: Optional[int]) -> None:
        """Replace the ``drop`` (0 or 1) characters at S_h[j] by ``byte``
        (None: by nothing) and re-merge the block's window.  A neighbor from
        another chunk that did not merge is not written back, so a window
        that then lies inside one chunk and leaves it within its bounds is
        written into the chunk's list, and the char and block deltas are
        added along the descent path; any other, a chunk left under
        ``_CHUNK // 4`` blocks included, goes through ``_splice``."""
        self._drop_finger()
        t = self._tree(h)
        new = edit_block(self.index, t.nchars if t is not None else 0, j, drop, byte)
        if t is None:
            self._trees[h] = _Tree([new])
            return
        lo, hi, win, path, leaf, f = _edit_window(t, j, drop, new)
        first, last = (win[0], win[-1]) if win else (None, None)
        restore_maximal(win, self.index.substring_concat)
        # a neighbor from another chunk that did not merge stays as it is
        if lo < f and win[0] is first:
            del win[0]
            lo += 1
        if hi >= f + leaf.nleaves and win and win[-1] is last:
            win.pop()
            hi -= 1
        dl = len(win) - (hi - lo + 1)
        size = leaf.nleaves + dl
        if (f <= lo and hi < f + leaf.nleaves and 0 < size <= _CHUNK
                and (size >= _CHUNK // 4 or not path)):
            dc = _rewrite(leaf, lo - f, hi - lo + 1, win)
            for n in path:
                n.nchars += dc
                n.nleaves += dl
            return
        self._trees[h] = _splice(t, lo, hi, win)

    # ------------------------------------------------------------------

    def concat(self, h_a: int, h_b: int) -> int:
        """New string S_a . S_b; both inputs are consumed."""
        self._drop_finger()
        if h_a == h_b:
            # resolve the handle first so unknown beats same
            self._tree(h_a)
            raise SameHandle(f"concat needs two distinct strings, got {h_a} twice")
        ta, tb = self._tree(h_a), self._tree(h_b)
        del self._trees[h_a], self._trees[h_b]
        if ta is None or tb is None:
            return self._adopt(ta if tb is None else tb)
        # only the seam pair can merge: its neighbors were maximal and
        # their strings only grow.  It is read before the join, which may
        # rewrite an edge chunk and ta's counts
        na, seam = ta.nleaves, [_last(ta).blks[-1], _first(tb).blks[0]]
        return self._adopt(self._remerge(_concat(ta, tb), na, seam))

    def split(self, h: int, j: int) -> Tuple[int, int]:
        """Cut S_h into S[1..j-1] and S[j..]; the input is consumed."""
        self._drop_finger()
        j = as_int(j)
        t = self._tree(h)
        n = t.nchars if t is not None else 0
        if not 1 <= j <= n:
            raise IndexOutOfRange(f"cut point {j} outside [1, {n}]")
        del self._trees[h]
        left, right = _split_chars(t, j - 1)
        # a cut shortens the blocks on both sides of it, so each may now
        # merge with its neighbor: the last two blocks of left and the first
        # two of right, from the edge chunk, or, when it holds one block,
        # from the next chunk in too
        if left is not None and left.nleaves > 1:
            c = _last(left)
            win = c.blks[-2:]
            if len(win) == 1:
                win.insert(0, next(_chunks(left, left.nchars - c.nchars))[0].blks[-1])
            left = self._remerge(left, left.nleaves - 1, win)
        if right.nleaves > 1:
            c = _first(right)
            win = c.blks[:2]
            if len(win) == 1:
                win.append(next(_chunks(right, c.nchars + 1))[0].blks[0])
            right = self._remerge(right, 1, win)
        return self._adopt(left), self._adopt(right)

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Recompute every cached field; check each chunk's size, between
        ``_CHUNK // 4`` (1 for a string's only chunk) and ``_CHUNK``, and
        the AVL height bound on the chunk count; and check that no node or
        chunk is reachable twice: edits rewrite them in place, so a shared
        one would change another string too.  A set finger must name a live
        handle, and a fresh descent to the position after its base must
        reach its chunk, after the chunk's base, at the first character of
        its block."""
        # node and chunk ids, sorted in place: a set of them would outweigh
        # the trees
        ids = array("Q")
        for h, t in self._trees.items():
            if t is None:
                continue
            low = 1 if t.blks is not None else max(1, _CHUNK // 4)
            height, _nchars, _nleaves, chunks = self._check_node(t, ids, low)
            edges = height - 1
            assert edges <= 1.44 * math.log2(chunks + 1) + 1e-9, \
                f"handle {h}: height {edges} exceeds AVL bound for {chunks} chunks"
        order = np.frombuffer(ids, np.uint64)
        order.sort()
        assert (order[1:] != order[:-1]).all(), "node reachable twice"
        leaf = self._finger_leaf
        if leaf is not None:
            h, base = self._finger_handle, self._finger_base
            assert h in self._trees, f"finger on dead handle {h}"
            t = self._trees[h]
            assert t is not None and base < t.nchars, "finger past the string's end"
            t, j = next(_chunks(t, base + 1))
            i, off = _seek(t, j)
            s, e = t.blks[i]
            assert (t, base + 1 - j, off, self._finger_end, self._finger_shift) == (
                leaf, self._finger_chunk, 1, base + e - s + 1, s - 2 - base), \
                "finger off its block"

    def _check_node(self, t: _Tree, ids: array, low: int = 1) -> Tuple[int, int, int, int]:
        """(height, nchars, nleaves, chunks) of ``t``, recomputed, with each
        chunk's size checked against [low, _CHUNK]."""
        ids.append(id(t))
        if t.blks is not None:
            blks = t.blks
            ids.append(id(blks))
            assert low <= len(blks) <= _CHUNK, \
                f"chunk of {len(blks)} blocks outside [{low}, {_CHUNK}]"
            assert all(1 <= s <= e <= self.index.r for s, e in blks)
            assert t.height == 1
            assert t.ends == _ends(blks), "stale chunk ends"
            assert t.nchars == t.ends[-1] and t.nleaves == len(blks), "stale chunk counts"
            return 1, t.nchars, t.nleaves, 1
        hl, cl, ll, kl = self._check_node(t.left, ids, low)
        hr, cr, lr, kr = self._check_node(t.right, ids, low)
        assert abs(hl - hr) <= 1, "AVL balance violated"
        assert t.height == 1 + max(hl, hr)
        assert t.nchars == cl + cr and t.nleaves == ll + lr, "stale counts"
        return t.height, t.nchars, t.nleaves, kl + kr


# the contract names are the methods themselves: mc_access(forest, h, j)
# is forest.access(h, j)
mc_access, mc_replace, mc_insert, mc_delete, mc_concat, mc_split = (
    CoverForest.access, CoverForest.replace, CoverForest.insert,
    CoverForest.delete, CoverForest.concat, CoverForest.split)
