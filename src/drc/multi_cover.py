"""A forest of compressed strings supporting split and concatenation.

Each string is a maximal cover of reference blocks, held in a leaf-oriented
AVL tree: leaves are blocks in string order, internal nodes cache the total
character count, leaf count, and height of their subtree.  Position lookups
descend by character counts; split and concatenate are tree split and join.
An edit reads its window of leaves in the descent that locates it
(``_edit_window``) and rewrites it in place (``_splice``): one descent
overwrites or rebuilds the window, then joins each node's new children
with ``_join``, passing the node itself as ``top``: the one node a join
may reuse, kept over the children while they balance.  ``_join`` never
rewrites its inputs' nodes.  No node is shared between strings, so a
rewrite never reaches another handle.

Joins and cuts expose fresh block adjacencies, so every operation re-checks
the affected boundary pairs against the reference index and merges while a
pair's concatenation still occurs in R.  A boundary already known absent
from R stays absent when its blocks grow, so the re-check never cascades
past the touched window.

Strings are addressed by opaque integer handles; split and concatenate
consume their inputs and hand out fresh handles.  Empty strings are legal
forest members (their tree is empty).

Consecutive reads share a descent: the forest keeps one read finger, the
handle, the leaf the last ``access`` descent reached, and the string
position just before that leaf's first character.  A read of the same
handle inside that leaf is answered from the finger.  Every edit,
``split`` and ``concat`` drops it on entry, because they rewrite leaves in
place; ``add`` and ``add_blocks`` keep it, because handles are never
reused.

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
"""

from __future__ import annotations

import math
from array import array
from operator import index as as_int
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .cover_engine import cut, edit_block, restore_maximal
from .errors import IndexOutOfRange, SameHandle, UnknownHandle
from .ref_index import RefIndex

__all__ = [
    "CoverForest",
    "mc_access", "mc_replace", "mc_insert", "mc_delete",
    "mc_concat", "mc_split",
]

Block = Tuple[int, int]


class _Tree:
    """Leaf (blk set) or internal node (blk None, two children)."""

    __slots__ = ("blk", "left", "right", "height", "nchars", "nleaves")

    def __init__(self, blk: Optional[Block]):
        self.blk = blk
        self.left: Optional[_Tree] = None
        self.right: Optional[_Tree] = None
        self.height = 1
        self.nchars = blk[1] - blk[0] + 1 if blk is not None else 0
        self.nleaves = 1


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
    """Concatenate two AVL trees of leaves without rewriting their nodes.
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


def _split_chars(t: Optional[_Tree], c: int) -> Tuple[Optional[_Tree], Optional[_Tree]]:
    """First c characters, rest; divides the block the cut lands in."""
    if t is None or c == 0:
        return None, t
    if c == t.nchars:
        return t, None
    if t.blk is not None:
        s, _e = t.blk
        return _Tree((s, s + c - 1)), _Tree((s + c, _e))
    if c <= t.left.nchars:
        l, r = _split_chars(t.left, c)
        return l, _join(r, t.right)
    l, r = _split_chars(t.right, c - t.left.nchars)
    return _join(t.left, l), r


def _window(t: _Tree, lo: int, hi: int) -> List[Block]:
    """The blocks of leaves [lo, hi] (1-based) of ``t``, in one descent
    that visits only the subtrees holding them; ``hi`` past a subtree's
    end means up to its end."""
    out, todo = [], [(t, lo, hi)]
    while todo:
        n, lo, hi = todo.pop()
        while n.blk is None:
            k = n.left.nleaves
            if lo > k:
                n, lo, hi = n.right, lo - k, hi - k
                continue
            if hi > k:  # the right child's share waits for the left's
                todo.append((n.right, 1, hi - k))
            n = n.left
        out.append(n.blk)
    return out


def _edit_window(t: _Tree, j: int, drop: int,
                 new: Optional[Block]) -> Tuple[int, int, List[Block]]:
    """Leaves [lo, hi] (1-based) that an edit at position j of ``t``
    rewrites, and the blocks to re-merge in their place: the :func:`cut`
    of the leaf holding j (one past the end appends to the last leaf),
    after its predecessor and before its successor.  A neighbor stays out
    when the part next to it is the old block itself, whose boundary with
    it is known absent from R.  One descent finds the leaf and the last
    node where it went right (the predecessor ends that node's left
    child) and left (the successor starts its right child); only a
    neighbor that joins the window has that spine walked."""
    l, before, after = 1, None, None
    while t.blk is None:
        if j <= t.left.nchars:
            after, t = t.right, t.left
        else:
            j -= t.left.nchars
            l += t.left.nleaves
            before, t = t.left, t.right
    blk = t.blk
    parts = cut(blk, j, drop, new)
    win = []
    lo = hi = l
    if before is not None and parts[:1] != [blk]:
        while before.blk is None:
            before = before.right
        win.append(before.blk)
        lo -= 1
    win += parts
    if after is not None and parts[-1:] != [blk]:
        while after.blk is None:
            after = after.left
        win.append(after.blk)
        hi += 1
    return lo, hi, win


def _splice(t: _Tree, lo: int, hi: int, new: List[Block]) -> Optional[_Tree]:
    """Replace leaves [lo, hi] (1-based) of ``t`` by the blocks ``new`` in
    one descent that rewrites ``t`` in place.  A window straddling both
    children gives the left one as many blocks as it loses leaves and the
    right one the rest; one block for one leaf overwrites the leaf.  Each
    node on the way is the ``top`` of its new children's join."""
    if t.blk is not None:
        if len(new) != 1:
            return _build(new)
        t.blk = new[0]
        t.nchars = new[0][1] - new[0][0] + 1
        return t
    k = t.left.nleaves
    if hi <= k:
        return _join(_splice(t.left, lo, hi, new), t.right, t)
    if lo > k:
        return _join(t.left, _splice(t.right, lo - k, hi - k, new), t)
    m = k - lo + 1
    return _join(_splice(t.left, lo, k, new[:m]), _splice(t.right, 1, hi - k, new[m:]), t)


def _leaves(t: Optional[_Tree]) -> Iterator[Block]:
    if t is None:
        return
    stack = [t]
    while stack:
        n = stack.pop()
        if n.blk is not None:
            yield n.blk
        else:
            stack.append(n.right)
            stack.append(n.left)


def _build(blocks: List[Block]) -> Optional[_Tree]:
    if not blocks:
        return None
    if len(blocks) == 1:
        return _Tree(blocks[0])
    mid = len(blocks) // 2
    return _join(_build(blocks[:mid]), _build(blocks[mid:]))


class CoverForest:
    """Compressed strings over one reference, keyed by integer handles."""

    def __init__(self, index: RefIndex):
        self.index = index
        self._trees: Dict[int, Optional[_Tree]] = {}
        self._next_handle = 1
        # the read finger (see access); no finger while the leaf is None.
        # Three attributes, not a tuple: a tuple per descent would feed
        # the cyclic garbage collector.
        self._finger_handle = 0
        self._finger_base = 0
        self._finger_leaf: Optional[_Tree] = None

    # ------------------------------------------------------------------

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

    def add_blocks(self, blocks: List[Block]) -> int:
        for blk in blocks:
            self.index._check_block(blk)
        return self._adopt(_build(list(blocks)))

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

    def _remerge(self, t: _Tree, lo: int, hi: int) -> Optional[_Tree]:
        """Read the blocks of leaves [lo, hi] (1-based ordinals) of ``t``,
        re-merge their boundaries, and splice the result back in place of
        the window if a pair merged; returns the root."""
        win = _window(t, lo, hi)
        restore_maximal(win, self.index.substring_concat)
        return _splice(t, lo, hi, win) if len(win) <= hi - lo else t

    def access(self, h: int, j: int) -> int:
        """S_h[j] as an int byte.  The read finger holds a handle, the leaf
        the last descent reached and the position before that leaf; a j
        inside that leaf of the same handle is read off it, any other j
        descends from the root and moves the finger to the leaf it
        reaches.  Edits, ``split`` and ``concat`` drop the finger; ``add``
        keeps it, as handles are never reused."""
        leaf = self._finger_leaf
        if self._finger_handle == h and leaf is not None:
            k = j - self._finger_base
            if 0 < k <= leaf.nchars:
                return self.index.data[leaf.blk[0] + k - 2]
        try:
            t = self._trees[h]
        except KeyError:
            raise UnknownHandle(f"no string with handle {h}") from None
        n = t.nchars if t is not None else 0
        if not 1 <= j <= n:
            raise IndexOutOfRange(f"position {j} outside [1, {n}]")
        at = j
        while t.blk is None:
            if j <= t.left.nchars:
                t = t.left
            else:
                j -= t.left.nchars
                t = t.right
        self._finger_handle, self._finger_base, self._finger_leaf = h, at - j, t
        return self.index.data[t.blk[0] + j - 2]

    def replace(self, h: int, j: int, byte: int) -> None:
        self._edit(h, j, 1, as_int(byte))

    def insert(self, h: int, j: int, byte: int) -> None:
        """Insert byte before position j of S_h (j = length+1 appends)."""
        self._edit(h, j, 0, as_int(byte))

    def delete(self, h: int, j: int) -> None:
        self._edit(h, j, 1, None)

    def _edit(self, h: int, j: int, drop: int, byte: Optional[int]) -> None:
        """Replace the ``drop`` (0 or 1) characters at S_h[j] by ``byte``
        (None: by nothing) and re-merge the leaf's window."""
        self._finger_leaf = None
        t = self._tree(h)
        new = edit_block(self.index, t.nchars if t is not None else 0, j, drop, byte)
        if t is None:
            self._trees[h] = _Tree(new)
            return
        lo, hi, win = _edit_window(t, j, drop, new)
        restore_maximal(win, self.index.substring_concat)
        self._trees[h] = _splice(t, lo, hi, win)

    # ------------------------------------------------------------------

    def concat(self, h_a: int, h_b: int) -> int:
        """New string S_a . S_b; both inputs are consumed."""
        self._finger_leaf = None
        if h_a == h_b:
            # resolve the handle first so unknown beats same
            self._tree(h_a)
            raise SameHandle(f"concat needs two distinct strings, got {h_a} twice")
        ta, tb = self._tree(h_a), self._tree(h_b)
        del self._trees[h_a], self._trees[h_b]
        if ta is None or tb is None:
            return self._adopt(ta if tb is None else tb)
        # only the seam pair can merge: its neighbors were maximal and
        # their strings only grow
        na = ta.nleaves
        return self._adopt(self._remerge(_join(ta, tb), na, na + 1))

    def split(self, h: int, j: int) -> Tuple[int, int]:
        """Cut S_h into S[1..j-1] and S[j..]; the input is consumed."""
        self._finger_leaf = None
        t = self._tree(h)
        n = t.nchars if t is not None else 0
        if not 1 <= j <= n:
            raise IndexOutOfRange(f"cut point {j} outside [1, {n}]")
        del self._trees[h]
        left, right = _split_chars(t, j - 1)
        # a cut shortens the blocks on both sides of it, so each may now
        # merge with its neighbor
        if left is not None and left.nleaves > 1:
            left = self._remerge(left, left.nleaves - 1, left.nleaves)
        if right.nleaves > 1:
            right = self._remerge(right, 1, 2)
        return self._adopt(left), self._adopt(right)

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Recompute every cached field, check the AVL height bound, and
        check that no node is reachable twice: edits rewrite nodes in
        place, so a shared node would change another string too.  A set
        finger must name a live handle, and a fresh descent to the
        position after its base must reach its leaf, at the leaf's first
        character."""
        # node ids, sorted in place: a set of them would outweigh the trees
        ids = array("Q")
        for h, t in self._trees.items():
            if t is None:
                continue
            height, nchars, nleaves = self._check_node(t, ids)
            edges = height - 1
            assert edges <= 1.44 * math.log2(nleaves + 1) + 1e-9, \
                f"handle {h}: height {edges} exceeds AVL bound for {nleaves} leaves"
        order = np.frombuffer(ids, np.uint64)
        order.sort()
        assert (order[1:] != order[:-1]).all(), "node reachable twice"
        leaf = self._finger_leaf
        if leaf is not None:
            h, base = self._finger_handle, self._finger_base
            assert h in self._trees, f"finger on dead handle {h}"
            t, j = self._trees[h], base + 1
            assert t is not None and j <= t.nchars, "finger past the string's end"
            while t.blk is None:
                if j <= t.left.nchars:
                    t = t.left
                else:
                    j -= t.left.nchars
                    t = t.right
            assert t is leaf and j == 1, "finger off its leaf"

    def _check_node(self, t: _Tree, ids: array) -> Tuple[int, int, int]:
        ids.append(id(t))
        if t.blk is not None:
            s, e = t.blk
            assert 1 <= s <= e <= self.index.r
            assert t.height == 1 and t.nleaves == 1 and t.nchars == e - s + 1
            return 1, t.nchars, 1
        hl, cl, ll = self._check_node(t.left, ids)
        hr, cr, lr = self._check_node(t.right, ids)
        assert abs(hl - hr) <= 1, "AVL balance violated"
        assert t.height == 1 + max(hl, hr)
        assert t.nchars == cl + cr and t.nleaves == ll + lr
        return t.height, t.nchars, t.nleaves


# contract-name wrappers

def mc_access(forest: CoverForest, h: int, j: int) -> int:
    return forest.access(h, j)


def mc_replace(forest: CoverForest, h: int, j: int, byte: int) -> None:
    forest.replace(h, j, byte)


def mc_insert(forest: CoverForest, h: int, j: int, byte: int) -> None:
    forest.insert(h, j, byte)


def mc_delete(forest: CoverForest, h: int, j: int) -> None:
    forest.delete(h, j)


def mc_concat(forest: CoverForest, h_a: int, h_b: int) -> int:
    return forest.concat(h_a, h_b)


def mc_split(forest: CoverForest, h: int, j: int) -> Tuple[int, int]:
    return forest.split(h, j)
