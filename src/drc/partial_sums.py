"""Dynamic partial sums over sequences of arbitrary length.

A leaf-oriented B-tree lifts the fixed-capacity :class:`~drc.partial_sums_small.PackedSums`
structure to unbounded sequence length.  Conceptually every entry of Z is a
leaf; in this representation the lowest tree level stores its leaves' values
directly as the entries of one PackedSums per node, and every level above
holds one PackedSums whose entry j is the exact subtree sum of child j.

Every operation takes one of the tree's four walks:

* ``_locate``, by ordinal: leaf counts pick the child at each level.
  ``sum``, ``update``, ``divide``, ``merge``, ``insert``, ``delete`` and
  the item accessors take it, each with one call that checks the
  position first and reaches the bottom node.  Above the bottom node,
  ``update``, ``insert`` and ``delete`` shift one entry per level by an
  amount the bottom node's own checks already bounded, skipping the
  public checks; on such a level every entry heads its own run, and the
  shift moves the anchors from the entry's on and no packed field.
* ``_descend``, by prefix sum, keeping the path.  ``search`` sums the
  leaf counts its path passed to give the ordinal; ``find`` is a
  ``search`` that also hands back the prefix sum before the answer and
  the answer's item; ``lookup_items`` walks on from the path's end.
* ``lookup``, by prefix sum with no path: the read of one item.  It is
  ``_descend``'s loop again because a path it would drop slows
  ``access``, which takes this walk every time.
* ``_bottoms``, the bottom nodes left to right from one of them, each
  reached from the last by ``_step``: ``lookup_items``, ``items_from``
  and ``values``.

The tree keeps a *finger* on the bottom node its last walk reached: that
node, the ordinal of its first leaf, and the path down to it.  A walk
by position whose leaf lies in the finger's node starts there instead
of at the root, and one whose leaf lies in the bottom node next to it
on either side takes one step along the finger's path (``_step``), so
the several ops of one string edit, whose window spans at most two
adjacent nodes, walk the index once: the ``find`` that starts it.
``search`` and ``find`` move the finger to the node they reach, and so
do the walks by position (the ops, ``item``, ``set_item``) whenever they
leave the finger's node; ``items_from`` moves it as the walk to its
first entry does, and ``lookup``, ``lookup_items`` and ``values`` leave
it where it was.  Leaf counts change only in the node an op reached,
which is the finger's, so its first ordinal stays right.  A split moves
the finger to the half that holds the leaf the growth wants, down the
path the split left, and a merge across two bottom nodes moves it to the
right one, which the merged entry now heads; a fuse or an even share
drops it.

One rule, ``_chunk``, sizes every node: fewer than B entries stay one
node, more become near-equal nodes of about 3B/4, each of B/2 to B - 1.
The bulk build applies it level by level, so the first entries added
after it split nothing.  ``_regroup`` applies it to a full node only
when a growth below it must grow it (a split: one ``divide`` on the
parent's sums, as an exact split conserves the subtree total), and to a
node left under B/2 with a neighbor (as one node, a fuse: one ``merge``;
as two, an even share: a ``merge`` and a ``divide``).  A growth learns
that its node is full from the node's own op, by a StructureFull raised
after the op's argument checks.  The regrouped nodes are packed afresh
from slices of the old nodes' prefix sums, as the constructor would pack
their values.  Nothing else packs a node but the bulk build, a new root
and ``PackedSums.rebuild``: a merge across two bottom nodes moves its
value with ``_shift``, ``merge`` and ``divide``, one entry per level on
each side up to where the two paths meet.

Every node has one shape: a PackedSums and a list of kids, slot for slot.
An internal node's kids are its child nodes; a bottom node's kids are its
entries' items, opaque payloads.  A regroup moves each value together
with its kid, at every level alike.  Items are read and written by the
uncounted accessors ``item``, ``set_item`` and ``items_from``;
``divide`` copies the item into both halves, ``merge`` keeps the left
one, ``insert`` adds None.

>>> t = SumTree([5, 1, 4, 7] * 50)
>>> t.sum(4), t.sum(23)
(17, 95)
>>> t.search(t.total)
200
>>> t.find(18)  # (i, Y[i - 1], item of entry i)
(5, 17, None)
>>> t.lookup(18)  # (Y[i - 1], item of entry i)
(17, None)
>>> t.divide(8, 3); t.values()[7:9]
[3, 4]
"""

from __future__ import annotations

from itertools import accumulate, chain
from math import ceil, log
from operator import index
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    BadConfig,
    IndexOutOfRange,
    ItemCountMismatch,
    NegativeEntry,
    SearchOutOfRange,
    StructureFull,
)
from .partial_sums_small import DEFAULT_CONFIG, PackedSums, PsConfig

__all__ = ["SumTree"]


class _Node:
    """One tree node: entry j of ps is the value of kid j.  A bottom node's
    kids are its entries' items; an internal node's kids are its child
    nodes, whose subtree sums its entries hold."""

    __slots__ = ("ps", "kids", "bottom", "nleaves")

    def __init__(self, ps: PackedSums, kids: list, bottom: bool):
        self.ps = ps
        self.kids = kids
        self.bottom = bottom
        self.nleaves = len(kids) if bottom else sum(c.nleaves for c in kids)


# path element: (node, 1-based child slot taken); a path is a list, or the
# finger's tuple, which is never changed
_Path = Sequence[Tuple[_Node, int]]


class SumTree:
    """Partial sums over Z[1..s] with no bound on s.

    Same seven-operation contract and same rejections as PackedSums; the
    capacity error disappears and ``divide``/``insert`` may grow the
    sequence forever.  All costs are O(B log s / log B) per operation.
    ``items``, if given, holds one payload per value; it defaults to None
    for every entry.
    """

    __slots__ = ("cfg", "_bmin", "_root", "_found", "_finger")

    def __init__(self, values: Iterable[int] = (), items: Optional[Iterable[Any]] = None,
                 *, config: PsConfig | None = None):
        cfg = config if config is not None else DEFAULT_CONFIG
        if cfg.B < 4:
            # splitting a full node must leave both halves at or above B//2
            raise BadConfig(f"tree fanout B={cfg.B} below minimum 4")
        self.cfg = cfg
        self._bmin = cfg.B // 2
        vals = list(values)  # each bottom PackedSums rejects a negative entry
        its = [None] * len(vals) if items is None else list(items)
        if len(its) != len(vals):
            raise ItemCountMismatch(f"{len(its)} items for {len(vals)} values")
        self._root = self._bulk_build(vals, its)
        self._finger = None

    # ------------------------------------------------------------------
    # construction

    def _bulk_build(self, vals: List[int], items: list) -> _Node:
        if not vals:
            return _Node(PackedSums((), config=self.cfg), [], True)
        cfg = self.cfg
        nodes = [_Node(PackedSums(vals[s], config=cfg), items[s], True)
                 for s in self._chunk(len(vals))]
        while len(nodes) > 1:
            nodes = [
                _Node(PackedSums([c.ps.total for c in nodes[s]], config=cfg), nodes[s], False)
                for s in self._chunk(len(nodes))
            ]
        return nodes[0]

    def _chunk(self, n: int) -> List[slice]:
        """Cut n entries into near-equal slices of about 3B/4, each of size
        in [Bmin, B - 1]; fewer than B entries stay one slice.

        Such a k exists for every n >= B: the ranges [k*Bmin, k*(B-1)]
        of consecutive k overlap because 2*Bmin <= B.
        """
        b = self.cfg.B
        if n < b:
            return [slice(0, n)]
        # nearest whole number to n / (3B/4), kept inside the feasible range
        k = (8 * n + 3 * b) // (6 * b)
        k = min(max(k, -(-n // (b - 1))), n // self._bmin)
        q, r = divmod(n, k)
        out, at = [], 0
        for j in range(k):
            size = q + 1 if j < r else q
            out.append(slice(at, at + size))
            at += size
        return out

    # ------------------------------------------------------------------
    # queries

    def __len__(self) -> int:
        return self._root.nleaves

    @property
    def total(self) -> int:
        return self._root.ps.total

    def sum(self, i: int) -> int:
        """Y[i] = Z[1] + ... + Z[i]."""
        node, slot, path = self._locate(i, self._root.nleaves, "sum")
        return node.ps.sum(slot) + sum(p.ps.sum(k - 1) for p, k in path if k > 1)

    def search(self, t: int) -> int:
        """Smallest i with Y[i] >= t, from one root-to-leaf walk; the walk
        leaves Y[i - 1] and entry i's item for ``find``."""
        before, node, j, path = self._descend(t)
        base = 0  # leaves left of the path, summed level by level
        for p, k in path:
            for c in p.kids[: k - 1]:
                base += c.nleaves
        self._found = before, node.kids[j - 1]
        self._finger = node, base + 1, tuple(path)
        return base + j

    def lookup(self, t: int) -> Tuple[int, Any]:
        """(Y[i - 1], item of entry i) for the smallest i with Y[i] >= t.

        The read descent: one root-to-leaf walk that takes each level's
        answer from its PackedSums and nothing else.  It sums no leaf
        counts, builds no path and leaves the finger where it was.
        """
        # _descend's loop without the path: folded into _descend, ``access``
        # on edit-dna seed 1 went 7.3 -> 8.0 us (2-core x86-64 VM, in process)
        t = index(t)
        if not 1 <= t <= self._root.ps.total:
            raise SearchOutOfRange(f"target {t} outside [1, {self._root.ps.total}]")
        node, before = self._root, 0
        while not node.bottom:
            k, y = node.ps._find(t)
            t -= y
            before += y
            node = node.kids[k - 1]
        j, y = node.ps._find(t)
        return before + y, node.kids[j - 1]

    def lookup_items(self, t: int) -> Tuple[int, Iterator[Any]]:
        """(Y[i - 1], the items of entries i, i + 1, ...) for the smallest
        i with Y[i] >= t.

        The read descent of ``lookup``, keeping its path to walk on to
        later bottom nodes: it sums no leaf counts and leaves the finger
        where it was.  The tree must not change while the items are read.
        """
        before, node, j, path = self._descend(t)
        bottoms = self._bottoms(node, j, path)
        return before, chain.from_iterable(b.kids[start:] for b, start in bottoms)

    def find(self, t: int) -> Tuple[int, int, Any]:
        """(i, Y[i - 1], item of entry i) for the smallest i with Y[i] >= t.

        One ``search``, whose walk already passed the other two: find is
        that search with its by-products, so whatever counts or times the
        seven operations sees it as one search.
        """
        i = self.search(t)
        return (i, *self._found)

    def values(self) -> List[int]:
        node, path = self._root, []
        while not node.bottom:
            path.append((node, 1))
            node = node.kids[0]
        return [v for b, _ in self._bottoms(node, 1, path) for v in b.ps.values()]

    def prefix_sums(self) -> List[int]:
        return list(accumulate(self.values()))

    # ------------------------------------------------------------------
    # items (uncounted: they navigate by leaf counts and touch no sums)

    def item(self, i: int) -> Any:
        """The item of entry i."""
        node, slot, _ = self._locate(i, self._root.nleaves, "item")
        return node.kids[slot - 1]

    def set_item(self, i: int, x: Any) -> None:
        """Make x the item of entry i."""
        node, slot, _ = self._locate(i, self._root.nleaves, "item")
        node.kids[slot - 1] = x

    def items_from(self, i: int) -> Iterator[Any]:
        """Items of entries i, i+1, ... in order; i may be len + 1.  The
        tree must not change while the walk is running."""
        node, slot, path = self._locate(i, self._root.nleaves + 1, "item")
        bottoms = self._bottoms(node, slot, list(path))
        return chain.from_iterable(node.kids[start:] for node, start in bottoms)

    def _bottoms(self, node: _Node, slot: int,
                 path: List[Tuple[_Node, int]]) -> Iterator[Tuple[_Node, int]]:
        """Bottom nodes from node, which path leads to, rightward by
        ``_step``, each with the 0-based item index to start from: slot - 1
        in the first, 0 in the rest.  The walk changes path in place and
        moves no finger."""
        yield node, slot - 1
        while (node := self._step(path, True)) is not None:
            yield node, 0

    # ------------------------------------------------------------------
    # descent helpers

    def _descend(self, t: int) -> Tuple[int, _Node, int, _Path]:
        """(Y[i - 1], bottom node holding entry i, its slot, the path down)
        for the smallest i with Y[i] >= t: the walk by prefix sum, which
        moves no finger."""
        t = index(t)
        if not 1 <= t <= self._root.ps.total:
            raise SearchOutOfRange(f"target {t} outside [1, {self._root.ps.total}]")
        node, before, path = self._root, 0, []
        while not node.bottom:
            k, y = node.ps._find(t)
            t -= y
            before += y
            path.append((node, k))
            node = node.kids[k - 1]
        j, y = node.ps._find(t)
        return before + y, node, j, path

    @staticmethod
    def _child_for(node: _Node, i: int) -> Tuple[int, int]:
        """(1-based child slot, index local to that child) for leaf i; an i
        past the subtree's end (the append position) goes to the last
        child."""
        kids = node.kids
        for k, child in enumerate(kids, 1):
            c = child.nleaves
            if i <= c:
                return k, i
            i -= c
        return len(kids), kids[-1].nleaves + i

    def _locate(self, i: int, last: int, op: str) -> Tuple[_Node, int, _Path]:
        """Bottom node holding leaf i, its local slot, and the path down;
        i = nleaves + 1 gives the slot just past the last leaf.

        First i must be an int in [1, last], or op's rejection: every op
        checks its position here before it walks, as a walk to a float i
        would leave it in the finger, and a growth would split a node
        first.  Then from the finger when leaf i is in its node, and the
        path is the finger's own tuple, which a caller copies before
        changing it; else from one step along the finger's path when leaf
        i is in the next bottom node on either side, or a walk from the
        root.  Both move the finger to the node they reach, so the finger
        is on the returned node whichever way it was found."""
        i = index(i)
        if not 1 <= i <= last:
            raise IndexOutOfRange(f"{op} index {i} outside [1, {last}]")
        if self._finger is not None:
            node, first, fpath = self._finger
            size = len(node.kids)
            if first <= i < first + size:
                return node, i - first + 1, fpath
            # a neighbor holds at most B leaves
            right = i >= first + size
            if (i - first - size if right else first - 1 - i) < self.cfg.B:
                path = list(fpath)
                nxt = self._step(path, right)
                if nxt is None:  # past the last node: the append position
                    return node, i - first + 1, fpath
                first = first + size if right else first - len(nxt.kids)
                if first <= i < first + len(nxt.kids):
                    self._finger = nxt, first, tuple(path)
                    return nxt, i - first + 1, path
        node, path, want = self._root, [], i
        while not node.bottom:
            k, i = self._child_for(node, i)
            path.append((node, k))
            node = node.kids[k - 1]
        self._finger = node, want - i + 1, tuple(path)
        return node, i, path

    @staticmethod
    def _step(path: List[Tuple[_Node, int]], right: bool) -> Optional[_Node]:
        """The bottom node next to the one path leads to, on the right or
        the left, with path changed in place to lead to it; None, with
        path emptied, when there is none."""
        depth = len(path)
        while path:
            parent, k = path.pop()
            if (k < len(parent.kids)) if right else k > 1:
                k += 1 if right else -1
                path.append((parent, k))
                node = parent.kids[k - 1]
                while len(path) < depth:
                    k = 1 if right else len(node.kids)
                    path.append((node, k))
                    node = node.kids[k - 1]
                return node
        return None

    # ------------------------------------------------------------------
    # structural surgery

    def _regroup(self, parent: _Node, lo: int, count: int) -> None:
        """Deal parent's 0-based children lo .. lo + count - 1 out again as
        one node per ``_chunk`` slice, and mend the parent's sums.  Each new
        node is packed afresh from its slice of the old nodes' prefix sums,
        as the constructor packs its values."""
        self._finger = None
        olds = parent.kids[lo : lo + count]
        ys = olds[0].ps.prefix_sums()
        kids = olds[0].kids[:]
        for c in olds[1:]:
            base = ys[-1] if ys else 0
            ys += [base + y for y in c.ps.prefix_sums()]
            kids += c.kids
        cuts = self._chunk(len(ys))
        news = []
        for s in cuts:
            base = ys[s.start - 1] if s.start else 0
            ps = PackedSums._of_sums([y - base for y in ys[s]], self.cfg)
            news.append(_Node(ps, kids[s], olds[0].bottom))
        parent.kids[lo : lo + count] = news
        # a split divides the parent's entry, a fuse merges two, and an even
        # share does both; each conserves the total
        if count == 2:
            parent.ps.merge(lo + 1)
        if len(cuts) == 2:
            parent.ps.divide(lo + 1, ys[cuts[0].stop - 1])

    def _make_room(self, node: _Node, slot: int, path: _Path) -> Tuple[_Node, int, _Path]:
        """Where ``_locate`` put leaf i (node, slot and path, the finger on
        node), made a bottom node with room for one more leaf; i may be
        nleaves + 1 (append position).  Its one trigger: that node's own
        ``divide`` or ``insert`` raised StructureFull.  While it is full,
        split the highest node of the run of full nodes directly above it,
        or grow the root a level if that run reaches it, and move the
        finger to the half holding leaf i, down the path the split left."""
        b = self.cfg.B
        i = self._finger[1] + slot - 1
        while len(node.kids) >= b:
            path = list(path)
            top = len(path)
            while top and len(path[top - 1][0].kids) >= b:
                top -= 1
            if not top:
                root = self._root
                self._root = _Node(PackedSums([root.ps.total], config=self.cfg), [root], False)
                path.insert(0, (self._root, 1))
                top = 1
            parent, k = path[top - 1]
            self._regroup(parent, k - 1, 1)
            left, right = parent.kids[k - 1 : k + 1]
            # the split node held the path's next node at slot j, or is the
            # bottom node, holding leaf i at slot j
            m = len(left.kids)
            j = path[top][1] if top < len(path) else slot
            if j > m:
                half, j = right, j - m
                path[top - 1] = (parent, k + 1)
            else:
                half = left
            if top < len(path):
                path[top] = (half, j)
            else:
                node, slot = half, j
            self._finger = node, i - slot + 1, tuple(path)
        return node, slot, path

    @staticmethod
    def _adjust(path: _Path, leaves: int, d: int = 0) -> None:
        """Add leaves to the leaf count of every node on path and, unless d
        is 0, d to the entry it holds for the path's next node."""
        for parent, k in path:
            parent.nleaves += leaves
            if d:
                # the bottom op bounded d, and an entry above it is a
                # subtree sum, which stays nonnegative with the entry
                parent.ps._shift(k, d)

    def _repair(self, node: _Node, path: _Path) -> None:
        """Restore minimum-degree invariants after node shrank: regroup an
        underfull node with its left neighbor, or its right one if first."""
        depth = len(path)
        while depth and len(node.kids) < self._bmin:
            depth -= 1
            parent, k = path[depth]
            self._regroup(parent, max(k - 2, 0), 2)
            node = parent
        # only a fuse leaves a root one child, and _regroup drops the finger
        root = self._root
        while not root.bottom and len(root.kids) == 1:
            root = root.kids[0]
        self._root = root

    # ------------------------------------------------------------------
    # the seven operations

    def update(self, i: int, d: int) -> None:
        """Z[i] += d."""
        d = index(d)
        node, slot, path = self._locate(i, self._root.nleaves, "update")
        try:
            node.ps.update(slot, d)  # validates delta width and sign
        except NegativeEntry:
            raise NegativeEntry(f"entry {i} would fall below zero") from None
        self._adjust(path, 0, d)

    def divide(self, i: int, t: int) -> None:
        """Split Z[i] = v into consecutive entries t, v - t; both keep
        Z[i]'s item."""
        node, slot, path = self._locate(i, self._root.nleaves, "divide")
        try:
            node.ps.divide(slot, t)  # validates the split point, then room
        except StructureFull:
            node, slot, path = self._make_room(node, slot, path)
            node.ps.divide(slot, t)
        node.kids.insert(slot, node.kids[slot - 1])
        node.nleaves += 1
        self._adjust(path, 1)

    def merge(self, i: int) -> None:
        """Replace Z[i], Z[i+1] by their sum, which keeps Z[i]'s item.  When
        Z[i] ends its bottom node, one op per level on each side moves it
        onto the next node's head, and no node gets a new PackedSums."""
        node, slot, path = self._locate(i, self._root.nleaves - 1, "merge")
        ps = node.ps
        if slot < len(node.kids):
            ps.merge(slot)
            del node.kids[slot]
        else:
            # v = Z[i] folds into the slot before, which then gives it back,
            # and joins node2's head; so does one entry per level on each
            # side below where the paths meet.  Each _shift lands on a head
            # (slot 1 always is), moving anchors only, or takes v off a last
            # slot, lowering one field to a sum it held before: none needs
            # the delta bound
            v = ps.total - ps._sum(slot - 1)
            ps.merge(slot - 1)
            ps._shift(slot - 1, -v)
            node2, _, path2 = self._locate(i + 1, self._root.nleaves, "merge")
            node2.ps._shift(1, v)
            node2.kids[0] = node.kids.pop()
            for (a, ka), (b, kb) in zip(reversed(path), reversed(path2)):
                if a is b:
                    # entries ka and ka + 1: a shift pair here could repack
                    # between its halves, leave ka + 1 a non-head at or
                    # under the gap and overflow its field with +v
                    a.ps.merge(ka)
                    a.ps.divide(ka, a.kids[ka - 1].ps.total)
                    break
                a.ps._shift(ka, -v)
                b.ps._shift(kb, v)
            # leaf i now heads node2; a regroup below drops the finger again
            self._finger = node2, i, tuple(path2)
        node.nleaves -= 1
        self._adjust(path, -1)
        self._repair(node, path)

    def insert(self, i: int, d: int) -> None:
        """Insert a new entry of value d, item None, before position i."""
        d = index(d)
        node, slot, path = self._locate(i, self._root.nleaves + 1, "insert")
        try:
            node.ps.insert(slot, d)  # validates the value's width, then room
        except StructureFull:
            node, slot, path = self._make_room(node, slot, path)
            node.ps.insert(slot, d)
        node.kids.insert(slot - 1, None)
        node.nleaves += 1
        self._adjust(path, 1, d)

    def delete(self, i: int) -> None:
        """Remove entry i; its value must fit in delta bits."""
        node, slot, path = self._locate(i, self._root.nleaves, "delete")
        ps = node.ps
        total = ps.total
        ps.delete(slot)  # validates the value's width
        del node.kids[slot - 1]
        node.nleaves -= 1
        self._adjust(path, -1, ps.total - total)
        self._repair(node, path)

    # ------------------------------------------------------------------
    # verification

    def validate(self) -> None:
        """Assert every structural invariant; test-build use."""
        root = self._root
        depths = set()

        def walk(node: _Node, depth: int, is_root: bool) -> int:
            node.ps.validate()
            assert len(node.kids) == len(node.ps)
            if not is_root:
                assert self._bmin <= len(node.kids) <= self.cfg.B, len(node.kids)
            if node.bottom:
                depths.add(depth)
                assert node.nleaves == len(node.kids)
                return node.ps.total
            if is_root:
                assert len(node.kids) >= 2, "uncollapsed root"
            vals = node.ps.values()
            total = 0
            for j, child in enumerate(node.kids):
                got = walk(child, depth + 1, False)
                assert got == vals[j], f"stale subtree sum at slot {j + 1}"
                total += got
            assert node.nleaves == sum(c.nleaves for c in node.kids)
            return total

        walk(root, 0, True)
        if self._finger is not None:
            node, first, path = self._finger
            self._finger = None
            got = self._locate(first, first, "validate")
            assert got == (node, 1, list(path)), "stale finger"
        assert len(depths) == 1, "leaves at unequal depths"
        s = root.nleaves
        if s >= 2:
            h = next(iter(depths))
            assert h <= ceil(log(s) / log(self._bmin)) + 1
