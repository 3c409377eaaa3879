"""Dynamic partial sums over sequences of arbitrary length.

A leaf-oriented B-tree lifts the fixed-capacity :class:`~drc.partial_sums_small.PackedSums`
structure to unbounded sequence length.  Conceptually every entry of Z is a
leaf; in this representation the lowest tree level stores its leaves' values
directly as the entries of one PackedSums per node, and every level above
holds one PackedSums whose entry j is the exact subtree sum of child j.

Navigation is by leaf counts, so the seven operations each walk one
root-to-leaf path:

* ``sum`` / ``search`` / ``update`` touch one PackedSums per level.
  ``find`` is a ``search`` that also hands back what its walk passed:
  the prefix sum before the answer and the answer's item.
* ``divide`` / ``insert`` add a leaf: nodes split top-down before they can
  overflow, and a split only needs a ``divide`` on the parent's sums (an
  exact split conserves the subtree total).
* ``merge`` / ``delete`` remove a leaf: underflowing nodes borrow from or
  fuse with a neighbor, fusing two child slots of the parent's sums.

Value movements that a delta-bounded ``update`` cannot express (boundary
leaves hopping between nodes, borrow/fuse repairs) rebuild the affected
nodes' PackedSums outright; a rebuild is O(B) and touches at most two nodes
per level.

Every node has one shape: a PackedSums and a list of kids, slot for slot.
An internal node's kids are its child nodes; a bottom node's kids are its
entries' items, opaque payloads.  Split, borrow and fuse move each value
together with its kid, at every level alike.  Items are read and written
by the uncounted accessors ``item``, ``set_item``, ``set_items`` (a run of
consecutive entries in one walk) and ``items_from``; ``divide`` copies the
item into both halves, ``merge`` keeps the left one, ``insert`` adds None.

A bulk build fills every node to about 3B/4, never to B, so the first
entries added after it land without splitting anything.

>>> t = SumTree([5, 1, 4, 7] * 50)
>>> t.sum(4), t.sum(23)
(17, 95)
>>> t.search(t.total)
200
>>> t.find(18)  # (i, Y[i - 1], item of entry i)
(5, 17, None)
>>> t.divide(8, 3); t.values()[7:9]
[3, 4]
"""

from __future__ import annotations

from itertools import chain
from math import ceil, log
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from .errors import (
    BadConfig,
    DeleteTooLarge,
    DeltaTooLarge,
    IndexOutOfRange,
    NegativeEntry,
    SearchOutOfRange,
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
        self.recount()

    def recount(self) -> None:
        """Recompute the leaf count from the kids."""
        self.nleaves = len(self.kids) if self.bottom else sum(c.nleaves for c in self.kids)


# path element: (node, 1-based child slot taken)
_Path = List[Tuple[_Node, int]]


class SumTree:
    """Partial sums over Z[1..s] with no bound on s.

    Same seven-operation contract and same rejections as PackedSums; the
    capacity error disappears and ``divide``/``insert`` may grow the
    sequence forever.  All costs are O(B log s / log B) per operation.
    ``items``, if given, holds one payload per value; it defaults to None
    for every entry.
    """

    __slots__ = ("cfg", "_bmin", "_root", "_found")

    def __init__(self, values: Iterable[int] = (), items: Optional[Iterable[Any]] = None,
                 *, config: PsConfig | None = None):
        cfg = config if config is not None else DEFAULT_CONFIG
        if cfg.B < 4:
            # splitting a full node must leave both halves at or above B//2
            raise BadConfig(f"tree fanout B={cfg.B} below minimum 4")
        self.cfg = cfg
        self._bmin = cfg.B // 2
        vals = list(values)
        for v in vals:
            if v < 0:
                raise NegativeEntry(f"entry {v} is negative")
        its = [None] * len(vals) if items is None else list(items)
        if len(its) != len(vals):
            raise ValueError(f"{len(its)} items for {len(vals)} values")
        self._root = self._bulk_build(vals, its)

    # ------------------------------------------------------------------
    # construction

    def _bulk_build(self, vals: List[int], items: list) -> _Node:
        if not vals:
            return _Node(PackedSums((), config=self.cfg), [], True)
        cfg = self.cfg
        nodes = [_Node(PackedSums(chunk, config=cfg), its, True)
                 for chunk, its in zip(self._chunk(vals), self._chunk(items))]
        while len(nodes) > 1:
            nodes = [
                _Node(PackedSums([c.ps.total for c in group], config=cfg), group, False)
                for group in self._chunk(nodes)
            ]
        return nodes[0]

    def _chunk(self, seq: list) -> List[list]:
        """Split into near-equal pieces of about 3B/4, each of size in
        [Bmin, B - 1]; fewer than B elements stay one piece.

        Such a k exists for every n >= B: the ranges [k*Bmin, k*(B-1)]
        of consecutive k overlap because 2*Bmin <= B.
        """
        n, b = len(seq), self.cfg.B
        if n < b:
            return [seq]
        # nearest whole number to n / (3B/4), kept inside the feasible range
        k = (8 * n + 3 * b) // (6 * b)
        k = min(max(k, -(-n // (b - 1))), n // self._bmin)
        q, r = divmod(n, k)
        out, at = [], 0
        for j in range(k):
            size = q + 1 if j < r else q
            out.append(seq[at : at + size])
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
        n = self._root.nleaves
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"sum index {i} outside [1, {n}]")
        node, slot, path = self._locate(i)
        return node.ps.sum(slot) + sum(p.ps.sum(k - 1) for p, k in path if k > 1)

    def search(self, t: int) -> int:
        """Smallest i with Y[i] >= t, from one root-to-leaf walk; the walk
        leaves Y[i - 1] and entry i's item for ``find``."""
        if self._root.nleaves == 0:
            raise SearchOutOfRange("search on empty sequence")
        if not 1 <= t <= self.total:
            raise SearchOutOfRange(f"target {t} outside [1, {self.total}]")
        node, base, before = self._root, 0, 0
        while not node.bottom:
            k, y = node.ps._find(t)
            t -= y
            before += y
            for c in node.kids[: k - 1]:
                base += c.nleaves
            node = node.kids[k - 1]
        j, y = node.ps._find(t)
        self._found = before + y, node.kids[j - 1]
        return base + j

    def find(self, t: int) -> Tuple[int, int, Any]:
        """(i, Y[i - 1], item of entry i) for the smallest i with Y[i] >= t.

        One ``search``, whose walk already passed the other two: find is
        that search with its by-products, so whatever counts or times the
        seven operations sees it as one search.
        """
        i = self.search(t)
        return (i, *self._found)

    def values(self) -> List[int]:
        out: List[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.bottom:
                out.extend(node.ps.values())
            else:
                stack.extend(reversed(node.kids))
        return out

    def prefix_sums(self) -> List[int]:
        out, acc = [], 0
        for v in self.values():
            acc += v
            out.append(acc)
        return out

    # ------------------------------------------------------------------
    # items (uncounted: they navigate by leaf counts and touch no sums)

    def _slot(self, i: int, last: int) -> Tuple[_Node, int, _Path]:
        if not 1 <= i <= last:
            raise IndexOutOfRange(f"item index {i} outside [1, {last}]")
        return self._locate(i)

    def item(self, i: int) -> Any:
        """The item of entry i."""
        node, slot, _ = self._slot(i, self._root.nleaves)
        return node.kids[slot - 1]

    def set_item(self, i: int, x: Any) -> None:
        """Make x the item of entry i."""
        node, slot, _ = self._slot(i, self._root.nleaves)
        node.kids[slot - 1] = x

    def set_items(self, i: int, xs: List[Any]) -> None:
        """Make xs[k] the item of entry i + k for every k, in one walk."""
        n = self._root.nleaves
        if not 1 <= i <= n + 1 - len(xs):
            raise IndexOutOfRange(f"items {i}..{i + len(xs) - 1} outside [1, {n}]")
        if not xs:
            return
        done = 0
        for node, start in self._bottoms(*self._locate(i)):
            take = min(len(node.kids) - start, len(xs) - done)
            node.kids[start : start + take] = xs[done : done + take]
            done += take
            if done == len(xs):
                return

    def items_from(self, i: int) -> Iterator[Any]:
        """Items of entries i, i+1, ... in order; i may be len + 1.  The
        tree must not change while the walk is running."""
        bottoms = self._bottoms(*self._slot(i, self._root.nleaves + 1))
        return chain.from_iterable(node.kids[start:] for node, start in bottoms)

    @staticmethod
    def _bottoms(node: _Node, slot: int, path: _Path) -> Iterator[Tuple[_Node, int]]:
        """Bottom nodes from node rightward, each with the 0-based item
        index to start from: slot - 1 in the first, 0 in the rest."""
        yield node, slot - 1
        while path:
            parent, k = path.pop()
            if k == len(parent.kids):
                continue
            path.append((parent, k + 1))
            node = parent.kids[k]
            while not node.bottom:
                path.append((node, 1))
                node = node.kids[0]
            yield node, 0

    # ------------------------------------------------------------------
    # descent helpers

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

    def _locate(self, i: int) -> Tuple[_Node, int, _Path]:
        """Bottom node holding leaf i, its local slot, and the path down;
        i = nleaves + 1 gives the slot just past the last leaf."""
        node, path = self._root, []
        while not node.bottom:
            k, i = self._child_for(node, i)
            path.append((node, k))
            node = node.kids[k - 1]
        return node, i, path

    # ------------------------------------------------------------------
    # structural surgery

    def _refresh(self, node: _Node) -> None:
        """Recompute an internal node's sums and leaf count from children."""
        node.ps = PackedSums([c.ps.total for c in node.kids], config=self.cfg)
        node.recount()

    def _split_child(self, parent: _Node, k: int) -> None:
        """Split parent's full k-th child (1-based) into two; parent must
        have a free slot."""
        child = parent.kids[k - 1]
        vals = child.ps.values()
        mid = len(vals) // 2
        right = _Node(PackedSums(vals[mid:], config=self.cfg), child.kids[mid:], child.bottom)
        del child.kids[mid:]
        child.ps = PackedSums(vals[:mid], config=self.cfg)
        child.nleaves -= right.nleaves
        parent.kids.insert(k, right)
        parent.ps.divide(k, sum(vals[:mid]))

    def _grow_root_if_full(self) -> None:
        root = self._root
        if len(root.ps) >= self.cfg.B:
            new = _Node(PackedSums([root.ps.total], config=self.cfg), [root], False)
            self._root = new
            self._split_child(new, 1)

    def _descend_for_growth(self, i: int) -> Tuple[_Node, int, _Path]:
        """Like _locate, but splits any full node before entering it, so the
        bottom node is guaranteed to have room.  i may be nleaves + 1
        (append position)."""
        self._grow_root_if_full()
        node, path, b = self._root, [], self.cfg.B
        while not node.bottom:
            k, local = self._child_for(node, i)
            if len(node.kids[k - 1].ps) >= b:
                self._split_child(node, k)
                k, local = self._child_for(node, i)
            path.append((node, k))
            node, i = node.kids[k - 1], local
        return node, i, path

    def _repair(self, node: _Node, path: _Path) -> None:
        """Restore minimum-degree invariants after node shrank."""
        bmin = self._bmin
        while path and len(node.kids) < bmin:
            parent, k = path.pop()
            # 0-based sibling indexes; node itself sits at k - 1
            left = k - 2 if k > 1 else None
            right = k if k < len(parent.kids) else None
            donor = None
            if left is not None and len(parent.kids[left].kids) > bmin:
                donor, take_last = parent.kids[left], True
            elif right is not None and len(parent.kids[right].kids) > bmin:
                donor, take_last = parent.kids[right], False
            if donor is not None:
                self._borrow(node, donor, take_last)
                self._refresh(parent)
                return
            # fuse with a neighbor; combined size <= (bmin-1) + bmin <= B-1
            sib_k = left if left is not None else right
            lo = min(k - 1, sib_k)
            self._fuse(parent, lo)
            node = parent
        root = self._root
        while not root.bottom and len(root.kids) == 1:
            root = root.kids[0]
        self._root = root

    def _borrow(self, node: _Node, donor: _Node, take_last: bool) -> None:
        """Move donor's last (take_last) or first kid, with its value, to
        the near end of node."""
        nv, dv = node.ps.values(), donor.ps.values()
        src, dst = (-1, 0) if take_last else (0, len(nv))
        nv.insert(dst, dv.pop(src))
        node.kids.insert(dst, donor.kids.pop(src))
        node.ps = PackedSums(nv, config=self.cfg)
        donor.ps = PackedSums(dv, config=self.cfg)
        node.recount()
        donor.recount()

    def _fuse(self, parent: _Node, lo: int) -> None:
        """Fuse parent's 0-based children lo and lo+1 into one node."""
        a, b = parent.kids[lo], parent.kids[lo + 1]
        a.ps = PackedSums(a.ps.values() + b.ps.values(), config=self.cfg)
        a.kids.extend(b.kids)
        a.nleaves += b.nleaves
        parent.kids.pop(lo + 1)
        parent.ps.merge(lo + 1)

    # ------------------------------------------------------------------
    # the seven operations

    def update(self, i: int, d: int) -> None:
        """Z[i] += d."""
        n = self._root.nleaves
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"update index {i} outside [1, {n}]")
        node, slot, path = self._locate(i)
        node.ps.update(slot, d)  # validates delta width and sign
        for parent, k in path:
            parent.ps.update(k, d)

    def divide(self, i: int, t: int) -> None:
        """Split Z[i] = v into consecutive entries t, v - t; both keep
        Z[i]'s item."""
        n = self._root.nleaves
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"divide index {i} outside [1, {n}]")
        node, slot, path = self._descend_for_growth(i)
        node.ps.divide(slot, t)  # validates the split point
        node.kids.insert(slot, node.kids[slot - 1])
        node.nleaves += 1
        for parent, _ in path:
            parent.nleaves += 1

    def merge(self, i: int) -> None:
        """Replace Z[i], Z[i+1] by their sum, which keeps Z[i]'s item."""
        n = self._root.nleaves
        if not 1 <= i < n:
            raise IndexOutOfRange(f"merge index {i} outside [1, {n - 1}]")
        node, slot, path = self._locate(i)
        if slot < len(node.kids):
            node.ps.merge(slot)
            del node.kids[slot]
            node.nleaves -= 1
            for parent, _ in path:
                parent.nleaves -= 1
            self._repair(node, path)
            return
        # Z[i] ends this bottom node; fold it into the next node's head.
        node2, _, path2 = self._locate(i + 1)
        nv = node.ps.values()
        v1 = nv.pop()
        node.ps = PackedSums(nv, config=self.cfg)
        node.nleaves = len(nv)
        nv2 = node2.ps.values()
        nv2[0] += v1
        node2.ps = PackedSums(nv2, config=self.cfg)
        node2.kids[0] = node.kids.pop()
        # subtree sums changed by -v1 / +v1 below the fork; counts only on
        # the shrinking side
        fork = 0
        while fork < len(path) and path[fork][0] is path2[fork][0]:
            fork += 1
        for parent, _ in reversed(path[fork:]):
            self._refresh(parent)
        for parent, _ in reversed(path2[fork:]):
            self._refresh(parent)
        self._refresh(path[fork - 1][0])
        for parent, _ in path[: fork - 1]:
            parent.nleaves -= 1
        self._repair(node, path)

    def insert(self, i: int, d: int) -> None:
        """Insert a new entry of value d, item None, before position i."""
        if not 0 <= d < 1 << self.cfg.delta:
            raise DeltaTooLarge(f"insert value {d} outside [0, 2**{self.cfg.delta})")
        n = self._root.nleaves
        if not 1 <= i <= n + 1:
            raise IndexOutOfRange(f"insert index {i} outside [1, {n + 1}]")
        node, slot, path = self._descend_for_growth(i)
        node.ps.insert(slot, d)
        node.kids.insert(slot - 1, None)
        node.nleaves += 1
        for parent, k in path:
            parent.nleaves += 1
            parent.ps.update(k, d)

    def delete(self, i: int) -> None:
        """Remove entry i; its value must fit in delta bits."""
        n = self._root.nleaves
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"delete index {i} outside [1, {n}]")
        node, slot, path = self._locate(i)
        ps = node.ps
        v = ps.sum(slot) - (ps.sum(slot - 1) if slot > 1 else 0)
        if v >= 1 << self.cfg.delta:
            raise DeleteTooLarge(f"entry value {v} >= 2**{self.cfg.delta}")
        ps.delete(slot)
        del node.kids[slot - 1]
        node.nleaves -= 1
        for parent, k in path:
            parent.nleaves -= 1
            parent.ps.update(k, -v)
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
        assert len(depths) == 1, "leaves at unequal depths"
        s = root.nleaves
        if s >= 2:
            h = next(iter(depths))
            assert h <= ceil(log(s) / log(self._bmin)) + 1
