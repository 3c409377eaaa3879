"""Dynamic partial sums over sequences of arbitrary length.

A leaf-oriented B-tree lifts the fixed-capacity :class:`~drc.partial_sums_small.PackedSums`
structure to unbounded sequence length.  Conceptually every entry of Z is a
leaf; in this representation the lowest tree level stores its leaves' values
directly as the entries of one PackedSums per node, and every level above
holds one PackedSums whose entry j is the exact subtree sum of child j.

Navigation is by leaf counts, so the seven operations each walk one
root-to-leaf path:

* ``sum`` / ``search`` / ``update`` touch one PackedSums per level.
* ``divide`` / ``insert`` add a leaf: nodes split top-down before they can
  overflow, and a split only needs a ``divide`` on the parent's sums (an
  exact split conserves the subtree total).
* ``merge`` / ``delete`` remove a leaf: underflowing nodes borrow from or
  fuse with a neighbor, fusing two child slots of the parent's sums.

Value movements that a delta-bounded ``update`` cannot express (boundary
leaves hopping between nodes, borrow/fuse repairs) rebuild the affected
nodes' PackedSums outright; a rebuild is O(B) and touches at most two nodes
per level.

Each bottom node also keeps one item per entry, in a plain list beside its
PackedSums: an opaque payload that rides along with its entry through every
split, borrow and fuse.  Items are read and written by the uncounted
accessors ``item``, ``set_item``, ``set_items`` (a run of consecutive
entries in one walk) and ``items_from``; ``divide`` copies the item into
both halves, ``merge`` keeps the left one, ``insert`` adds None.

A bulk build fills every node to about 3B/4, never to B, so the first
entries added after it land without splitting anything.

>>> t = SumTree([5, 1, 4, 7] * 50)
>>> t.sum(4), t.sum(23)
(17, 95)
>>> t.search(t.total)
200
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
    """One tree node.  Bottom nodes (children is None) hold leaf values in
    ps and their items in items, slot for slot; internal nodes hold child
    subtree sums in ps, slot for slot, and no items."""

    __slots__ = ("ps", "children", "nleaves", "items")

    def __init__(self, ps: PackedSums, children: Optional[List["_Node"]] = None,
                 items: Optional[list] = None):
        self.ps = ps
        self.children = children
        self.items = items
        self.nleaves = len(ps) if children is None else sum(c.nleaves for c in children)

    @property
    def size(self) -> int:
        # entries for bottom nodes, child count for internal ones
        return len(self.ps)


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

    __slots__ = ("cfg", "_bmin", "_root")

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
            return _Node(PackedSums((), config=self.cfg), items=[])
        cfg = self.cfg
        nodes = [_Node(PackedSums(chunk, config=cfg), items=its)
                 for chunk, its in zip(self._chunk(vals), self._chunk(items))]
        while len(nodes) > 1:
            nodes = [
                _Node(PackedSums([c.ps.total for c in group], config=cfg), group)
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
        node, acc = self._root, 0
        while node.children is not None:
            k, i = self._child_for(node, i)
            if k > 1:
                acc += node.ps.sum(k - 1)
            node = node.children[k - 1]
        return acc + node.ps.sum(i)

    def search(self, t: int) -> int:
        """Smallest i with Y[i] >= t."""
        if self._root.nleaves == 0:
            raise SearchOutOfRange("search on empty sequence")
        if not 1 <= t <= self.total:
            raise SearchOutOfRange(f"target {t} outside [1, {self.total}]")
        node, base = self._root, 0
        while node.children is not None:
            k = node.ps.search(t)
            if k > 1:
                t -= node.ps.sum(k - 1)
                for c in node.children[: k - 1]:
                    base += c.nleaves
            node = node.children[k - 1]
        return base + node.ps.search(t)

    def values(self) -> List[int]:
        out: List[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.children is None:
                out.extend(node.ps.values())
            else:
                stack.extend(reversed(node.children))
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
        return node.items[slot - 1]

    def set_item(self, i: int, x: Any) -> None:
        """Make x the item of entry i."""
        node, slot, _ = self._slot(i, self._root.nleaves)
        node.items[slot - 1] = x

    def set_items(self, i: int, xs: List[Any]) -> None:
        """Make xs[k] the item of entry i + k for every k, in one walk."""
        n = self._root.nleaves
        if not 1 <= i <= n + 1 - len(xs):
            raise IndexOutOfRange(f"items {i}..{i + len(xs) - 1} outside [1, {n}]")
        if not xs:
            return
        done = 0
        for node, start in self._bottoms(*self._locate(i)):
            take = min(len(node.items) - start, len(xs) - done)
            node.items[start : start + take] = xs[done : done + take]
            done += take
            if done == len(xs):
                return

    def items_from(self, i: int) -> Iterator[Any]:
        """Items of entries i, i+1, ... in order; i may be len + 1.  The
        tree must not change while the walk is running."""
        bottoms = self._bottoms(*self._slot(i, self._root.nleaves + 1))
        return chain.from_iterable(node.items[start:] for node, start in bottoms)

    @staticmethod
    def _bottoms(node: _Node, slot: int, path: _Path) -> Iterator[Tuple[_Node, int]]:
        """Bottom nodes from node rightward, each with the 0-based item
        index to start from: slot - 1 in the first, 0 in the rest."""
        yield node, slot - 1
        while path:
            parent, k = path.pop()
            if k == len(parent.children):
                continue
            path.append((parent, k + 1))
            node = parent.children[k]
            while node.children is not None:
                path.append((node, 1))
                node = node.children[0]
            yield node, 0

    # ------------------------------------------------------------------
    # descent helpers

    @staticmethod
    def _child_for(node: _Node, i: int) -> Tuple[int, int]:
        """(1-based child slot, index local to that child) for leaf i; an i
        past the subtree's end (the append position) goes to the last
        child."""
        children = node.children
        for k, child in enumerate(children, 1):
            c = child.nleaves
            if i <= c:
                return k, i
            i -= c
        return len(children), children[-1].nleaves + i

    def _locate(self, i: int) -> Tuple[_Node, int, _Path]:
        """Bottom node holding leaf i, its local slot, and the path down;
        i = nleaves + 1 gives the slot just past the last leaf."""
        node, path = self._root, []
        while node.children is not None:
            k, i = self._child_for(node, i)
            path.append((node, k))
            node = node.children[k - 1]
        return node, i, path

    # ------------------------------------------------------------------
    # structural surgery

    def _refresh(self, node: _Node) -> None:
        """Recompute an internal node's sums and leaf count from children."""
        node.ps = PackedSums([c.ps.total for c in node.children], config=self.cfg)
        node.nleaves = sum(c.nleaves for c in node.children)

    def _split_child(self, parent: _Node, k: int) -> None:
        """Split parent's full k-th child (1-based) into two; parent must
        have a free slot."""
        child = parent.children[k - 1]
        vals = child.ps.values()
        mid = len(vals) // 2
        left_sum = sum(vals[:mid])
        if child.children is None:
            child.ps = PackedSums(vals[:mid], config=self.cfg)
            child.nleaves = mid
            right = _Node(PackedSums(vals[mid:], config=self.cfg), items=child.items[mid:])
            del child.items[mid:]
        else:
            moved = child.children[mid:]
            child.children = child.children[:mid]
            child.ps = PackedSums(vals[:mid], config=self.cfg)
            child.nleaves = sum(c.nleaves for c in child.children)
            right = _Node(PackedSums(vals[mid:], config=self.cfg), moved)
        parent.children.insert(k, right)
        parent.ps.divide(k, left_sum)

    def _grow_root_if_full(self) -> None:
        root = self._root
        if root.size >= self.cfg.B:
            new = _Node(PackedSums([root.ps.total], config=self.cfg), [root])
            self._root = new
            self._split_child(new, 1)

    def _descend_for_growth(self, i: int) -> Tuple[_Node, int, _Path]:
        """Like _locate, but splits any full node before entering it, so the
        bottom node is guaranteed to have room.  i may be nleaves + 1
        (append position)."""
        self._grow_root_if_full()
        node, path, b = self._root, [], self.cfg.B
        while node.children is not None:
            k, local = self._child_for(node, i)
            if len(node.children[k - 1].ps) >= b:
                self._split_child(node, k)
                k, local = self._child_for(node, i)
            path.append((node, k))
            node, i = node.children[k - 1], local
        return node, i, path

    def _repair(self, node: _Node, path: _Path) -> None:
        """Restore minimum-degree invariants after node shrank."""
        bmin = self._bmin
        while path and node.size < bmin:
            parent, k = path.pop()
            # 0-based sibling indexes; node itself sits at k - 1
            left = k - 2 if k > 1 else None
            right = k if k < len(parent.children) else None
            donor = None
            if left is not None and parent.children[left].size > bmin:
                donor, take_last = parent.children[left], True
            elif right is not None and parent.children[right].size > bmin:
                donor, take_last = parent.children[right], False
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
        while root.children is not None and len(root.children) == 1:
            root = root.children[0]
        self._root = root

    def _borrow(self, node: _Node, donor: _Node, take_last: bool) -> None:
        if node.children is None:
            nv, dv = node.ps.values(), donor.ps.values()
            if take_last:
                nv.insert(0, dv.pop())
                node.items.insert(0, donor.items.pop())
            else:
                nv.append(dv.pop(0))
                node.items.append(donor.items.pop(0))
            node.ps = PackedSums(nv, config=self.cfg)
            donor.ps = PackedSums(dv, config=self.cfg)
            node.nleaves, donor.nleaves = len(nv), len(dv)
        else:
            moved = donor.children.pop(-1 if take_last else 0)
            if take_last:
                node.children.insert(0, moved)
            else:
                node.children.append(moved)
            self._refresh(node)
            self._refresh(donor)

    def _fuse(self, parent: _Node, lo: int) -> None:
        """Fuse parent's 0-based children lo and lo+1 into one node."""
        a, b = parent.children[lo], parent.children[lo + 1]
        if a.children is None:
            a.ps = PackedSums(a.ps.values() + b.ps.values(), config=self.cfg)
            a.items.extend(b.items)
            a.nleaves = len(a.ps)
        else:
            a.children.extend(b.children)
            self._refresh(a)
        parent.children.pop(lo + 1)
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
        node.items.insert(slot, node.items[slot - 1])
        node.nleaves += 1
        for parent, _ in path:
            parent.nleaves += 1

    def merge(self, i: int) -> None:
        """Replace Z[i], Z[i+1] by their sum, which keeps Z[i]'s item."""
        n = self._root.nleaves
        if not 1 <= i < n:
            raise IndexOutOfRange(f"merge index {i} outside [1, {n - 1}]")
        node, slot, path = self._locate(i)
        if slot < node.size:
            node.ps.merge(slot)
            del node.items[slot]
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
        node2.items[0] = node.items.pop()
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
        node.items.insert(slot - 1, None)
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
        del node.items[slot - 1]
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
            if node.children is None:
                depths.add(depth)
                assert node.nleaves == len(node.ps) == len(node.items)
                if not is_root:
                    assert self._bmin <= node.size <= self.cfg.B, node.size
                return node.ps.total
            assert len(node.children) == len(node.ps)
            if is_root:
                assert len(node.children) >= 2, "uncollapsed root"
            else:
                assert self._bmin <= node.size <= self.cfg.B, node.size
            vals = node.ps.values()
            total = 0
            for j, child in enumerate(node.children):
                got = walk(child, depth + 1, False)
                assert got == vals[j], f"stale subtree sum at slot {j + 1}"
                total += got
            assert node.nleaves == sum(c.nleaves for c in node.children)
            return total

        walk(root, 0, True)
        assert len(depths) == 1, "leaves at unequal depths"
        s = root.nleaves
        if s >= 2:
            h = next(iter(depths))
            assert h <= ceil(log(s) / log(self._bmin)) + 1
