"""Static index over a reference string R.

Answers four kinds of queries for the compression layers above:

* ``lce(a, b)``: longest common extension of two suffixes of R.
* ``longest_match(text, start)``: longest prefix of ``text[start:]`` that
  occurs anywhere in R, with a witness position (greedy factorization).
* ``substring_concat(x, y)``: given two intervals of R, report a position
  where the concatenation R[x]·R[y] occurs in R, or None.
* ``occurrence(byte)``: some position of a single byte.

The index is a suffix array with inverse and LCP arrays, a sparse-table
range-minimum structure for constant-time LCE, and (built lazily, since
only ``substring_concat`` needs it) a suffix tree topology derived from
the LCP array, decomposed into heavy paths.  For every node u that starts
a heavy path we store the sorted ranks of the suffixes in u's interval
advanced by depth(u); concatenation queries reduce to one descent, two
LCE probes and one binary search over such a rank set.

Everything is immutable after construction and safe to share between
readers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .errors import CharNotInReference, EmptyReference, IndexOutOfRange, InvalidBlock

try:  # pragma: no cover - exercised implicitly by the fallback tests
    from numba import njit
except ImportError:  # pragma: no cover
    njit = None

__all__ = ["RefIndex", "build_index"]


# ----------------------------------------------------------------------
# suffix array construction (prefix doubling on numpy lexsort)

def _suffix_array(data: np.ndarray) -> np.ndarray:
    """SA of ``data`` (uint8), 0-based. A shorter suffix sorts before any
    longer suffix it prefixes, i.e. the usual sentinel order without a
    sentinel."""
    n = len(data)
    rank = data.astype(np.int64)
    k = 1
    order = np.argsort(rank, kind="stable")
    while True:
        key2 = np.full(n, -1, dtype=np.int64)
        key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        ro, ko = rank[order], key2[order]
        bump = np.empty(n, dtype=np.int64)
        bump[0] = 0
        if n > 1:
            bump[1:] = np.cumsum((ro[1:] != ro[:-1]) | (ko[1:] != ko[:-1]))
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[order] = bump
        rank = new_rank
        if bump[-1] == n - 1:
            return order.astype(np.int32)
        k *= 2


def _kasai(data: bytes, sa: np.ndarray, isa: np.ndarray) -> np.ndarray:
    """lcp[j] = length of common prefix of suffixes SA[j-1], SA[j]."""
    n = len(data)
    lcp = np.zeros(n, dtype=np.int32)
    h = 0
    for i in range(n):
        j = isa[i]
        if j > 0:
            k = sa[j - 1]
            while i + h < n and k + h < n and data[i + h] == data[k + h]:
                h += 1
            lcp[j] = h
            if h:
                h -= 1
        else:
            h = 0
    return lcp


class _Rmq:
    """Sparse-table range minimum over an int array; query on [lo, hi]."""

    __slots__ = ("_rows",)

    def __init__(self, arr: np.ndarray):
        rows = [arr]
        length, span = len(arr), 1
        while span * 2 <= length:
            prev = rows[-1]
            rows.append(np.minimum(prev[: len(prev) - span], prev[span:]))
            span *= 2
        self._rows = rows

    def min(self, lo: int, hi: int) -> int:
        k = (hi - lo + 1).bit_length() - 1
        row = self._rows[k]
        return min(row[lo], row[hi - (1 << k) + 1])


# ----------------------------------------------------------------------
# greedy factorization kernel

def _factorize_py(data, sa, text, starts, ends):
    """Greedy cover of ``text`` by longest matches in R, one suffix-array
    descent per block, written to ``starts``/``ends`` (0-based, inclusive).
    Stops after ``len(starts)`` blocks.  Returns (block count, -1), or
    (blocks so far, position) at the first byte absent from R."""
    n, m = len(data), len(text)
    nb = 0
    pos = 0
    while pos < m:
        lo, hi, d = 0, n, 0
        w = 0
        while pos + d < m:
            c = text[pos + d]
            # shrink [lo, hi) to suffixes whose char at offset d equals c
            a, b = lo, hi
            while a < b:
                mid = (a + b) // 2
                p = sa[mid] + d
                if (data[p] if p < n else -1) < c:
                    a = mid + 1
                else:
                    b = mid
            new_lo = a
            a, b = new_lo, hi
            while a < b:
                mid = (a + b) // 2
                p = sa[mid] + d
                if (data[p] if p < n else -1) <= c:
                    a = mid + 1
                else:
                    b = mid
            if new_lo == a:
                break
            lo, hi, d = new_lo, a, d + 1
            w = sa[lo]
        if d == 0:
            return nb, pos
        starts[nb] = w
        ends[nb] = w + d - 1
        nb += 1
        pos += d
        if nb == len(starts):
            break
    return nb, -1


if njit is not None:
    _factorize = njit(cache=True)(_factorize_py)
else:  # pragma: no cover
    _factorize = _factorize_py


# ----------------------------------------------------------------------

class RefIndex:
    """Immutable query index over a reference byte string."""

    __slots__ = (
        "data", "r", "_sa", "_isa", "_lcp", "_rmq", "_occ", "_np_data",
        "_tree",
    )

    def __init__(self, data: bytes):
        if len(data) == 0:
            raise EmptyReference("reference must contain at least one byte")
        self.data = bytes(data)
        self.r = len(data)
        self._np_data = np.frombuffer(self.data, dtype=np.uint8)
        self._sa = _suffix_array(self._np_data)
        isa = np.empty(self.r, dtype=np.int32)
        isa[self._sa] = np.arange(self.r, dtype=np.int32)
        self._isa = isa
        occ = np.zeros(256, dtype=np.int64)
        bytes_seen, first_at = np.unique(self._np_data, return_index=True)
        occ[bytes_seen] = first_at + 1
        self._occ = occ.tolist()
        # common-extension machinery and the concatenation tree are only
        # needed for edits; plain compression must not pay for them
        self._lcp = None
        self._rmq = None
        self._tree = None

    # ------------------------------------------------------------------
    # plain queries

    @property
    def suffix_array(self) -> np.ndarray:
        return self._sa

    def occurrence(self, byte: int) -> Optional[int]:
        """Some 1-based position of ``byte`` in R, or None."""
        p = self._occ[byte]
        return p if p else None

    def lce(self, a: int, b: int) -> int:
        """Longest common prefix length of suffixes R[a..] and R[b..]."""
        if not (1 <= a <= self.r and 1 <= b <= self.r):
            raise IndexOutOfRange(f"positions ({a}, {b}) outside [1, {self.r}]")
        return self._lce0(a - 1, b - 1)

    def _ensure_lce(self) -> None:
        if self._rmq is None:
            self._lcp = _kasai(self.data, self._sa, self._isa)
            self._rmq = _Rmq(self._lcp)

    def _lce0(self, a: int, b: int) -> int:
        if a == b:
            return self.r - a
        self._ensure_lce()
        ra, rb = int(self._isa[a]), int(self._isa[b])
        if ra > rb:
            ra, rb = rb, ra
        return int(self._rmq.min(ra + 1, rb))

    def longest_match(self, text: bytes, start: int) -> Tuple[int, Optional[int]]:
        """Longest prefix of text[start..] occurring in R, with 1-based
        witness start, or (0, None) if text[start] is absent from R."""
        if not 1 <= start <= len(text):
            raise IndexOutOfRange(f"start {start} outside [1, {len(text)}]")
        t = np.frombuffer(bytes(text), dtype=np.uint8)[start - 1 :]
        starts = np.empty(1, dtype=np.int64)
        ends = np.empty(1, dtype=np.int64)
        if _factorize(self._np_data, self._sa, t, starts, ends)[0] == 0:
            return 0, None
        return int(ends[0] - starts[0]) + 1, int(starts[0]) + 1

    def factorize(self, text: bytes) -> List[Tuple[int, int]]:
        """Greedy left-to-right cover of ``text`` by maximal reference
        matches; blocks as 1-based inclusive (start, end) pairs."""
        if not text:
            return []
        t = np.frombuffer(bytes(text), dtype=np.uint8)
        starts = np.empty(len(text), dtype=np.int64)
        ends = np.empty(len(text), dtype=np.int64)
        nb, bad = _factorize(self._np_data, self._sa, t, starts, ends)
        if bad >= 0:
            raise CharNotInReference(bad + 1, text[bad])
        return [(int(starts[k]) + 1, int(ends[k]) + 1) for k in range(nb)]

    # ------------------------------------------------------------------
    # suffix tree + heavy paths (lazy)

    def _check_block(self, blk: Tuple[int, int]) -> None:
        s, e = blk
        if not (1 <= s <= e <= self.r):
            raise InvalidBlock(f"block {blk} outside reference of length {self.r}")

    def substring_concat(
        self, x: Tuple[int, int], y: Tuple[int, int]
    ) -> Optional[int]:
        """1-based start of an occurrence of R[x]·R[y] in R, or None."""
        self._check_block(x)
        self._check_block(y)
        tree = self._tree if self._tree is not None else self._build_tree()
        return tree.concat(x, y)

    def _build_tree(self) -> "_Tree":
        self._ensure_lce()
        self._tree = _Tree(self)
        return self._tree

    # ------------------------------------------------------------------

    def validate(self, deep: bool = False) -> None:
        """Check SA/ISA/LCP coherence by direct character comparison; with
        ``deep`` also brute-force the tree topology and rank sets."""
        self._ensure_lce()
        data, sa, isa, lcp, n = self.data, self._sa, self._isa, self._lcp, self.r
        assert sorted(int(v) for v in sa) == list(range(n))
        assert all(sa[isa[i]] == i for i in range(n))
        for j in range(1, n):
            a, b = int(sa[j - 1]), int(sa[j])
            h = int(lcp[j])
            assert data[a : a + h] == data[b : b + h], "LCP overstated"
            ra, rb = data[a + h : a + h + 1], data[b + h : b + h + 1]
            assert ra != rb or (ra == b"" and rb != b""), "LCP understated"
            assert ra < rb or ra == b"", "SA out of order"
        if deep:
            tree = self._tree if self._tree is not None else self._build_tree()
            tree.validate()


def build_index(data: bytes) -> RefIndex:
    """Index a reference string for the query operations above."""
    return RefIndex(data)


# ----------------------------------------------------------------------

class _Tree:
    """Suffix tree topology over the owner's SA/LCP, heavy-path arrays,
    and per-path-top advanced-rank sets.

    Node ids: leaf j (the j-th SA slot) is node j; internal nodes follow
    from id n upward.  ``l``/``r`` give each node's SA interval, ``depth``
    its string depth.
    """

    __slots__ = (
        "idx", "n", "l", "r", "depth", "parent",
        "child_off", "child_ids", "child_chars",
        "top_of", "path_pos", "path_off", "path_nodes", "path_bottom",
        "du_off", "du_flat",
    )

    def __init__(self, idx: RefIndex):
        self.idx = idx
        n = idx.r
        self.n = n
        sa, lcp, data = idx._sa, idx._lcp, idx.data

        # --- internal nodes from lcp intervals (stack sweep) ---
        int_depth: List[int] = []
        int_l: List[int] = []
        int_r: List[int] = []
        stack: List[List[int]] = [[0, 0]]  # [depth, left]
        for j in range(1, n + 1):
            lv = int(lcp[j]) if j < n else -1
            left = j - 1
            while stack and stack[-1][0] > lv:
                d, sl = stack.pop()
                int_depth.append(d)
                int_l.append(sl)
                int_r.append(j - 1)
                left = sl
            if not stack or stack[-1][0] < lv:
                stack.append([lv, left])

        m = len(int_depth)
        total = n + m
        depth = np.empty(total, dtype=np.int64)
        l = np.empty(total, dtype=np.int64)
        r = np.empty(total, dtype=np.int64)
        depth[:n] = n - sa.astype(np.int64)
        l[:n] = np.arange(n)
        r[:n] = np.arange(n)
        depth[n:] = int_depth
        l[n:] = int_l
        r[n:] = int_r
        self.depth, self.l, self.r = depth, l, r

        # --- parents by sweeping interval openings left to right ---
        # order internal nodes by (l asc, r desc, depth asc): outer first
        order = sorted(range(n, total), key=lambda u: (l[u], -r[u], depth[u]))
        root = order[0]
        parent = np.full(total, -1, dtype=np.int64)
        open_stack = [root]
        k = 1
        for j in range(n):
            while open_stack and r[open_stack[-1]] < j:
                open_stack.pop()
            while k < m and l[order[k]] == j:
                u = order[k]
                while open_stack and r[open_stack[-1]] < j:
                    open_stack.pop()
                parent[u] = open_stack[-1]
                open_stack.append(u)
                k += 1
            parent[j] = open_stack[-1]
        self.parent = parent

        # --- children in CSR form; SA interval order == edge-char order ---
        ids = np.arange(total)
        ids = ids[parent[ids] >= 0]
        ids = ids[np.lexsort((l[ids], parent[ids]))]
        counts = np.zeros(total + 1, dtype=np.int64)
        np.add.at(counts, parent[ids] + 1, 1)
        self.child_off = np.cumsum(counts)
        self.child_ids = ids
        # first edge char: R[SA[l[u]] + depth(parent)]; -1 when the suffix
        # is exhausted exactly at the parent (shortest-in-interval leaf)
        starts = sa.astype(np.int64)[l[ids]]
        cpos = starts + depth[parent[ids]]
        edge = idx._np_data[np.minimum(cpos, n - 1)].astype(np.int64)
        self.child_chars = np.where(cpos < n, edge, -1)

        # --- heavy paths ---
        top_of = np.full(total, -1, dtype=np.int64)
        path_pos = np.zeros(total, dtype=np.int64)
        tops: List[int] = [root]
        path_nodes: List[int] = []
        path_off: List[int] = [0]
        path_bottom: List[int] = []
        t = 0
        while t < len(tops):
            u = tops[t]
            p = 0
            while True:
                top_of[u] = t
                path_pos[u] = p
                path_nodes.append(u)
                if u < n:
                    path_bottom.append(u)
                    break
                a, b = self.child_off[u], self.child_off[u + 1]
                kids = self.child_ids[a:b]
                sizes = r[kids] - l[kids]
                heavy = kids[int(np.argmax(sizes))]
                for c in kids:
                    if c != heavy:
                        tops.append(int(c))
                u, p = int(heavy), p + 1
            path_off.append(len(path_nodes))
            t += 1
        self.top_of = top_of
        self.path_pos = path_pos
        self.path_off = np.asarray(path_off, dtype=np.int64)
        self.path_nodes = np.asarray(path_nodes, dtype=np.int64)
        self.path_bottom = np.asarray(path_bottom, dtype=np.int64)

        # --- advanced rank sets, one per heavy-path top ---
        isa64 = idx._isa.astype(np.int64)
        sa64 = sa.astype(np.int64)
        du_parts: List[np.ndarray] = []
        du_off = np.zeros(len(tops) + 1, dtype=np.int64)
        for ti, u in enumerate(tops):
            d = int(depth[u])
            adv = sa64[l[u] : r[u] + 1] + d
            adv = adv[adv < n]
            du = np.sort(isa64[adv])
            du_parts.append(du)
            du_off[ti + 1] = du_off[ti] + len(du)
        self.du_off = du_off
        self.du_flat = (
            np.concatenate(du_parts) if du_parts else np.empty(0, dtype=np.int64)
        )

    # ------------------------------------------------------------------

    def locus(self, pos: int, length: int) -> int:
        """Highest node whose string depth reaches ``length`` on the path
        to leaf ISA[pos]; 0-based pos, occurrence assumed in range."""
        leaf = int(self.idx._isa[pos])
        # chain of heavy-path tops from the leaf's path up to the root's
        chain = []
        u = leaf
        while True:
            t = int(self.top_of[u])
            chain.append(t)
            top_node = int(self.path_nodes[self.path_off[t]])
            pu = int(self.parent[top_node])
            if pu < 0:
                break
            u = pu
        depth, off = self.depth, self.path_off
        for ci in range(len(chain) - 1, -1, -1):
            t = chain[ci]
            # ancestors of the leaf form a prefix of this path, ending at
            # the node the next path (or the leaf itself) hangs off
            if ci == 0:
                last = int(self.path_pos[leaf])
            else:
                hop = int(self.parent[self.path_nodes[off[chain[ci - 1]]]])
                last = int(self.path_pos[hop])
            base = int(off[t])
            lo, hi = base, base + last + 1
            # first path node with depth >= length
            while lo < hi:
                mid = (lo + hi) // 2
                if depth[self.path_nodes[mid]] >= length:
                    hi = mid
                else:
                    lo = mid + 1
            if lo < base + last + 1:
                return int(self.path_nodes[lo])
        raise AssertionError("locus beyond leaf depth")

    def _child_by_char(self, q: int, c: int) -> int:
        a, b = int(self.child_off[q]), int(self.child_off[q + 1])
        chars = self.child_chars
        lo, hi = a, b
        while lo < hi:
            mid = (lo + hi) // 2
            if chars[mid] < c:
                lo = mid + 1
            else:
                hi = mid
        if lo < b and chars[lo] == c:
            return int(self.child_ids[lo])
        return -1

    def concat(self, x: Tuple[int, int], y: Tuple[int, int]) -> Optional[int]:
        idx, n = self.idx, self.n
        sa, data = idx._sa, idx.data
        x0, lx = x[0] - 1, x[1] - x[0] + 1
        y0, ly = y[0] - 1, y[1] - y[0] + 1

        v0 = self.locus(x0, lx)
        t = int(self.top_of[v0])
        bot = int(self.path_bottom[t])
        sb = int(sa[bot])

        ext = sb + lx
        f = min(idx._lce0(ext, y0), ly) if ext < n else 0
        if f == ly:
            return sb + 1

        # y diverges from the heavy path at string depth D
        big_d = lx + f
        off, depth, nodes = self.path_off, self.depth, self.path_nodes
        lo = int(off[t]) + int(self.path_pos[v0])
        hi = int(off[t + 1])
        while lo < hi:
            mid = (lo + hi) // 2
            if depth[nodes[mid]] >= big_d:
                hi = mid
            else:
                lo = mid + 1
        q = int(nodes[lo])
        if int(depth[q]) > big_d or q < n:
            # mid-edge mismatch, or the path ran out at a leaf
            return None
        u = self._child_by_char(q, data[y0 + f])
        if u < 0:
            return None
        e = int(depth[u]) - big_d
        rem = ly - f
        su = int(sa[self.l[u]])
        if rem <= e:
            if idx._lce0(su + big_d, y0 + f) >= rem:
                return su + 1
            return None
        if idx._lce0(su + big_d, y0 + f) < e:
            return None
        # whole edge matched; intersect u's advanced ranks with the SA
        # interval of the still-unmatched tail of y
        tail = self.locus(y0 + f + e, rem - e)
        a, b = int(self.l[tail]), int(self.r[tail])
        ut = int(self.top_of[u])
        du = self.du_flat[self.du_off[ut] : self.du_off[ut + 1]]
        k = int(np.searchsorted(du, a, side="left"))
        if k < len(du) and du[k] <= b:
            return int(sa[int(du[k])]) - int(self.depth[u]) + 1
        return None

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Brute-force structural checks; test-size references only."""
        idx, n = self.idx, self.n
        sa, data = idx._sa, idx.data
        total = len(self.depth)
        for u in range(total):
            lu, ru, du = int(self.l[u]), int(self.r[u]), int(self.depth[u])
            # every suffix in the interval shares the node's path string
            pref = data[int(sa[lu]) : int(sa[lu]) + du]
            assert len(pref) == du
            for k in range(lu, ru + 1):
                s = int(sa[k])
                assert data[s : s + du] == pref
            p = int(self.parent[u])
            if p >= 0:
                assert self.l[p] <= lu and ru <= self.r[p]
                assert self.depth[p] < du or (u < n and self.depth[p] == du)
        # children partition the parent interval, in char order
        for u in range(n, total):
            a, b = int(self.child_off[u]), int(self.child_off[u + 1])
            kids = list(self.child_ids[a:b])
            assert kids, "childless internal node"
            spans = sorted((int(self.l[c]), int(self.r[c])) for c in kids)
            want = int(self.l[u])
            for cl, cr in spans:
                assert cl == want
                want = cr + 1
            assert want == int(self.r[u]) + 1
            chars = list(self.child_chars[a:b])
            assert chars == sorted(chars)
        # rank sets match their definition
        isa = idx._isa
        ntop = len(self.du_off) - 1
        for t in range(ntop):
            u = int(self.path_nodes[self.path_off[t]])
            d = int(self.depth[u])
            want = sorted(
                int(isa[int(sa[k]) + d])
                for k in range(int(self.l[u]), int(self.r[u]) + 1)
                if int(sa[k]) + d < n
            )
            got = list(self.du_flat[self.du_off[t] : self.du_off[t + 1]])
            assert got == want
        # each root-to-leaf walk crosses at most log2(n) + 1 path tops
        import math

        limit = math.log2(n) + 1 if n > 1 else 1
        for leaf in range(n):
            hops, u = 1, leaf
            while True:
                tn = int(self.path_nodes[self.path_off[self.top_of[u]]])
                p = int(self.parent[tn])
                if p < 0:
                    break
                hops += 1
                u = p
            assert hops <= limit + 1e-9
