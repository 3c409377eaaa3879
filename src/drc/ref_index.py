"""Static index over a reference string R.

Answers four kinds of queries for the compression layers above:

* ``lce(a, b)``: longest common extension of two suffixes of R.
* ``longest_match(text, start)``: longest prefix of ``text[start:]`` that
  occurs anywhere in R, with a witness position (greedy factorization).
* ``substring_concat(x, y)``: given two intervals of R, report a position
  where the concatenation R[x]·R[y] occurs in R, or None.
* ``occurrence(byte)``: some position of a single byte.

The index is a suffix array with inverse and LCP arrays, all three from
one numpy sort of the suffixes on packed keys of their first few byte
codes and refinement rounds over the groups still tied
(Larsson-Sadakane), whose kept ranks give the LCP by binary lifting, and
the suffix keys: the first 8 bytes of each suffix in SA order as a
zero-padded big-endian uint64, 20 bytes per reference byte in all.  Then,
built lazily since only edits need them, the rows of a sparse table over
the LCP for constant-time LCE, row 0 the LCP itself, and a suffix tree
of LCP intervals (Abouelhoda-Kurtz-Ohlebusch), read off the nearest
smaller LCP values on those rows and split into heavy paths.  The index
holds each array once, in a slot of its own, so one object answers every
query and a dropped index is freed at once, without the cyclic
collector.  For every internal node u that starts a heavy path we store
the sorted ranks of the suffixes in u's interval advanced by depth(u).  A
concatenation query in which x or y occurs once in R, the common case
for long blocks, needs no descent: two LCP reads around the block's
suffix show that it is unique, and then R[x]·R[y] can start at one place
only, which a byte compare and at most one LCE probe check.  Any other
query reduces to at most two descents, two LCE probes and one binary
search over a rank set.  A descent is a bottom-up ``_locus`` walk: from
the leaf of an occurrence up one heavy path at a time, stopping at the
first path whose top is too shallow.  A one-byte block needs no walk: a
256-entry table holds the root's child for each byte.  Nor does a query
ask an LCE probe that one byte compare answers: the first byte of y
against the byte that follows x on its heavy path, or the first byte of
an edge that y's own byte picked.  Queries read the int32 arrays through
memoryviews over the same buffers and return plain ints.  So does the one
factorization kernel, the classical suffix-array search: it bisects the
SA memoryview on slices of R's bytes, so a text probe meets each suffix
in one C-level compare, and only inside the SA range whose suffix keys
equal the text's own 8-byte key, which two bisections over the keys
find.

>>> ix = build_index(b"banana")
>>> ix.factorize(b"bananaban")
[(1, 6), (1, 3)]
>>> ix.substring_concat((1, 2), (3, 4))  # "ba" + "na" starts R
1
>>> ix.substring_concat((5, 6), (1, 1)) is None  # "na" + "b" is absent
True

Everything is immutable after construction and safe to share between
readers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

import numpy as np

from .errors import CharNotInReference, EmptyReference, IndexOutOfRange, InvalidBlock

__all__ = ["RefIndex", "build_index"]


# ----------------------------------------------------------------------
# suffix, inverse suffix and LCP arrays (one sort on packed keys, then
# refinement of the groups still tied: Larsson-Sadakane)

# pairs of suffixes whose LCP one pass finishes at a time
_SLICE = 1 << 14


def _packed_keys(codes: np.ndarray, bits: int, k0: int) -> np.ndarray:
    """``keys[i]``: the k0 dense codes from position i on as one int64,
    first code highest, each stored as code + 1 in ``bits`` bits and 0 past
    the end of the string, plus a last, all-zero key for the end itself.
    Equal keys of two suffixes mean both hold k0 codes and agree on them.
    Horner over the bits of k0: each step doubles the codes a key holds,
    and a set bit appends one more.

    >>> keys = _packed_keys(np.array([1, 0, 2, 0, 2, 0]), 2, 3)  # banana: a, b, n = 0, 1, 2
    >>> [f"{v:06b}" for v in keys.tolist()]  # ban, ana, nan, ana, na, a, and the end
    ['100111', '011101', '110111', '011101', '110100', '010000', '000000']
    """
    plus1 = np.zeros(len(codes) + 1, dtype=np.uint16)  # code + 1 overflows a uint8
    plus1[:-1] = codes
    plus1[:-1] += 1
    keys, w = plus1.astype(np.int64), 1
    for bit in bin(k0)[3:]:
        wide = keys << bits * w
        wide[:-w] |= keys[w:]
        keys, w = wide, 2 * w
        if bit == "1":
            keys <<= bits
            keys[:-w] |= plus1[w:]
            w += 1
    return keys


def _shared_codes(x: np.ndarray, bits: int, k0: int) -> np.ndarray:
    """How many leading codes two packed keys share, given their XOR x > 0,
    as int32: k0 - 1 less the code that holds x's highest bit.  That bit
    comes from the exponent of x as a float, less one where rounding to
    53 bits carried x up to the next power of two."""
    f = x.astype(np.float64)
    top = np.empty(len(x), dtype=np.int32)
    np.frexp(f, out=(f, top))
    del f
    top -= (x >> (top - 1)) == 0
    top -= 1
    top //= np.int32(bits)
    return np.int32(k0 - 1) - top


def _sa_isa_lcp(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SA, ISA and LCP (int32, 0-based) of a string given as the dense
    ranks of its bytes.  A shorter suffix sorts before any longer suffix
    it prefixes, i.e. the usual sentinel order without a sentinel.

    One sort orders the suffixes by their first k0 codes, on the
    ``_packed_keys``: a code + 1 is at most σ, the number of distinct
    bytes, so k0 = 62 // bits(σ) fit in 62 bits, 20 for ACGT, 12 for
    lexicon text and 6 for all 256 bytes.  The suffixes with equal keys
    form a group, and a suffix's rank is the SA index where its group
    starts.  Each round then sorts only the members
    of groups of two or more, on (rank, rank h codes on), with h = k0,
    2·k0, 4·k0 ...; a suffix left alone in its group is in its final place
    and its rank is final, so after the last round the ranks are the ISA.
    The order within a group carries no meaning, so no sort needs to be
    stable; the rounds' sort is stable because it is fastest on the
    ordered runs of a periodic string.

    ``lcp[j]``, the common prefix of suffixes SA[j-1] and SA[j], comes
    from the XOR of their packed keys where the first sort parted them,
    as its order holds those keys next to each other.  A pair parted in
    round r shares k0·2^(r-1) codes and fewer than twice as many.  The
    rank snapshots kept per round lift it over the depths below that, top
    first: add h = k0·2^i where the ranks at depth h, h codes on, agree.
    Equal ranks at two positions mean both hold h real codes and agree on
    them, since a rank frozen alone in its group is unique, so the rank of
    -1 one past the end bounds the lifting.  The packed keys, rebuilt,
    finish it below k0."""
    n = len(codes)
    bits = (int(codes.max()) + 1).bit_length()
    k0 = 62 // bits
    keys = _packed_keys(codes, bits, k0)
    order = np.argsort(keys[:-1])
    x = np.take(keys, order)
    del keys  # rebuilt at the end if a pair shares k0 codes
    sa = order.astype(np.int32)
    del order
    x = x[1:] ^ x[:-1]
    new = np.ones(n + 1, dtype=bool)  # SA index j starts a group; so does n
    np.not_equal(x, 0, out=new[1:n])
    np.maximum(x, 1, out=x)
    short = np.zeros(n, dtype=np.uint8)  # the LCP of the pairs parted here
    short[1:] = _shared_codes(x, bits, k0)
    del x
    short[~new[:n]] = 0
    start = np.where(new[:n], np.arange(n, dtype=np.int32), 0)
    np.maximum.accumulate(start, out=start)
    rank = np.empty(n + 1, dtype=np.int32)
    rank[sa], rank[n] = start, -1
    # the SA indices still in groups of two or more, with their suffixes
    # and group starts.  A suffix left alone stays on these lists until an
    # eighth of them is, as a group of one that each round leaves alone
    live = np.flatnonzero(~(new[:-1] & new[1:])).astype(np.int32)
    suf, start = np.take(sa, live).astype(np.intp), np.take(start, live)
    del new
    # parted[j]: the round that parted suffixes SA[j-1] and SA[j], which
    # share at least k0·2^(round-1) codes then and fewer than k0·2^round;
    # 0 where the first sort parted them
    parted = np.zeros(n, dtype=np.uint8)
    ranks, h = [], k0
    while len(live):
        after = np.take(rank, suf + h, mode="clip")  # rank[n] = -1 past the end
        key = np.multiply(start, n + 1, dtype=np.int64)
        key += after
        order = np.argsort(key, kind="stable")
        del key
        suf = np.take(suf, order)
        after = np.take(after, order)
        del order
        tied = start[1:] == start[:-1]
        split = after[1:] != after[:-1]
        del after
        split &= tied
        parted[live[1:][split]] = len(ranks) + 1
        new = np.ones(len(live) + 1, dtype=bool)
        np.equal(split, tied, out=new[1:-1])  # split or not tied: split implies tied
        del tied, split
        start = np.where(new[:-1], live, 0)
        np.maximum.accumulate(start, out=start)
        ranks.append(rank.copy())  # the ranks at depth h
        rank[suf] = start
        alone = new[:-1] & new[1:]
        h *= 2
        done = np.count_nonzero(alone)
        if done == len(live):
            sa[live] = suf
            break
        if done * 8 > len(live):
            sa[live[alone]] = suf[alone]
            keep = np.flatnonzero(~alone)
            live, suf, start = np.take(live, keep), np.take(suf, keep), np.take(start, keep)
    lcp = np.zeros(n, dtype=np.int32)
    a, b, lift = sa[:-1], sa[1:], lcp[1:]
    if ranks:
        # a pair parted in round r starts at k0·2^(r-1) and is lifted at the
        # depths below that only, so the pairs lifted at one depth are a
        # prefix of all pairs ordered by round, last first, and none is
        # lifted at the deepest depth
        del ranks[-1]
        pair_round = parted[1:]
        lift[:] = np.take(np.array([0] + [k0 << i for i in range(len(ranks) + 1)],
                                   dtype=np.int32), pair_round)
        # at_least[r]: the pairs parted in round r or later
        at_least = np.cumsum(np.bincount(pair_round, minlength=len(ranks) + 3)[::-1])[::-1]
        pairs = np.argsort(pair_round, kind="stable")[::-1][: at_least[2]].astype(np.int32)
        del parted, pair_round
        pa, pb, pl = np.take(a, pairs), np.take(b, pairs), np.take(lift, pairs)
        while ranks:
            rk, depth = ranks.pop(), len(ranks)  # freed once used
            c = at_least[depth + 2]
            at = np.add(pa[:c], pl[:c], dtype=np.intp)
            ra = np.take(rk, at)
            np.add(pb[:c], pl[:c], out=at)
            np.add(pl[:c], k0 << depth, out=pl[:c], where=np.take(rk, at) == ra)
            del rk, ra, at
        lift[pairs] = pl
        del pairs, pa, pb, pl
    # the packed keys, rebuilt, finish the pairs the first sort left in one
    # group, a slice of pairs at a time to bound the scratch space
    keys = None
    for lo in range(0, n - 1, _SLICE):
        part = lift[lo : lo + _SLICE]
        deep = np.flatnonzero(part)
        if len(deep):
            if keys is None:
                keys = _packed_keys(codes, bits, k0)
            d = part[deep]
            x = np.take(keys, a[lo:][deep] + d)
            x ^= np.take(keys, b[lo:][deep] + d)
            part[deep] = d + _shared_codes(x, bits, k0)
    lcp += short
    return sa, rank[:n], lcp


def _sparse_table(lcp: memoryview) -> List[memoryview]:
    """Sparse-table range-minimum rows over the LCP: row k holds the
    minimum of the 2^k entries from each index on, as an int32 memoryview,
    and row 0 is ``lcp`` itself."""
    rows, prev, span = [lcp], np.asarray(lcp), 1
    while span * 2 <= len(lcp):
        prev = np.minimum(prev[:-span], prev[span:])
        rows.append(memoryview(prev))
        span *= 2
    return rows


def _nearest_smaller(rows: List[memoryview], left: bool) -> np.ndarray:
    """For each entry of row 0, the index of the nearest strictly smaller
    entry to its left (-1 if none) or right (the length if none), as int32.
    A cursor per entry skips the next 2^k entries, top row first, when
    their minimum is no smaller: one gather per row.

    >>> lcp = np.array([0, 1, 3, 0, 0, 2], dtype=np.int32)  # banana's
    >>> rows = _sparse_table(memoryview(lcp))
    >>> _nearest_smaller(rows, left=True).tolist(), _nearest_smaller(rows, left=False).tolist()
    ([-1, 0, 1, -1, -1, 4], [6, 3, 3, 6, 6, 6])
    """
    arr = np.asarray(rows[0])
    # entry j's skipped run: [cur, j) going left, [j + 1, cur) going
    # right.  Entries cut off by an end of the array are read as the
    # whole block at that end, which holds them: skipping it takes the
    # cursor past the end, where no smaller entry is left
    cur = np.arange(len(arr), dtype=np.int32) + np.int32(not left)
    for k in reversed(range(len(rows))):
        row, w = np.asarray(rows[k]), 1 << k
        at = np.maximum(cur - w, 0) if left else np.minimum(cur, len(row) - 1)
        cur += (np.take(row, at) >= arr) * np.int32(-w if left else w)
    return np.maximum(cur, 0) - 1 if left else np.minimum(cur, len(arr))


# ----------------------------------------------------------------------
# greedy factorization kernel

def _suffix_keys(data: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """``keys[j]``: the first 8 bytes of suffix SA[j] as a big-endian
    uint64, zero-padded past the end of R.  One gather of 8-byte windows
    over R padded with 7 zero bytes, read as big-endian words.

    >>> keys = _suffix_keys(np.frombuffer(b"banana", np.uint8), np.array([5, 3, 1]))
    >>> [hex(v) for v in keys.tolist()]  # a, ana, anana
    ['0x6100000000000000', '0x616e610000000000', '0x616e616e61000000']
    """
    padded = np.zeros(len(data) + 7, dtype=np.uint8)
    padded[: len(data)] = data
    rows = np.lib.stride_tricks.sliding_window_view(padded, 8)[sa]
    return rows.view(">u8").ravel().astype(np.uint64)


def _factorize(data, sa, keys, text, pos, limit):
    """Greedy cover of ``text[pos:]`` by longest matches in R = ``data``.
    Each block bisects R's suffix array ``sa`` on byte-slice keys
    (Manber-Myers search): a probe of the next k text bytes sorts between
    the suffixes at j - 1 and j, and the longer of its common prefixes
    with those two is the longest match within k bytes.  A match that
    fills the probe is tried again at twice the width, bisecting from j
    on: every suffix before j sorts before the longer probe too.  The
    witness is the first suffix in SA order that starts with the match:
    the one at j unless the one at j - 1 starts with it as well.

    Every byte-slice bisection runs inside one SA range [lo, hi): the
    suffixes whose ``keys`` entry, their first 8 bytes zero-padded,
    equals that of the text at ``pos``.  Two C-level bisections over the
    keys find it, and it holds the probe's insertion point: a suffix below
    it sorts before the probe, one above it after.  A suffix below the
    range shares fewer bytes with the probe than one inside it at j or
    later, and one above it fewer than 8.  Returns (blocks, -1) with at
    most ``limit`` 1-based inclusive blocks, or (blocks so far, position)
    at the first byte absent from R, 0-based."""
    n, m = len(data), len(text)
    key = lambda s: data[s : s + k]  # the first k bytes of a suffix, k as it is now
    blocks: List[Tuple[int, int]] = []
    while pos < m and len(blocks) < limit:
        head = text[pos : pos + 8]
        q = int.from_bytes(head, "big") << 64 - 8 * len(head)
        lo = bisect_left(keys, q)
        hi = bisect_right(keys, q, lo)
        k, j = 32, lo
        while True:
            t = text[pos : pos + k]
            j = bisect_left(sa, t, j, hi, key=key)
            # common prefixes with the suffixes at j - 1 and j, by the
            # highest differing bit of their XOR; the one below a nonempty
            # range loses to the one at j, and the one above the range
            # loses to a full 8-byte key at j - 1
            a = b = -1
            if j > 0 and (j > lo or lo == hi):
                s = sa[j - 1]
                h = min(len(t), n - s)
                x = int.from_bytes(t[:h], "big") ^ int.from_bytes(data[s : s + h], "big")
                a = h - (x.bit_length() + 7) // 8
            if j < n and (j < hi or a < 8):
                s = sa[j]
                h = min(len(t), n - s)
                x = int.from_bytes(t[:h], "big") ^ int.from_bytes(data[s : s + h], "big")
                b = h - (x.bit_length() + 7) // 8
            d = max(a, b, 0)
            if d < k:  # also when the text ends inside the probe
                break
            k *= 2
        if d == 0:
            return blocks, pos
        if a < d:
            w = sa[j]
        else:
            if d < 8:  # the match's own key range starts at or below lo
                q = int.from_bytes(t[:d], "big") << 64 - 8 * d
                lo = bisect_left(keys, q, 0, lo)
            w = sa[bisect_left(sa, t[:d], lo, j, key=key)]
        blocks.append((w + 1, w + d))
        pos += d
    return blocks, -1


# ----------------------------------------------------------------------

# the concatenation tree's arrays (see ``_build_tree``); ``_first``,
# published last, marks the tree built
_TREE = ("_left", "_right", "_depth", "_parent", "_child_off", "_child_ids", "_child_chars",
         "_top_of", "_path_pos", "_path_off", "_path_nodes", "_du_off", "_du_flat", "_first")


class RefIndex:
    """Immutable query index over a reference byte string."""

    __slots__ = ("data", "r", "_sa", "_isa", "_lcp", "_keys", "_rmq", "_occ") + _TREE

    def __init__(self, data: bytes):
        if len(data) == 0:
            raise EmptyReference("reference must contain at least one byte")
        self.data = bytes(data)
        self.r = len(data)
        data = np.frombuffer(self.data, dtype=np.uint8)
        # dense codes: each byte's rank among the bytes present, by a count
        # and a 256-entry table, not a sort
        present = np.flatnonzero(np.bincount(data, minlength=256))
        table = np.zeros(256, dtype=np.uint8)
        table[present] = np.arange(len(present))
        self._occ = [0] * 256
        for c in present.tolist():
            self._occ[c] = self.data.find(bytes((c,))) + 1
        sa, isa, lcp = _sa_isa_lcp(np.take(table, data))
        # queries read single entries: through a memoryview over the same
        # buffer each read is a plain int, about 5x cheaper than numpy's
        self._sa, self._isa, self._lcp = memoryview(sa), memoryview(isa), memoryview(lcp)
        self._keys = memoryview(_suffix_keys(data, sa))
        # the RMQ rows and the concatenation tree are only needed for
        # edits; plain compression must not pay for them
        self._rmq = None
        self._first = None

    # ------------------------------------------------------------------
    # plain queries

    @property
    def suffix_array(self) -> np.ndarray:
        return np.asarray(self._sa)

    def occurrence(self, byte: int) -> Optional[int]:
        """Some 1-based position of ``byte`` in R, or None (also for a
        value outside 0..255)."""
        p = self._occ[byte] if 0 <= byte <= 255 else 0
        return p if p else None

    def lce(self, a: int, b: int) -> int:
        """Longest common prefix length of suffixes R[a..] and R[b..]."""
        if not (1 <= a <= self.r and 1 <= b <= self.r):
            raise IndexOutOfRange(f"positions ({a}, {b}) outside [1, {self.r}]")
        self._ensure_lce()
        return self._lce0(a - 1, b - 1)

    def _ensure_lce(self) -> None:
        if self._rmq is None:
            self._rmq = _sparse_table(self._lcp)

    def _lce0(self, a: int, b: int) -> int:
        """lce of 0-based positions, the RMQ built: the least LCP in SA
        slots (ra, rb], the lesser of two overlapping entries of one row."""
        if a == b:
            return self.r - a
        ra, rb = self._isa[a], self._isa[b]
        if ra > rb:
            ra, rb = rb, ra
        k = (rb - ra).bit_length() - 1
        row = self._rmq[k]
        return min(row[ra + 1], row[rb - (1 << k) + 1])

    def longest_match(self, text: bytes, start: int) -> Tuple[int, Optional[int]]:
        """Longest prefix of text[start..] occurring in R, with 1-based
        witness start, or (0, None) if text[start] is absent from R."""
        if not 1 <= start <= len(text):
            raise IndexOutOfRange(f"start {start} outside [1, {len(text)}]")
        blocks, _ = _factorize(self.data, self._sa, self._keys, bytes(text), start - 1, 1)
        if not blocks:
            return 0, None
        s, e = blocks[0]
        return e - s + 1, s

    def factorize(self, text: bytes) -> List[Tuple[int, int]]:
        """Greedy left-to-right cover of ``text`` by maximal reference
        matches; blocks as 1-based inclusive (start, end) pairs."""
        text = bytes(text)
        blocks, bad = _factorize(self.data, self._sa, self._keys, text, 0, len(text))
        if bad >= 0:
            raise CharNotInReference(bad + 1, text[bad])
        return blocks

    # ------------------------------------------------------------------
    # suffix tree + heavy paths (lazy)

    def _check_block(self, blk: Tuple[int, int]) -> Tuple[int, int]:
        """The block as an (s, e) tuple, once it is checked to be one: a
        tuple as it is, and any other pair, such as a list, copied."""
        try:
            s, e = blk
        except ValueError:
            raise InvalidBlock(f"block {blk!r} is not a (start, end) pair") from None
        if not (1 <= s <= e <= self.r):
            raise InvalidBlock(f"block {blk} outside reference of length {self.r}")
        return blk if type(blk) is tuple else (s, e)

    def substring_concat(
        self, x: Tuple[int, int], y: Tuple[int, int]
    ) -> Optional[int]:
        """1-based start of an occurrence of R[x]·R[y] in R, or None."""
        try:
            (xs, xe), (ys, ye) = x, y
            ok = 1 <= xs <= xe <= self.r and 1 <= ys <= ye <= self.r
        except (TypeError, ValueError):
            ok = False
        if not ok:  # raise what checking each block in turn raises
            self._check_block(x)
            self._check_block(y)
        if self._first is None:
            self._build_tree()
        return self._concat(xs - 1, xe - xs + 1, ys - 1, ye - ys + 1)

    def _build_tree(self) -> None:
        """Build the RMQ if need be, then the suffix tree over SA/LCP with
        its heavy paths and per-path-top advanced-rank sets, by array ops,
        each an int32 memoryview over its ndarray.

        Leaf j (the j-th SA slot) is node j; internal nodes are numbered
        from r (the root) in (SA interval start, depth) order.  ``_left``
        and ``_right`` give each node's SA interval, ``_depth`` its string
        depth.  Path j is the heavy path ending at leaf j; a leaf top's rank
        set is empty.  ``_first[c]`` is the root's child whose edge starts
        with byte c, or -1.  The arrays are published together at the end,
        ``_first`` last, so a build that raises leaves the tree unbuilt."""
        self._ensure_lce()
        n = self.r
        sa, isa, lcp = self.suffix_array, np.asarray(self._isa), np.asarray(self._lcp)

        # --- LCP intervals from nearest smaller values ---
        # boundary j, between SA slots j - 1 and j (lcp[0] = 0 stands for
        # the root's), lies in the interval of depth lcp[j] bounded by its
        # nearest smaller LCPs; a node is a distinct (left end, depth)
        left = np.maximum(_nearest_smaller(self._rmq, left=True), 0)
        key = left.astype(np.int64) * n + lcp
        order = np.argsort(key)
        first = np.diff(key[order], prepend=-1) != 0
        del key
        node_of = np.empty(n, dtype=np.int32)  # the root, key 0, is node n
        node_of[order] = np.cumsum(first, dtype=np.int32) + np.int32(n - 1)
        rep = order[first]  # one boundary of each node
        del order, first
        total = n + len(rep)
        leaves = np.arange(n, dtype=np.int32)
        depth = np.concatenate((n - sa, lcp[rep]))
        l = np.concatenate((leaves, left[rep]))
        r = np.concatenate((leaves, _nearest_smaller(self._rmq, left=False)[rep] - 1))
        del left, rep
        # a node or leaf [i, k] hangs off the deeper of boundaries i and
        # k + 1 (if k + 1 < n); equally deep, both lie in that one node
        side = np.minimum(r + 1, n - 1)
        np.copyto(side, l, where=(r == n - 1) | (lcp[side] <= lcp[l]))
        parent = node_of[side]
        parent[n] = -1
        del side, node_of

        # --- children in CSR form; SA interval order == edge-char order ---
        ids = np.lexsort((l, parent))[1:].astype(np.int32)  # the root sorts first
        par = parent[ids]
        child_off = np.zeros(total + 1, dtype=np.int32)
        np.cumsum(np.bincount(par, minlength=total), out=child_off[1:])
        # first edge char: R[SA[l[u]] + depth(parent)], -1 when the suffix
        # is exhausted exactly at the parent (shortest-in-interval leaf);
        # no suffix is shorter than its node, so the sum stays within n
        cpos = sa[l[ids]] + depth[par]
        edge = np.frombuffer(self.data, np.uint8)[np.minimum(cpos, n - 1)].astype(np.int32)
        child_chars = np.where(cpos < n, edge, np.int32(-1))
        del cpos, edge
        # the root's child for each byte, -1 for a byte absent from R: the
        # locus of every one-byte block
        by_byte = np.full(256, -1, dtype=np.int32)
        kids = slice(child_off[n], child_off[n + 1])
        by_byte[child_chars[kids]] = ids[kids]

        # --- heavy paths ---
        # heavy child: the largest, ties to the first in edge-char order
        # (lexsort is stable); path tops are the nodes no parent picks
        heavy = ids[np.lexsort((l[ids] - r[ids], par))[child_off[n:total]]]
        del par
        # pointer jumping: up[u] is the node pos[u] steps up u's path
        up = np.arange(total, dtype=np.int32)
        up[heavy] = parent[heavy]
        pos = np.zeros(total, dtype=np.int32)
        pos[heavy] = 1
        del heavy
        while not np.array_equal(nxt := up[up], up):  # until up[u] is u's top
            pos += pos[up]
            up = nxt
        del nxt
        # a path ends at its one leaf: path j is leaf j's
        top_of = np.empty(total, dtype=np.int32)
        top_of[up[:n]] = leaves
        top_of = top_of[up]
        paths = np.flatnonzero(up[:n] >= n).astype(np.int32)  # with internal tops
        inner = up[paths]
        del up
        off = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(pos[:n] + 1, out=off[1:])
        path_nodes = np.empty(total, dtype=np.int32)
        path_nodes[off[top_of] + pos] = np.arange(total, dtype=np.int32)

        # --- advanced rank sets of the internal tops; the suffixes of u
        # share their first depth(u) chars, so advancing them keeps their
        # SA order; one exactly depth(u) long runs off R and sorts first ---
        lo, d = l[inner], depth[inner]
        lo += sa[lo] + d == n
        sizes = r[inner] - lo + 1
        if sizes.sum(dtype=np.int64) >= 2 ** 31:
            raise OverflowError("rank sets exceed int32 offsets")
        du_off = np.zeros(n + 1, dtype=np.int32)
        du_off[paths + 1] = sizes
        np.cumsum(du_off, out=du_off)
        slot = np.repeat(lo - du_off[paths], sizes)
        slot += np.arange(len(slot), dtype=np.int32)
        adv = sa[slot]
        del slot
        adv += np.repeat(d, sizes)
        du_flat = isa[adv]
        del adv
        built = (l, r, depth, parent, child_off, ids, child_chars, top_of, pos, off,
                 path_nodes, du_off, du_flat, by_byte)
        for name, arr in zip(_TREE, built):  # plain-int reads, as for R's SA
            setattr(self, name, memoryview(arr))

    def _locus(self, pos: int, length: int) -> int:
        """Highest node whose string depth reaches ``length`` on the path
        to leaf ISA[pos]; 0-based pos, 1 <= length <= r - pos.

        Walks up from the leaf one heavy path at a time: the first path
        whose top is shallower than ``length`` holds the answer between its
        top and the node the walk entered it by; a top that is deep enough
        is the answer when its parent is not.  The root, of depth 0, tops
        its own path, so the walk stops there at the latest."""
        depth, parent, off, nodes = self._depth, self._parent, self._path_off, self._path_nodes
        u = self._isa[pos]
        while True:
            o = off[self._top_of[u]]
            top = nodes[o]
            if depth[top] < length:
                # depths grow down a path
                hi = o + self._path_pos[u] + 1
                return nodes[bisect_left(nodes, length, o, hi, key=depth.__getitem__)]
            u = parent[top]
            if depth[u] < length:
                return top

    def _child_by_char(self, q: int, c: int) -> int:
        a, b = self._child_off[q], self._child_off[q + 1]
        chars = self._child_chars
        lo = bisect_left(chars, c, a, b)
        if lo < b and chars[lo] == c:
            return self._child_ids[lo]
        return -1

    def _concat(self, x0: int, lx: int, y0: int, ly: int) -> Optional[int]:
        """1-based start of an occurrence of R[x0 : x0 + lx]·R[y0 : y0 + ly]
        in R, or None; 0-based starts, both blocks nonempty and inside R,
        the tree built.

        A block that occurs once forces the answer, and no walk runs: its
        suffix shares fewer than its length bytes with both neighbours in
        SA order, two LCP reads.  R[x]·R[y] can then start only where x
        does, or only ``lx`` bytes before y, and a byte compare and at
        most one LCE probe decide whether it does.  "b" occurs once in
        banana, so "b" + "an" is found at x's own start and "b" + "n" is
        absent:

        >>> ix = build_index(b"banana")
        >>> ix._build_tree()
        >>> ix._concat(0, 1, 1, 2), ix._concat(0, 1, 2, 1)
        (1, None)

        Otherwise the query climbs to x's locus and follows its heavy
        path."""
        n = self.r
        data, lcp, isa = self.data, self._lcp, self._isa
        k = isa[x0]
        if lcp[k] < lx and (k + 1 == n or lcp[k + 1] < lx):  # x occurs once
            e = x0 + lx
            if e < n and data[e] == data[y0] and (ly == 1 or self._lce0(e, y0) >= ly):
                return x0 + 1
            return None
        k = isa[y0]
        if lcp[k] < ly and (k + 1 == n or lcp[k + 1] < ly):  # y occurs once
            b = y0 - lx
            if b >= 0 and data[y0 - 1] == data[x0 + lx - 1] and (
                    lx == 1 or self._lce0(b, x0) >= lx):
                return b + 1
            return None
        sa, depth = self._sa, self._depth
        v0 = self._first[data[x0]] if lx == 1 else self._locus(x0, lx)
        t = self._top_of[v0]
        sb = sa[t]  # path t ends at leaf t

        # y diverges from the heavy path at string depth D = lx + f, at
        # node q; one byte tells f = 0, and then q is v0
        ext = sb + lx
        if ext == n or data[ext] != data[y0]:
            f, q = 0, v0
        else:
            f = min(self._lce0(ext, y0), ly) if ly > 1 else 1
            if f == ly:
                return sb + 1
            off, nodes = self._path_off, self._path_nodes
            lo = off[t] + self._path_pos[v0]
            q = nodes[bisect_left(nodes, lx + f, lo, off[t + 1], key=depth.__getitem__)]
        big_d = lx + f
        if depth[q] > big_d or q < n:
            # mid-edge mismatch, or the path ran out at a leaf
            return None
        u = self._child_by_char(q, data[y0 + f])
        if u < 0:
            return None
        # u's edge starts with y's next byte, so a probe is needed only
        # when more than that one byte is at stake
        e = depth[u] - big_d
        rem = ly - f
        su = sa[self._left[u]]
        if rem <= e:
            if rem == 1 or self._lce0(su + big_d, y0 + f) >= rem:
                return su + 1
            return None
        if e > 1 and self._lce0(su + big_d, y0 + f) < e:
            return None
        # whole edge matched; intersect u's advanced ranks with the SA
        # interval of the still-unmatched tail of y
        yt, lt = y0 + f + e, rem - e
        tail = self._first[data[yt]] if lt == 1 else self._locus(yt, lt)
        a, b = self._left[tail], self._right[tail]
        ut = self._top_of[u]
        du, hi = self._du_flat, self._du_off[ut + 1]
        k = bisect_left(du, a, self._du_off[ut], hi)
        if k < hi and du[k] <= b:
            return sa[du[k]] - depth[u] + 1
        return None

    # ------------------------------------------------------------------

    def validate(self, deep: bool = False) -> None:
        """Check SA/ISA/LCP and the suffix keys by direct character
        comparison; with ``deep`` also brute-force the tree topology and
        rank sets."""
        data, sa, isa, lcp, n = self.data, self._sa, self._isa, self._lcp, self.r
        assert sorted(int(v) for v in sa) == list(range(n))
        assert all(sa[isa[i]] == i for i in range(n))
        keys = self._keys
        assert len(keys) == n
        for j in range(n):
            head = data[sa[j] : sa[j] + 8]
            assert keys[j] == int.from_bytes(head + bytes(8 - len(head)), "big"), "key"
            assert j == 0 or keys[j - 1] <= keys[j], "keys out of order"
        for j in range(1, n):
            a, b = int(sa[j - 1]), int(sa[j])
            h = int(lcp[j])
            assert data[a : a + h] == data[b : b + h], "LCP overstated"
            ra, rb = data[a + h : a + h + 1], data[b + h : b + h + 1]
            assert ra != rb or (ra == b"" and rb != b""), "LCP understated"
            assert ra < rb or ra == b"", "SA out of order"
        rows = self._rmq
        if rows is not None:
            # row 0 is the checked LCP itself, not a copy, and each row
            # above is the least of two entries of the row below
            assert rows[0] is lcp, "LCP view"
            assert len(rows) == n.bit_length(), "RMQ rows"
            for k in range(1, len(rows)):
                below, w = np.asarray(rows[k - 1]), 1 << (k - 1)
                assert np.array_equal(rows[k], np.minimum(below[:-w], below[w:])), f"RMQ row {k}"
        if deep:
            if self._first is None:
                self._build_tree()
            self._validate_tree()

    def _validate_tree(self) -> None:
        """Brute-force structural checks of the tree; test-size references
        only.  The LCP array is trusted: ``validate`` checks it first."""
        n, sa = self.r, self._sa
        left, right, depth, parent = self._left, self._right, self._depth, self._parent
        total = len(depth)
        for name in _TREE:
            # an int32 view of the ndarray it was made from, not a copy
            mv = getattr(self, name)
            assert isinstance(mv, memoryview) and mv.format == "i", name
            assert isinstance(mv.obj, np.ndarray), name
            assert np.shares_memory(mv.obj, np.asarray(mv)), name
        off, nodes, top_of = self._path_off, self._path_nodes, self._top_of
        lcp = self._lcp.tolist()
        for u in range(total):
            lu, ru, du = int(left[u]), int(right[u]), int(depth[u])
            # the interval's first suffix spells the node's path string; the
            # children loop below shows that the rest share it
            assert int(sa[lu]) + du <= n
            p = int(parent[u])
            if p >= 0:
                assert left[p] <= lu and ru <= right[p]
                assert depth[p] < du or (u < n and depth[p] == du)
            t = int(top_of[u])
            assert nodes[int(off[t]) + int(self._path_pos[u])] == u
        # path t ends at leaf t: _concat reads that leaf as sa[t]
        assert all(nodes[int(off[t + 1]) - 1] == t for t in range(n)), "path end"
        # children partition the parent interval left to right, in char
        # order, and the heavy child (next on the path) is the first largest
        for u in range(n, total):
            a, b = int(self._child_off[u]), int(self._child_off[u + 1])
            kids = [int(c) for c in self._child_ids[a:b]]
            assert kids, "childless internal node"
            assert all(parent[c] == u for c in kids)
            ls, rs = [int(left[c]) for c in kids], [int(right[c]) for c in kids]
            assert ls == [int(left[u])] + [e + 1 for e in rs[:-1]] and rs[-1] == right[u]
            chars = list(self._child_chars[a:b])
            assert chars == sorted(chars)
            # children share their own, no shorter, path strings; the LCP
            # where two meet is u's depth exactly: an LCP interval's value
            assert all(lcp[s] == depth[u] for s in ls[1:]), "suffixes leave the path"
            sizes = [e - s for s, e in zip(ls, rs)]
            heavy = nodes[int(off[top_of[u]]) + int(self._path_pos[u]) + 1]
            assert heavy == kids[sizes.index(max(sizes))], "heavy child"
        # the byte table holds each root child under its edge char, -1 for
        # a byte absent from R, and so the locus of every one-byte block
        a, b = int(self._child_off[n]), int(self._child_off[n + 1])
        want = [-1] * 256
        for c, u in zip(self._child_chars[a:b], self._child_ids[a:b]):
            want[c] = u
        assert list(self._first) == want, "byte table"
        assert all((want[c] < 0) == (self.occurrence(c) is None) for c in range(256))
        assert all(self._first[self.data[p]] == self._locus(p, 1) for p in range(n))
        # rank sets match their definition
        isa = self._isa
        for t in range(len(off) - 1):
            u = nodes[off[t]]
            d = depth[u]
            want = sorted(isa[sa[k] + d] for k in range(left[u], right[u] + 1) if sa[k] + d < n)
            assert list(self._du_flat[self._du_off[t] : self._du_off[t + 1]]) == want
        # each root-to-leaf walk crosses at most log2(n) + 1 path tops
        limit = math.log2(n) + 1 if n > 1 else 1
        for leaf in range(n):
            hops, u = 1, leaf
            while (p := parent[nodes[off[top_of[u]]]]) >= 0:
                hops, u = hops + 1, p
            assert hops <= limit + 1e-9

# index a reference string for the query operations above
build_index = RefIndex
