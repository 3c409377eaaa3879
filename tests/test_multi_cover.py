"""Forest operations against plain-string mirrors."""

from __future__ import annotations

import math
import random
import statistics
import sys
import tracemalloc
from array import array
from bisect import bisect_left
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from drc.cover_engine import CompressedString, compress, cut
from drc.errors import (
    CharNotInReference,
    IndexOutOfRange,
    InvalidBlock,
    SameHandle,
    UnknownHandle,
)
from drc import multi_cover
from drc.multi_cover import (
    CoverForest,
    _Tree,
    _build,
    _edit_window,
    _join,
    _leaves,
    _splice,
    _window,
    mc_access,
    mc_concat,
    mc_delete,
    mc_insert,
    mc_replace,
    mc_split,
)
from drc.oracles import naive_maximality_check
from drc.ref_index import RefIndex, build_index

BANANA = build_index(b"banana")

# the module's chunk bound, and bounds at which small strings span many
# chunks: 2 and 3 give straddling windows and overflow splits on every
# few edits, 8 gives chunks under its fuse size of 2
CHUNK_BOUNDS = (multi_cover._CHUNK, 2, 3, 8)


def chunk_bounds(monkeypatch):
    """Each bound of CHUNK_BOUNDS, with the module's bound set to it while
    the caller's loop body runs."""
    for c in CHUNK_BOUNDS:
        monkeypatch.setattr(multi_cover, "_CHUNK", c)
        yield c
    monkeypatch.setattr(multi_cover, "_CHUNK", CHUNK_BOUNDS[0])


def make(src: bytes = b"", ref=BANANA):
    forest = CoverForest(ref)
    return forest, forest.add(src)


def assert_string(forest: CoverForest, h: int, expected: bytes) -> None:
    assert forest.decompress(h) == expected
    assert forest.length(h) == len(expected)
    assert naive_maximality_check(forest.index.data, forest.blocks(h))
    forest.validate()


class TestBasics:
    def test_add_and_decompress(self):
        forest, h = make(b"bananaban")
        assert forest.blocks(h) == [(1, 6), (1, 3)]
        assert_string(forest, h, b"bananaban")

    def test_empty_member(self):
        forest, h = make(b"")
        assert forest.blocks(h) == []
        assert_string(forest, h, b"")

    def test_access_on_identity_cover(self):
        forest, h = make(b"banana")
        assert forest.block_count(h) == 1
        got = bytes(mc_access(forest, h, j) for j in range(1, 7))
        assert got == b"banana"

    def test_add_blocks(self):
        forest = CoverForest(BANANA)
        h = forest.add_blocks([(1, 6), (1, 3)])
        assert_string(forest, h, b"bananaban")
        for blk in [(0, 1), (3, 2), (1, BANANA.r + 1), (1, 2, 3), (1,)]:
            with pytest.raises(InvalidBlock):
                forest.add_blocks([(1, 3), blk])
        assert forest.handles() == [h]

    def test_add_blocks_stores_lists_as_tuples(self, monkeypatch):
        # a list block never equals the tuple parts cut makes, so an insert
        # at its start took its right neighbour into the edit window and
        # asked one more concatenation query than a string of tuples
        index = build_index(b"abcdefghijklmnopqrstuvwxyz")
        forest = CoverForest(index)
        h = forest.add_blocks([[21, 23], [1, 5], [11, 11]])
        want = forest.add_blocks([(21, 23), (1, 5), (11, 11)])
        assert forest.blocks(h) == forest.blocks(want)
        assert all(type(blk) is tuple for blk in forest.blocks(h))
        calls = []
        real = RefIndex.substring_concat
        monkeypatch.setattr(RefIndex, "substring_concat",
                            lambda self, a, b: calls.append((a, b)) or real(self, a, b))
        for g in (h, want):
            forest.insert(g, 4, ord("z"))
        assert calls[:2] == calls[2:] and len(calls) == 4
        assert forest.blocks(h) == forest.blocks(want)
        assert forest.decompress(h) == b"uvwzabcdek"
        forest.validate()

    def test_add_blocks_takes_an_iterator(self):
        # both engines check and build from one pass over the blocks, so a
        # generator gives the same string as a list, and a bad block in it
        # is still refused
        blocks = [(1, 6), (1, 3), (1, 3)]
        forest = CoverForest(BANANA)
        h = forest.add_blocks(b for b in blocks)
        assert forest.blocks(h) == blocks
        assert forest.decompress(h) == b"bananabanban"
        forest.validate()
        cs = CompressedString(BANANA, (b for b in blocks))
        assert cs.blocks() == blocks and len(cs) == 12
        cs.check()
        with pytest.raises(InvalidBlock):
            forest.add_blocks(iter([(1, 3), (0, 1)]))
        with pytest.raises(InvalidBlock):
            CompressedString(BANANA, iter([(1, 3), (0, 1)]))
        assert forest.handles() == [h]

    def test_unknown_handle(self):
        forest, h = make(b"ban")
        for op in (
            lambda: forest.access(99, 1),
            lambda: forest.replace(99, 1, ord("a")),
            lambda: forest.insert(99, 1, ord("a")),
            lambda: forest.delete(99, 1),
            lambda: forest.split(99, 1),
            lambda: forest.concat(99, h),
            lambda: forest.concat(h, 99),
        ):
            with pytest.raises(UnknownHandle):
                op()


class TestEdits:
    def test_replace(self):
        forest, h = make(b"bananaban")
        mc_replace(forest, h, 7, ord("n"))
        assert_string(forest, h, b"banananan")

    def test_insert_heals_cover(self):
        forest, h = make(b"banna")
        mc_insert(forest, h, 4, ord("a"))
        assert_string(forest, h, b"banana")
        assert forest.block_count(h) == 1

    def test_delete(self):
        forest, h = make(b"banana")
        mc_delete(forest, h, 4)
        assert_string(forest, h, b"banna")

    def test_grow_from_empty_and_shrink_back(self):
        forest, h = make(b"")
        text = bytearray()
        for ch in b"nabana":
            forest.insert(h, 1, ch)  # always prepend
            text[0:0] = bytes([ch])
            assert_string(forest, h, bytes(text))
        while text:
            forest.delete(h, len(text))
            del text[-1]
            assert_string(forest, h, bytes(text))

    def test_edit_errors(self):
        forest, h = make(b"ban")
        with pytest.raises(IndexOutOfRange):
            forest.access(h, 4)
        with pytest.raises(IndexOutOfRange):
            forest.delete(h, 0)
        with pytest.raises(IndexOutOfRange):
            forest.insert(h, 5, ord("a"))
        with pytest.raises(CharNotInReference) as exc:
            forest.replace(h, 2, ord("z"))
        assert exc.value.position == 2
        assert_string(forest, h, b"ban")

    def test_bytes_outside_0_255_are_not_in_the_reference(self):
        # 0xff is in R, so a byte of -1 must not wrap around to it
        forest = CoverForest(build_index(b"ban\xffana"))
        h = forest.add(b"banana")
        for byte in (-1, 256, -256, 1 << 70):
            with pytest.raises(CharNotInReference):
                forest.replace(h, 1, byte)
            with pytest.raises(CharNotInReference):
                forest.insert(h, 1, byte)
        assert_string(forest, h, b"banana")

    @pytest.mark.parametrize("src", [b"", b"abc", b"abcab"])
    @pytest.mark.parametrize("op", ["insert", "replace"])
    def test_a_byte_that_is_no_integer_changes_nothing(self, src, op):
        # None is the engine's own "put nothing" marker; it must not get through
        forest, h = make(src, build_index(b"abcabc"))
        blocks = forest.blocks(h)
        for j in range(1, len(src) + 2):
            for byte in (None, 97.0, b"a"):
                with pytest.raises(TypeError):
                    getattr(forest, op)(h, j, byte)
                assert forest.blocks(h) == blocks
                assert_string(forest, h, src)

    @pytest.mark.parametrize("op", ["access", "extract", "replace", "insert", "delete",
                                    "split"])
    def test_a_position_that_is_no_integer_changes_nothing(self, op):
        # a float or a string position is refused before anything changes,
        # split included, which must not lose the string; a numpy integer
        # is a position like any int
        calls = {
            "access": lambda f, h, j: f.access(h, j),
            "extract": lambda f, h, j: f.extract(h, j, 3),
            "replace": lambda f, h, j: f.replace(h, j, ord("n")),
            "insert": lambda f, h, j: f.insert(h, j, ord("n")),
            "delete": lambda f, h, j: f.delete(h, j),
            "split": lambda f, h, j: [f.blocks(g) for g in f.split(h, j)],
        }
        src = b"bananaban"
        forest, h = make(src)
        blocks = forest.blocks(h)
        for bad in (2.5, 3.0, "3", None):
            with pytest.raises(TypeError):
                calls[op](forest, h, bad)
            assert forest.handles() == [h]
            assert forest.blocks(h) == blocks
            assert_string(forest, h, src)
        if op == "extract":
            with pytest.raises(TypeError):
                forest.extract(h, 2, 3.0)
            assert_string(forest, h, src)
        for j in (np.int64(3), np.uint8(1), np.int32(len(src) - 2)):
            want, hw = make(src)
            forest, h = make(src)
            assert calls[op](forest, h, j) == calls[op](want, hw, int(j))
            assert [forest.blocks(g) for g in forest.handles()] == \
                [want.blocks(g) for g in want.handles()]
            forest.validate()

    def test_matches_single_string_engine(self):
        rng = random.Random(7)
        ref = bytes(rng.choice(b"abc") for _ in range(80))
        idx = build_index(ref)
        src = ref[10:50]
        forest = CoverForest(idx)
        h = forest.add(src)
        cs = compress(idx, src)
        for _ in range(600):
            n = forest.length(h)
            kind = rng.choice(("replace", "insert", "delete", "access"))
            if kind == "insert":
                j, ch = rng.randrange(1, n + 2), rng.choice(ref)
                forest.insert(h, j, ch)
                cs.insert(j, ch)
            elif n == 0:
                continue
            elif kind == "replace":
                j, ch = rng.randrange(1, n + 1), rng.choice(ref)
                forest.replace(h, j, ch)
                cs.replace(j, ch)
            elif kind == "delete":
                j = rng.randrange(1, n + 1)
                forest.delete(h, j)
                cs.delete(j)
            else:
                j = rng.randrange(1, n + 1)
                assert forest.access(h, j) == cs.access(j)
            assert forest.blocks(h) == cs.blocks()
        full = cs.extract(1, len(cs)) if len(cs) else b""
        assert forest.decompress(h) == full
        forest.validate()


class TestConcat:
    def test_seam_merges_to_one_block(self):
        forest = CoverForest(BANANA)
        ha, hb = forest.add(b"ban"), forest.add(b"ana")
        h = mc_concat(forest, ha, hb)
        assert forest.blocks(h) == [(1, 6)]
        assert_string(forest, h, b"banana")

    def test_inputs_are_consumed(self):
        forest = CoverForest(BANANA)
        ha, hb = forest.add(b"ban"), forest.add(b"ana")
        h = forest.concat(ha, hb)
        assert forest.handles() == [h]
        with pytest.raises(UnknownHandle):
            forest.access(ha, 1)

    def test_empty_is_identity(self):
        forest = CoverForest(BANANA)
        for first in (True, False):
            ha, hb = forest.add(b""), forest.add(b"nana")
            if first:
                h = forest.concat(ha, hb)
            else:
                h = forest.concat(hb, ha)
            assert_string(forest, h, b"nana")

    def test_same_handle_rejected(self):
        forest, h = make(b"ban")
        with pytest.raises(SameHandle):
            forest.concat(h, h)
        assert_string(forest, h, b"ban")  # still alive


class TestSplit:
    def test_at_block_interior(self):
        forest, h = make(b"banana")
        hl, hr = mc_split(forest, h, 4)
        assert_string(forest, hl, b"ban")
        assert_string(forest, hr, b"ana")

    def test_at_position_one(self):
        forest, h = make(b"banana")
        hl, hr = forest.split(h, 1)
        assert_string(forest, hl, b"")
        assert_string(forest, hr, b"banana")

    def test_split_then_concat_restores(self):
        forest, h = make(b"bananaban")
        for j in range(1, 10):
            hl, hr = forest.split(h, j)
            h = forest.concat(hl, hr)
            assert_string(forest, h, b"bananaban")

    def test_cut_point_errors(self):
        forest, h = make(b"ban")
        for bad in (0, 4):
            with pytest.raises(IndexOutOfRange):
                forest.split(h, bad)
        assert_string(forest, h, b"ban")  # failed split keeps the string

    def test_input_consumed(self):
        forest, h = make(b"banana")
        forest.split(h, 3)
        with pytest.raises(UnknownHandle):
            forest.length(h)


def test_interleaved_forest_soak(monkeypatch):
    # the same op stream at every chunk bound; reads check access and
    # extract against the mirrors.  Where the floor C // 4 is over 1,
    # _concat puts a lone small chunk into its neighbor both where a
    # _splice combines a node's children and at a cut or a concat's seam
    absorbed = set()
    real_concat = multi_cover._concat

    def concat(a, b, top=None):
        if a is not None and b is not None and any(
                x.blks is not None and x.nleaves < multi_cover._CHUNK // 4 for x in (a, b)):
            caller = sys._getframe(1).f_code.co_name
            absorbed.add("under a splice" if caller == "_splice" else "at a cut or seam")
        return real_concat(a, b, top)

    monkeypatch.setattr(multi_cover, "_concat", concat)
    for chunk in chunk_bounds(monkeypatch):
        absorbed.clear()
        soak(random.Random(42))
        assert len(absorbed) == (2 if chunk // 4 > 1 else 0), (chunk, absorbed)


def soak(rng):
    ref = bytes(rng.choice(b"abcd") for _ in range(120))
    idx = build_index(ref)
    forest = CoverForest(idx)
    mirrors: dict = {}
    for _ in range(8):
        piece = ref[rng.randrange(0, 60) : rng.randrange(60, 121)]
        mirrors[forest.add(piece)] = bytearray(piece)

    for step in range(1500):
        h = rng.choice(sorted(mirrors))
        text = mirrors[h]
        n = len(text)
        kind = rng.choice(
            ("replace", "insert", "delete", "access", "concat", "split"))
        if kind == "replace" and n:
            j, ch = rng.randrange(1, n + 1), rng.choice(ref)
            forest.replace(h, j, ch)
            text[j - 1] = ch
        elif kind == "insert":
            j, ch = rng.randrange(1, n + 2), rng.choice(ref)
            forest.insert(h, j, ch)
            text[j - 1 : j - 1] = bytes([ch])
        elif kind == "delete" and n:
            j = rng.randrange(1, n + 1)
            forest.delete(h, j)
            del text[j - 1]
        elif kind == "access" and n:
            j = rng.randrange(1, n + 1)
            assert forest.access(h, j) == text[j - 1]
            m = rng.randrange(n - j + 2)
            assert forest.extract(h, j, m) == text[j - 1 : j - 1 + m], (j, m)
        elif kind == "concat" and len(mirrors) >= 2:
            other = rng.choice([x for x in sorted(mirrors) if x != h])
            merged = forest.concat(h, other)
            mirrors[merged] = mirrors.pop(h) + mirrors.pop(other)
        elif kind == "split" and n and len(mirrors) < 12:
            j = rng.randrange(1, n + 1)
            hl, hr = forest.split(h, j)
            whole = mirrors.pop(h)
            mirrors[hl] = whole[: j - 1]
            mirrors[hr] = whole[j - 1 :]
        if step % 100 == 0:
            forest.validate()
            for hh, tt in mirrors.items():
                assert forest.decompress(hh) == bytes(tt)
                assert forest.extract(hh, 1, len(tt)) == bytes(tt)
                assert naive_maximality_check(ref, forest.blocks(hh))

    forest.validate()
    for hh, tt in mirrors.items():
        assert forest.decompress(hh) == bytes(tt)
        assert forest.extract(hh, 1, len(tt)) == bytes(tt)
        assert naive_maximality_check(ref, forest.blocks(hh))


def test_balance_under_repeated_splits_and_joins():
    rng = random.Random(3)
    ref = bytes(rng.choice(b"ab") for _ in range(40))
    idx = build_index(ref)
    # random text over a short reference keeps the cover fragmented
    src = bytes(rng.choice(b"ab") for _ in range(3000))
    forest = CoverForest(idx)
    h = forest.add(src)
    text = bytearray(src)
    for _ in range(300):
        j = rng.randrange(1, len(text) + 1)
        hl, hr = forest.split(h, j)
        if rng.random() < 0.5:
            h = forest.concat(hl, hr)  # stitch back
        else:
            h = forest.concat(hr, hl)  # rotate the string
        text = bytearray(forest.decompress(h))
        forest.validate()
    assert len(text) == len(src)


def test_query_budget_under_random_storm(monkeypatch):
    # most substring_concat calls per op: an edit re-merges a window of at
    # most five blocks, a split asks at each side of its cut, a concat at
    # its seam
    rng = random.Random(8)
    ref = bytes(rng.choice(b"abcd") for _ in range(300))
    forest = CoverForest(build_index(ref))
    mirrors = {forest.add(ref[i : i + 150]): bytearray(ref[i : i + 150])
               for i in range(0, 240, 30)}
    calls = []
    real = RefIndex.substring_concat
    monkeypatch.setattr(RefIndex, "substring_concat",
                        lambda self, a, b: calls.append(1) or real(self, a, b))
    budget = {"replace": 4, "insert": 4, "delete": 4, "split": 2, "concat": 1}
    worst = dict.fromkeys(budget, 0)
    for _ in range(10_000):
        h = rng.choice(sorted(mirrors))
        text = mirrors[h]
        n = len(text)
        kind = rng.choice(tuple(budget))
        calls.clear()
        if kind == "replace" and n:
            j, ch = rng.randrange(1, n + 1), rng.choice(ref)
            forest.replace(h, j, ch)
            text[j - 1] = ch
        elif kind == "insert":
            j, ch = rng.randrange(1, n + 2), rng.choice(ref)
            forest.insert(h, j, ch)
            text[j - 1 : j - 1] = bytes([ch])
        elif kind == "delete" and n:
            j = rng.randrange(1, n + 1)
            forest.delete(h, j)
            del text[j - 1]
        elif kind == "split" and n and len(mirrors) < 16:
            j = rng.randrange(1, n + 1)
            hl, hr = forest.split(h, j)
            whole = mirrors.pop(h)
            mirrors[hl], mirrors[hr] = whole[: j - 1], whole[j - 1 :]
        elif kind == "concat" and len(mirrors) > 4:
            other = rng.choice([x for x in sorted(mirrors) if x != h])
            mirrors[forest.concat(h, other)] = mirrors.pop(h) + mirrors.pop(other)
        worst[kind] = max(worst[kind], len(calls))
    # every kind ran and asked at least once, none over its budget
    assert all(0 < worst[k] <= budget[k] for k in budget), worst
    for hh, tt in mirrors.items():
        assert forest.decompress(hh) == bytes(tt)
        assert naive_maximality_check(ref, forest.blocks(hh))


def uneven_tree(rng, blocks):
    """A tree of ``blocks`` joined from uneven ``_build`` pieces in random
    order, so sibling heights differ."""
    pieces, i = [], 0
    while i < len(blocks):
        k = rng.choice((1, 1, 2, 3, 5, 9))
        pieces.append(_build(blocks[i : i + k]))
        i += k
    while len(pieces) > 1:
        k = rng.randrange(len(pieces) - 1)
        pieces[k : k + 2] = [_join(pieces[k], pieces[k + 1])]
    return pieces[0]


def test_window_and_splice_match_list_model(monkeypatch):
    # every window of up to four blocks (inside one chunk, across chunks
    # and the lowest common ancestor, at either end) replaced by 0..5
    # blocks, at every chunk bound
    forest = CoverForest(build_index(bytes(range(97, 123)) * 4))
    r = forest.index.r
    for chunk in chunk_bounds(monkeypatch):
        rng = random.Random(15)

        def rand_block():
            s = rng.randrange(1, r + 1)
            return s, rng.randrange(s, r + 1)

        for n in (1, 2, 3, 4, 5, 8, 13, 21, 34):
            blocks = [rand_block() for _ in range(n)]
            for lo in range(1, n + 1):
                for hi in range(lo, min(lo + 3, n) + 1):
                    for k in range(6):
                        new = [rand_block() for _ in range(k)]
                        t = uneven_tree(rng, blocks)
                        assert _window(t, lo, hi) == blocks[lo - 1 : hi]
                        # chunks are rewritten in place, unless the input holds
                        # a chunk under the floor that the splice absorbs
                        floor = t.blks is not None or all(
                            len(c.blks) >= chunk // 4 for c in chunks_of(t))
                        out = _splice(t, lo, hi, new)
                        want = blocks[: lo - 1] + new + blocks[hi:]
                        assert list(_leaves(out)) == want, (chunk, n, lo, hi, k)
                        if k == hi - lo + 1 and floor:
                            assert out is t
                        if out is None:
                            continue
                        height, _c, leaves, chunks = forest._check_node(out, array("Q"))
                        assert leaves == len(want)
                        assert height - 1 <= 1.44 * math.log2(chunks + 1) + 1e-9


def test_splice_keeps_the_chunk_floor(monkeypatch):
    # chains of random windows of up to four blocks replaced by 0..5 blocks,
    # from trees that _build makes: no chunk but an only one ends under
    # C // 4 blocks, because each node combines its children through _concat
    forest = CoverForest(build_index(bytes(range(97, 123)) * 4))
    r = forest.index.r
    rng = random.Random(31)

    def rand_block():
        s = rng.randrange(1, r + 1)
        return s, rng.randrange(s, r + 1)

    for chunk in (8, 12, 16, 32):
        monkeypatch.setattr(multi_cover, "_CHUNK", chunk)
        for _ in range(60):
            blocks = [rand_block() for _ in range(rng.randrange(chunk + 1, 6 * chunk))]
            t = _build(blocks)
            for _ in range(30):
                lo = rng.randrange(1, len(blocks) + 1)
                hi = min(lo + rng.randrange(4), len(blocks))
                new = [rand_block() for _ in range(rng.randrange(6))]
                t = _splice(t, lo, hi, new)
                blocks[lo - 1 : hi] = new
                assert list(_leaves(t)) == blocks, (chunk, lo, hi, len(new))
                if t is None:
                    break
                low = 1 if t.blks is not None else chunk // 4
                height, _c, leaves, chunks = forest._check_node(t, array("Q"), low)
                assert leaves == len(blocks)
                assert height - 1 <= 1.44 * math.log2(chunks + 1) + 1e-9


def test_edit_window_matches_list_model(monkeypatch):
    # every replace, insert and delete position of a few strings, on
    # balanced and uneven trees at every chunk bound: the one descent
    # reads the window that the block list gives, with the block that
    # holds j found by summing block lengths and a neighbor left out when
    # the part next to it is the old block (an insert at a block start
    # keeps the next block out); over "banana", a one-byte block often sits
    # next to a copy of itself.  The descent also gives its path, the chunk
    # that holds j and that chunk's first ordinal
    kept_out = across = 0
    for chunk in chunk_bounds(monkeypatch):
        rng = random.Random(19)
        ref = bytes(rng.choice(b"abcd") for _ in range(120))
        for ref, size in [(ref, 1), (ref, 2), (ref, 5), (ref, 60), (ref, 400),
                          (b"banana", 80)]:
            forest = CoverForest(build_index(ref))
            h = forest.add(bytes(rng.choice(sorted(set(ref))) for _ in range(size)))
            blocks = forest.blocks(h)
            ends = list(accumulate(e - s + 1 for s, e in blocks))
            n = ends[-1]
            for t in (forest._trees[h], uneven_tree(rng, blocks)):
                for drop, new, last in ((1, (2, 2), n), (0, (3, 3), n + 1), (1, None, n)):
                    for j in range(1, last + 1):
                        l = min(bisect_left(ends, j), len(blocks) - 1)
                        blk = blocks[l]
                        parts = cut(blk, j - ends[l] + blk[1] - blk[0] + 1, drop, new)
                        lo = l - (l > 0 and parts[:1] != [blk])
                        hi = l + (l < len(blocks) - 1 and parts[-1:] != [blk])
                        want = blocks[lo:l] + parts + blocks[l + 1 : hi + 1]
                        got_lo, got_hi, win, path, leaf, first = _edit_window(t, j, drop, new)
                        assert (got_lo, got_hi, win) == (lo + 1, hi + 1, want), (chunk, size, j)
                        assert first == leaf_start(t, leaf)
                        assert first <= l + 1 < first + len(leaf.blks)
                        assert len(path) == depth_of(t, leaf)
                        kept_out += hi == l < len(blocks) - 1
                        across += not first <= lo + 1 <= hi + 1 < first + len(leaf.blks)
                assert list(_leaves(t)) == blocks  # reading changed nothing
    assert kept_out > 0 and across > 0


def leaf_start(t, leaf):
    """The ordinal of the first block of chunk ``leaf`` in ``t``."""
    first = 1
    for n in chunks_of(t):
        if n is leaf:
            return first
        first += len(n.blks)
    raise AssertionError("chunk not in tree")


def depth_of(t, leaf):
    """Internal nodes above chunk ``leaf`` in ``t``."""
    todo = [(t, 0)]
    while todo:
        n, d = todo.pop()
        if n is leaf:
            return d
        if n.blks is None:
            todo += [(n.left, d + 1), (n.right, d + 1)]
    raise AssertionError("chunk not in tree")


def chunks_of(t):
    """The chunk nodes of ``t`` in string order."""
    out, stack = [], [t] if t is not None else []
    while stack:
        n = stack.pop()
        if n.blks is not None:
            out.append(n)
        else:
            stack += [n.right, n.left]
    return out


def node_fields(t):
    """Every node of ``t`` with its fields, a chunk's blocks included, by
    node identity."""
    out, stack = {}, [t] if t is not None else []
    while stack:
        n = stack.pop()
        blocks = tuple(n.blks) if n.blks is not None else None
        out[id(n)] = (n, n.blks, blocks, n.left, n.right, n.height, n.nchars, n.nleaves)
        if n.blks is None:
            stack += [n.left, n.right]
    return out


def count_new_nodes(monkeypatch):
    """A list that grows by one per ``_Tree`` made from now on."""
    made = []
    real = multi_cover._Tree.__init__
    monkeypatch.setattr(multi_cover._Tree, "__init__",
                        lambda self, *args: made.append(1) or real(self, *args))
    return made


def test_join_matches_list_model(monkeypatch):
    # random pairs of pieces, empty ones included, joined with and without
    # a spare node on top, at every chunk bound: the blocks concatenate,
    # the result is an AVL tree, the spare is used exactly when both sides
    # have blocks, and no node or chunk of either input changes
    forest = CoverForest(build_index(bytes(range(97, 123))))
    used = 0
    for chunk in chunk_bounds(monkeypatch):
        rng = random.Random(23)
        for _ in range(1500):
            sides = []
            for base in (1, 13):
                n = rng.choice((0, 1, 2, 3, 5, 8, 13, 30))
                blocks = [(base + i % 13, base + i % 13) for i in range(n)]
                t = rng.choice((_build, lambda b: uneven_tree(rng, b) if b else None))(blocks)
                sides.append((t, blocks, node_fields(t)))
            (a, blocks_a, before_a), (b, blocks_b, before_b) = sides
            top = _join(_Tree([(1, 1)]), _Tree([(2, 2)])) if rng.random() < 0.5 else None
            out = _join(a, b, top)
            assert list(_leaves(out)) == blocks_a + blocks_b
            after = node_fields(out)
            if top is not None:
                assert (id(top) in after) == (a is not None and b is not None)
                used += id(top) in after
            for before in (before_a, before_b):
                for n, *fields in before.values():
                    blocks = tuple(n.blks) if n.blks is not None else None
                    assert [n.blks, blocks, n.left, n.right, n.height, n.nchars,
                            n.nleaves] == fields
            if out is None:
                continue
            height, _c, leaves, chunks = forest._check_node(out, array("Q"))
            assert leaves == len(blocks_a) + len(blocks_b)
            assert height - 1 <= 1.44 * math.log2(chunks + 1) + 1e-9
    assert used > 0


def test_unbalanced_splice_reuses_the_node_where_heights_meet(monkeypatch):
    # with one block per chunk, rewriting the right half of 8 blocks as
    # one block leaves the root's children 3 and 1 levels high: their join
    # makes one node above the left child's right child, and the old root
    # goes where the heights meet
    monkeypatch.setattr(multi_cover, "_CHUNK", 1)
    blocks = [(i, i) for i in range(1, 9)]
    t = _build(blocks)
    made = count_new_nodes(monkeypatch)
    out = _splice(t, 5, 8, [(5, 8)])
    assert list(_leaves(out)) == blocks[:4] + [(5, 8)]
    assert len(made) == 1
    assert out.right is t and out.right.right.blks == [(5, 8)]
    CoverForest(build_index(b"abcdefgh"))._check_node(out, array("Q"))

    # with 4 blocks per chunk, rewriting blocks 3-6 of 16, which straddle
    # the first two chunks, keeps every node: the left chunk gets as many
    # blocks as it loses, the right one the rest
    monkeypatch.setattr(multi_cover, "_CHUNK", 4)
    blocks = [(i, i) for i in range(1, 17)]
    t = multi_cover._stack([_Tree(blocks[i : i + 4]) for i in range(0, 16, 4)])
    before = chunks_of(t)
    made.clear()
    out = _splice(t, 3, 6, [(3, 4), (5, 6)])
    assert list(_leaves(out)) == blocks[:2] + [(3, 4), (5, 6)] + blocks[6:]
    assert out is t and made == [] and chunks_of(out) == before
    assert [len(n.blks) for n in before] == [4, 2, 4, 4]
    CoverForest(build_index(b"abcdefgh" * 2))._check_node(out, array("Q"))


def test_remerge_without_a_merge_keeps_the_tree(monkeypatch):
    # every boundary of a maximal cover is absent from R, so re-merging
    # any two neighbors changes nothing: same root, no node made
    rng = random.Random(29)
    forest = CoverForest(build_index(bytes(rng.choice(b"ab") for _ in range(40))))
    h = forest.add(bytes(rng.choice(b"ab") for _ in range(600)))
    t, blocks = forest._trees[h], forest.blocks(h)
    before = node_fields(t)
    made = count_new_nodes(monkeypatch)
    for lo in range(1, len(blocks)):
        assert forest._remerge(t, lo, lo + 1) is t
    monkeypatch.undo()
    assert made == []
    assert node_fields(t) == before


def test_validate_rejects_a_node_shared_by_two_handles():
    rng = random.Random(4)
    forest = CoverForest(BANANA)
    ha = forest.add(bytes(rng.choice(b"abn") for _ in range(200)))
    hb = forest.add(bytes(rng.choice(b"abn") for _ in range(200)))
    forest.validate()
    graft = forest._trees[ha].left  # an internal node of ha
    assert graft.blks is None
    forest._trees[hb] = _join(forest._trees[hb], graft)
    with pytest.raises(AssertionError, match="reachable twice"):
        forest.validate()


def test_point_edits_rewrite_few_nodes(monkeypatch):
    # an edit that writes inside one chunk rewrites the chunk's list and
    # the counts on its path: no node, no join, no splice.  The rest (a
    # neighbor in another chunk that merged, a chunk over its bound or
    # under its fuse size) splice, and allocate at most a chunk rebuild
    # plus a few joins' worth of nodes.  On a 10k-block string of tiny
    # blocks, nearly all edits take the first path
    rng = random.Random(5)
    ref = bytes(rng.choice(b"ab") for _ in range(40))
    forest = CoverForest(build_index(ref))
    h = forest.add(bytes(rng.choice(b"ab") for _ in range(60_000)))
    assert forest.block_count(h) >= 10_000
    made = count_new_nodes(monkeypatch)
    joins, splices = [], []
    for name, log in (("_join", joins), ("_splice", splices)):
        real = getattr(multi_cover, name)
        monkeypatch.setattr(multi_cover, name,
                            lambda *a, real=real, log=log: log.append(1) or real(*a))
    per_edit = []
    for _ in range(3000):
        n = forest.length(h)
        kind = rng.randrange(3)
        for log in (made, joins, splices):
            log.clear()
        if kind == 0:
            forest.replace(h, rng.randrange(1, n + 1), rng.choice(b"ab"))
        elif kind == 1:
            forest.insert(h, rng.randrange(1, n + 2), rng.choice(b"ab"))
        else:
            forest.delete(h, rng.randrange(1, n + 1))
        per_edit.append((len(splices), len(joins), len(made)))
    monkeypatch.undo()
    in_chunk = [e for e in per_edit if e[0] == 0]
    assert in_chunk.count((0, 0, 0)) == len(in_chunk) >= 0.9 * len(per_edit)
    assert max(made for _s, _j, made in per_edit) <= 8
    assert statistics.median(made for _s, _j, made in per_edit) == 0
    forest.validate()
    assert naive_maximality_check(ref, forest.blocks(h))


def test_bytes_per_block_on_a_large_string():
    # a 47k-block string as the edit-dna benchmark builds it: 2^20 chars
    # stitched from 4-40-byte pieces of a 100 kB ACGT reference.  The
    # forest's own memory, the tracemalloc traces allocated in this module
    # (its nodes and chunk lists), stays under 40 bytes per block after the
    # build and after 5000 random edits.  The blocks themselves are the
    # cover, made before tracing starts or by the engine's shared helpers
    rng = random.Random(1)
    ref = bytes(b"acgt"[rng.randrange(4)] for _ in range(100_000))
    src = bytearray()
    while len(src) < 1 << 20:
        s = rng.randrange(len(ref))
        src += ref[s : s + 4 + rng.randrange(37)]
    index = build_index(ref)
    blocks = index.factorize(bytes(src[: 1 << 20]))
    assert len(blocks) > 45_000
    index.substring_concat(blocks[0], blocks[1])  # the lazy builds

    def own_bytes_per_block(forest, h):
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, multi_cover.__file__)])
        return sum(t.size for t in snap.traces) / forest.block_count(h)

    tracemalloc.start()
    try:
        forest = CoverForest(index)
        h = forest.add_blocks(blocks)
        assert tracemalloc.get_traced_memory()[0] / len(blocks) <= 40
        assert own_bytes_per_block(forest, h) <= 40
        for _ in range(5000):
            n, kind, ch = forest.length(h), rng.randrange(3), b"acgt"[rng.randrange(4)]
            if kind == 0:
                forest.replace(h, rng.randrange(1, n + 1), ch)
            elif kind == 1:
                forest.insert(h, rng.randrange(1, n + 2), ch)
            else:
                forest.delete(h, rng.randrange(1, n + 1))
        assert own_bytes_per_block(forest, h) <= 40
    finally:
        tracemalloc.stop()
    forest.validate()


# The read finger: consecutive reads inside one chunk share a descent, and
# every call that rewrites a tree drops it.

FOX = build_index(b"the quick brown fox jumps over the lazy dog")
FOX_SRC = b"quick dog jumps the lazy brown fox over the quick"  # 7 blocks, 3-10 chars
FOX_ALPHA = sorted(set(FOX.data))


def finger_span(forest: CoverForest):
    """First and last position of the finger's block."""
    return forest._finger_base + 1, forest._finger_end


def read_run(forest: CoverForest, h: int, text: bytearray, lo: int, hi: int) -> None:
    for j in range(max(lo, 1), min(hi, len(text)) + 1):
        assert forest.access(h, j) == text[j - 1], (h, j)


def other_byte(text: bytearray, j: int) -> int:
    old = text[j - 1] if j <= len(text) else 0
    return next(c for c in FOX_ALPHA if c != old)


@pytest.mark.parametrize("where", ["inside", "first", "last", "past"])
@pytest.mark.parametrize("kind", ["replace", "insert", "delete"])
def test_finger_reads_match_mirror_around_edits(kind, where):
    # for every block: a run of reads sets the finger on it, an edit lands
    # inside it, at its first or last char, or just past it, and reads
    # around the edit and over the whole string match a bytearray
    for leaf_no in range(7):
        forest = CoverForest(FOX)
        h, other = forest.add(FOX_SRC), forest.add(b"lazy fox")
        assert forest.block_count(h) == 7
        text = bytearray(FOX_SRC)
        first = sum(e - s + 1 for s, e in forest.blocks(h)[:leaf_no]) + 1
        read_run(forest, h, text, first, first + 2)
        s, e = finger_span(forest)
        assert s == first
        j = {"inside": min(s + 1, e), "first": s, "last": e, "past": e + 1}[where]
        if j > len(text) + (kind == "insert"):
            continue  # nothing past the last block but an append
        byte = other_byte(text, j)
        if kind == "replace":
            forest.replace(h, j, byte)
            text[j - 1] = byte
        elif kind == "insert":
            forest.insert(h, j, byte)
            text[j - 1 : j - 1] = bytes([byte])
        else:
            forest.delete(h, j)
            del text[j - 1]
        forest.validate()
        read_run(forest, h, text, s - 2, e + 3)
        forest.validate()
        read_run(forest, h, text, 1, len(text))
        read_run(forest, other, bytearray(b"lazy fox"), 1, 8)
        forest.validate()
        assert forest.decompress(h) == bytes(text)


def test_finger_across_split_and_concat():
    forest = CoverForest(FOX)
    h, other = forest.add(FOX_SRC), forest.add(b"brown dog over the fox")
    text, otext = bytearray(FOX_SRC), bytearray(b"brown dog over the fox")

    # splitting another handle leaves the cached string readable
    read_run(forest, h, text, 12, 16)
    ol, orr = forest.split(other, 7)
    forest.validate()
    read_run(forest, h, text, 12, 16)
    ltext, rtext = otext[:6], otext[6:]
    read_run(forest, ol, ltext, 1, len(ltext))

    # splitting the cached handle inside the cached block
    read_run(forest, h, text, 20, 22)
    s, e = finger_span(forest)
    cut_at = s + 1
    a, b = forest.split(h, cut_at)
    forest.validate()
    for j in (s, cut_at, e):
        with pytest.raises(UnknownHandle):
            forest.access(h, j)
    atext, btext = text[: cut_at - 1], text[cut_at - 1 :]
    read_run(forest, a, atext, 1, len(atext))
    read_run(forest, b, btext, 1, len(btext))

    # concatenating the cached handle with another
    read_run(forest, a, atext, len(atext) - 3, len(atext))
    c = forest.concat(a, orr)
    forest.validate()
    with pytest.raises(UnknownHandle):
        forest.access(a, len(atext))
    ctext = atext + rtext
    read_run(forest, c, ctext, 1, len(ctext))

    # concatenating two other handles while the finger is on c
    read_run(forest, c, ctext, 5, 9)
    d = forest.concat(ol, b)
    forest.validate()
    for gone in (ol, b):
        with pytest.raises(UnknownHandle):
            forest.access(gone, 1)
    read_run(forest, c, ctext, 5, 9)
    read_run(forest, d, ltext + btext, 1, len(ltext) + len(btext))
    forest.validate()


def test_out_of_range_reads_ignore_the_finger():
    forest = CoverForest(FOX)
    h, empty = forest.add(FOX_SRC), forest.add(b"")
    n = len(FOX_SRC)
    forest.access(h, 1)  # finger on the first leaf
    with pytest.raises(IndexOutOfRange, match=rf"^position 0 outside \[1, {n}\]$"):
        forest.access(h, 0)
    forest.access(h, n)  # finger on the last leaf
    with pytest.raises(IndexOutOfRange, match=rf"^position {n + 1} outside \[1, {n}\]$"):
        forest.access(h, n + 1)
    with pytest.raises(IndexOutOfRange, match=r"^position 1 outside \[1, 0\]$"):
        forest.access(empty, 1)
    # a range read outside the string moves nothing either
    fields = ("_finger_handle", "_finger_leaf", "_finger_chunk", "_finger_base",
              "_finger_end", "_finger_shift")
    finger = [getattr(forest, f) for f in fields]
    assert finger[1] is not None
    blocks = {g: forest.blocks(g) for g in forest.handles()}
    for g, j, m in ((h, 1, -1), (h, 0, 2), (h, n - 1, 3), (h, n + 2, 0), (empty, 2, 0)):
        with pytest.raises(IndexOutOfRange, match=r"^range \("):
            forest.extract(g, j, m)
        assert [getattr(forest, f) for f in fields] == finger
        assert {g: forest.blocks(g) for g in forest.handles()} == blocks
        forest.validate()


class CountingTrees(dict):
    """A handle table that counts lookups: in ``access`` only a descent
    looks its handle up."""

    def __init__(self, trees):
        super().__init__(trees)
        self.lookups = 0

    def __getitem__(self, h):
        self.lookups += 1
        return super().__getitem__(h)


def test_reads_descend_once_per_leaf(monkeypatch):
    # a run of reads descends once per chunk, forwards or backwards: the
    # finger moves to any block of its chunk without a descent
    blocks = [(5, 10), (41, 43), (20, 26), (32, 40), (11, 20), (27, 35), (5, 9)]
    forest = CoverForest(FOX)
    h = forest.add_blocks(blocks)
    text = bytearray(b"".join(FOX.data[s - 1 : e] for s, e in blocks))
    trees = CountingTrees(forest._trees)
    monkeypatch.setattr(forest, "_trees", trees)

    for chunk, chunks in ((multi_cover._CHUNK, 1), (2, 5), (3, 4)):
        monkeypatch.setattr(multi_cover, "_CHUNK", chunk)
        g = forest.add_blocks(blocks)
        assert len(chunks_of(trees[g])) == chunks
        trees.lookups = 0
        read_run(forest, g, text, 1, len(text))
        assert trees.lookups == chunks
        trees.lookups = 0
        for j in range(len(text), 0, -1):  # backwards, from the last block
            assert forest.access(g, j) == text[j - 1]
        assert trees.lookups == chunks - 1
        # the finger is on the first block: a jump inside its chunk moves
        # it without a descent, a jump to another chunk descends
        trees.lookups = 0
        forest.access(g, len(text))
        forest.access(g, 1)
        assert trees.lookups == (0 if chunks == 1 else 2)
        del trees[g]  # its chunks fit only this loop's bound
    monkeypatch.setattr(multi_cover, "_CHUNK", CHUNK_BOUNDS[0])

    # add keeps the finger: handles are never reused
    forest.access(h, 12)
    other = forest.add(b"lazy fox")
    trees.lookups = 0
    forest.access(h, 13)
    assert trees.lookups == 0

    def edit(op):
        forest.access(h, 8)
        trees.lookups = 0
        forest.access(h, finger_span(forest)[1])
        assert trees.lookups == 0  # the finger is set
        op()
        assert forest._finger_leaf is None
        trees.lookups = 0
        forest.access(h, 8)
        assert trees.lookups == 1

    edit(lambda: forest.replace(h, 8, ord("z")))
    edit(lambda: forest.insert(h, 30, ord("o")))
    edit(lambda: forest.delete(h, 30))
    edit(lambda: forest.replace(other, 1, ord("l")))
    hl, hr = forest.split(other, 3)
    forest.access(h, 12)
    forest.concat(hl, hr)
    assert forest._finger_leaf is None
    forest.access(h, 12)
    h2, h3 = forest.split(h, 20)
    assert forest._finger_leaf is None
    trees.lookups = 0
    forest.access(h2, 8)
    assert trees.lookups == 1
    forest.validate()


def test_validate_rejects_a_stale_finger():
    forest = CoverForest(FOX)
    h = forest.add(FOX_SRC)
    forest.access(h, 12)
    forest.validate()
    for field, delta in (("_finger_base", 1), ("_finger_chunk", 1), ("_finger_chunk", -1),
                         ("_finger_end", -1), ("_finger_shift", 1)):
        setattr(forest, field, getattr(forest, field) + delta)  # off its block
        with pytest.raises(AssertionError, match="finger off its block"):
            forest.validate()
        setattr(forest, field, getattr(forest, field) - delta)
        forest.validate()
    forest._finger_leaf = _build(forest.blocks(h))  # a chunk of no string
    with pytest.raises(AssertionError, match="finger off its block"):
        forest.validate()
    forest.access(h, 30)
    forest._trees[forest._next_handle] = forest._trees.pop(h)
    with pytest.raises(AssertionError, match="dead handle"):
        forest.validate()


def many_chunks():
    """A forest holding one valid string of 13 chunks, its tree, and a
    middle chunk with the internal nodes above it."""
    rng = random.Random(31)
    forest = CoverForest(FOX)
    h = forest.add_blocks([(s, s + rng.randrange(3)) for s in
                           (rng.randrange(1, FOX.r - 2) for _ in range(300))])
    forest.validate()
    t = forest._trees[h]
    assert len(chunks_of(t)) == 13
    path, n = [], t
    while n.blks is None:  # right, then left, then right, ...: a middle chunk
        path.append(n)
        n = n.right if len(path) % 2 else n.left
    return forest, t, n, path


def resize(chunk, path, size):
    """Cut or pad ``chunk`` to ``size`` blocks and keep every count above
    it right, so that only the size is wrong."""
    old = chunk.blks[:]
    chunk.blks[size:] = []
    chunk.blks += [(1, 1)] * (size - len(chunk.blks))
    dc = sum(e - s + 1 for s, e in chunk.blks) - sum(e - s + 1 for s, e in old)
    for n in path + [chunk]:
        n.nchars += dc
        n.nleaves += size - len(old)


@pytest.mark.parametrize("size, low", [(multi_cover._CHUNK + 1, multi_cover._CHUNK // 4),
                                       (multi_cover._CHUNK // 4 - 1, multi_cover._CHUNK // 4)])
def test_validate_rejects_a_chunk_out_of_bounds(size, low):
    forest, _t, chunk, path = many_chunks()
    resize(chunk, path, size)
    with pytest.raises(AssertionError,
                       match=rf"^chunk of {size} blocks outside \[{low}, {multi_cover._CHUNK}\]$"):
        forest.validate()


def test_an_only_chunk_may_be_underfull():
    forest = CoverForest(FOX)
    for blocks in ([(1, 3)], [(1, 3), (5, 9)]):
        forest.add_blocks(blocks)
    forest.validate()


@pytest.mark.parametrize("field", ["nchars", "nleaves"])
def test_validate_rejects_stale_counts(field):
    for where, message in ((-1, "stale chunk counts"), (1, "stale counts")):
        forest, _t, chunk, path = many_chunks()
        node = chunk if where < 0 else path[where]
        setattr(node, field, getattr(node, field) + 1)
        with pytest.raises(AssertionError, match=message):
            forest.validate()


class FingerMachine(RuleBasedStateMachine):
    """Runs of reads between edits, splits and concats, against bytearray
    mirrors.  Edits and runs often start at the finger's block, where a
    stale finger would show; consumed handles must stay unknown.  The
    module's chunk bound is ``chunk`` while a machine runs."""

    chunk = multi_cover._CHUNK

    def __init__(self):
        super().__init__()
        self.saved_chunk, multi_cover._CHUNK = multi_cover._CHUNK, self.chunk
        self.forest = CoverForest(FOX)
        self.mirrors = {}
        self.dead = []

    def pick(self, data, nonempty=False):
        """A live handle, the finger's one half the time."""
        live = [h for h in sorted(self.mirrors) if self.mirrors[h] or not nonempty]
        fh = self.forest._finger_handle
        if fh in live and self.forest._finger_leaf is not None and data.draw(st.booleans()):
            return fh
        return data.draw(st.sampled_from(live))

    def position(self, data, h, extra=0):
        """A position of S_h, or of one past its end when extra is 1:
        random, or around the finger's block when it is on h."""
        n = len(self.mirrors[h]) + extra
        leaf = self.forest._finger_leaf
        if leaf is not None and self.forest._finger_handle == h and data.draw(st.booleans()):
            s, e = finger_span(self.forest)
            j = data.draw(st.sampled_from([s, s + 1, e - 1, e, e + 1]))
            return min(max(j, 1), n)
        return data.draw(st.integers(1, n))

    @rule(pieces=st.lists(st.tuples(st.integers(0, 42), st.integers(1, 12)), max_size=6))
    def add(self, pieces):
        src = b"".join(FOX.data[i : i + k] for i, k in pieces)
        self.mirrors[self.forest.add(src)] = bytearray(src)

    @precondition(lambda self: self.mirrors)
    @rule(data=st.data(), length=st.integers(1, 30), backwards=st.booleans())
    def read(self, data, length, backwards):
        h = self.pick(data)
        text = self.mirrors[h]
        if not text:
            with pytest.raises(IndexOutOfRange):
                self.forest.access(h, 1)
            return
        j = self.position(data, h)
        run = range(j, min(j + length, len(text) + 1))
        for k in reversed(run) if backwards else run:
            assert self.forest.access(h, k) == text[k - 1], (h, k)

    @precondition(lambda self: self.dead)
    @rule(data=st.data())
    def read_dead(self, data):
        with pytest.raises(UnknownHandle):
            self.forest.access(data.draw(st.sampled_from(self.dead)), 1)

    @precondition(lambda self: any(self.mirrors.values()))
    @rule(data=st.data(), byte=st.sampled_from(FOX_ALPHA))
    def replace(self, data, byte):
        h = self.pick(data, nonempty=True)
        j = self.position(data, h)
        self.forest.replace(h, j, byte)
        self.mirrors[h][j - 1] = byte

    @precondition(lambda self: self.mirrors)
    @rule(data=st.data(), byte=st.sampled_from(FOX_ALPHA))
    def insert(self, data, byte):
        h = self.pick(data)
        j = self.position(data, h, extra=1)
        self.forest.insert(h, j, byte)
        self.mirrors[h][j - 1 : j - 1] = bytes([byte])

    @precondition(lambda self: any(self.mirrors.values()))
    @rule(data=st.data())
    def delete(self, data):
        h = self.pick(data, nonempty=True)
        j = self.position(data, h)
        self.forest.delete(h, j)
        del self.mirrors[h][j - 1]

    @precondition(lambda self: any(self.mirrors.values()) and len(self.mirrors) < 8)
    @rule(data=st.data())
    def split(self, data):
        h = self.pick(data, nonempty=True)
        j = self.position(data, h)
        hl, hr = self.forest.split(h, j)
        text = self.mirrors.pop(h)
        self.mirrors[hl], self.mirrors[hr] = text[: j - 1], text[j - 1 :]
        self.dead.append(h)

    @precondition(lambda self: len(self.mirrors) >= 2)
    @rule(data=st.data())
    def concat(self, data):
        ha = self.pick(data)
        hb = data.draw(st.sampled_from([h for h in sorted(self.mirrors) if h != ha]))
        hc = self.forest.concat(ha, hb)
        self.mirrors[hc] = self.mirrors.pop(ha) + self.mirrors.pop(hb)
        self.dead += [ha, hb]

    @invariant()
    def matches_mirrors(self):
        self.forest.validate()
        for h, text in self.mirrors.items():
            assert self.forest.decompress(h) == bytes(text)
            assert naive_maximality_check(FOX.data, self.forest.blocks(h))

    def teardown(self):
        multi_cover._CHUNK = self.saved_chunk


TestFingerMachine = FingerMachine.TestCase
TestFingerMachine.settings = settings(max_examples=150, stateful_step_count=40)


def small_chunk_case(chunk):
    """The machine's test case at a chunk bound where a few blocks span
    many chunks."""
    machine = type(f"ChunkOf{chunk}Machine", (FingerMachine,), {"chunk": chunk})
    case = machine.TestCase
    case.settings = settings(max_examples=100, stateful_step_count=40)
    return case


TestFingerMachineChunkOf2 = small_chunk_case(2)
TestFingerMachineChunkOf3 = small_chunk_case(3)
TestFingerMachineChunkOf8 = small_chunk_case(8)
