"""Forest operations against plain-string mirrors."""

from __future__ import annotations

import math
import random
import statistics
from array import array
from bisect import bisect_left
from itertools import accumulate

import pytest

from drc.cover_engine import compress, cut
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
        for blk in [(0, 1), (3, 2), (1, BANANA.r + 1)]:
            with pytest.raises(InvalidBlock):
                forest.add_blocks([(1, 3), blk])
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


def test_interleaved_forest_soak():
    rng = random.Random(42)
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
                assert naive_maximality_check(ref, forest.blocks(hh))

    forest.validate()
    for hh, tt in mirrors.items():
        assert forest.decompress(hh) == bytes(tt)
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


def test_window_and_splice_match_list_model():
    # every window of up to four leaves (inside one child, across the
    # lowest common ancestor, at either end) replaced by 0..5 blocks
    rng = random.Random(15)
    forest = CoverForest(build_index(bytes(range(97, 123)) * 4))
    r = forest.index.r

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
                    out = _splice(t, lo, hi, new)
                    want = blocks[: lo - 1] + new + blocks[hi:]
                    assert list(_leaves(out)) == want, (n, lo, hi, k)
                    if k == hi - lo + 1:
                        assert out is t  # leaves overwritten in place
                    if out is None:
                        continue
                    height, _c, leaves = forest._check_node(out, array("Q"))
                    assert leaves == len(want)
                    assert height - 1 <= 1.44 * math.log2(leaves + 1) + 1e-9


def test_edit_window_matches_list_model():
    # every replace, insert and delete position of a few strings, on
    # balanced and uneven trees: the one descent reads the window that
    # the block list gives, with the leaf that holds j found by summing
    # block lengths and a neighbor left out when the part next to it is
    # the old block (an insert at a block start keeps the next block out);
    # over "banana", a one-byte block often sits next to a copy of itself
    rng = random.Random(19)
    ref = bytes(rng.choice(b"abcd") for _ in range(120))
    kept_out = 0
    for ref, size in [(ref, 1), (ref, 2), (ref, 5), (ref, 60), (ref, 400), (b"banana", 80)]:
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
                    assert _edit_window(t, j, drop, new) == (lo + 1, hi + 1, want), (size, j)
                    kept_out += hi == l < len(blocks) - 1
            assert list(_leaves(t)) == blocks  # reading changed nothing
    assert kept_out > 0


def test_validate_rejects_a_node_shared_by_two_handles():
    rng = random.Random(4)
    forest = CoverForest(BANANA)
    ha = forest.add(bytes(rng.choice(b"abn") for _ in range(200)))
    hb = forest.add(b"nabnab")
    forest.validate()
    graft = forest._trees[ha].left  # an internal node of ha
    assert graft.blk is None
    forest._trees[hb] = _join(forest._trees[hb], graft)
    with pytest.raises(AssertionError, match="reachable twice"):
        forest.validate()


def test_point_edits_rewrite_few_nodes(monkeypatch):
    # an edit rewrites its window in place: on a 10k-leaf string no edit
    # allocates more than a small build plus a few joins' worth of nodes
    rng = random.Random(5)
    ref = bytes(rng.choice(b"ab") for _ in range(40))
    forest = CoverForest(build_index(ref))
    h = forest.add(bytes(rng.choice(b"ab") for _ in range(60_000)))
    assert forest.block_count(h) >= 10_000
    made = []
    real = multi_cover._Tree.__init__
    monkeypatch.setattr(multi_cover._Tree, "__init__",
                        lambda self, blk: made.append(1) or real(self, blk))
    per_edit = []
    for _ in range(3000):
        n = forest.length(h)
        kind = rng.randrange(3)
        made.clear()
        if kind == 0:
            forest.replace(h, rng.randrange(1, n + 1), rng.choice(b"ab"))
        elif kind == 1:
            forest.insert(h, rng.randrange(1, n + 2), rng.choice(b"ab"))
        else:
            forest.delete(h, rng.randrange(1, n + 1))
        per_edit.append(len(made))
    monkeypatch.undo()
    assert max(per_edit) <= 16, max(per_edit)
    assert statistics.median(per_edit) == 0
    forest.validate()
    assert naive_maximality_check(ref, forest.blocks(h))
