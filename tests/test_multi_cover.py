"""Forest operations against plain-string mirrors."""

from __future__ import annotations

import math
import random
import statistics
from array import array
from bisect import bisect_left
from itertools import accumulate

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

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


def node_fields(t):
    """Every node of ``t`` with its fields, by node identity."""
    out, stack = {}, [t] if t is not None else []
    while stack:
        n = stack.pop()
        out[id(n)] = (n, n.blk, n.left, n.right, n.height, n.nchars, n.nleaves)
        if n.blk is None:
            stack += [n.left, n.right]
    return out


def count_new_nodes(monkeypatch):
    """A list that grows by one per ``_Tree`` made from now on."""
    made = []
    real = multi_cover._Tree.__init__
    monkeypatch.setattr(multi_cover._Tree, "__init__",
                        lambda self, blk: made.append(1) or real(self, blk))
    return made


def test_join_matches_list_model():
    # random pairs of pieces, empty ones included, joined with and without
    # a spare node on top: the leaves concatenate, the result is an AVL
    # tree, the spare is used exactly when both sides have leaves, and no
    # node of either input changes
    rng = random.Random(23)
    forest = CoverForest(build_index(bytes(range(97, 123))))
    used = 0
    for _ in range(1500):
        sides = []
        for base in (1, 13):
            n = rng.choice((0, 1, 2, 3, 5, 8, 13, 30))
            blocks = [(base + i % 13, base + i % 13) for i in range(n)]
            t = rng.choice((_build, lambda b: uneven_tree(rng, b) if b else None))(blocks)
            sides.append((t, blocks, node_fields(t)))
        (a, blocks_a, before_a), (b, blocks_b, before_b) = sides
        top = _build([(1, 1), (2, 2)]) if rng.random() < 0.5 else None
        out = _join(a, b, top)
        assert list(_leaves(out)) == blocks_a + blocks_b
        after = node_fields(out)
        if top is not None:
            assert (id(top) in after) == (a is not None and b is not None)
            used += id(top) in after
        for before in (before_a, before_b):
            for n, *fields in before.values():
                assert [n.blk, n.left, n.right, n.height, n.nchars, n.nleaves] == fields
        if out is None:
            continue
        height, _c, leaves = forest._check_node(out, array("Q"))
        assert leaves == len(blocks_a) + len(blocks_b)
        assert height - 1 <= 1.44 * math.log2(leaves + 1) + 1e-9
    assert used > 0


def test_unbalanced_splice_reuses_the_node_where_heights_meet(monkeypatch):
    # rewriting the right half of 8 leaves as one block leaves the root's
    # children 3 and 1 levels high: their join makes one node above the
    # left child's right child, and the old root goes where the heights meet
    blocks = [(i, i) for i in range(1, 9)]
    t = _build(blocks)
    made = count_new_nodes(monkeypatch)
    out = _splice(t, 5, 8, [(5, 8)])
    monkeypatch.undo()
    assert list(_leaves(out)) == blocks[:4] + [(5, 8)]
    assert len(made) == 1
    assert out.right is t and out.right.right.blk == (5, 8)
    CoverForest(build_index(b"abcdefgh"))._check_node(out, array("Q"))


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


# The read finger: consecutive reads inside one leaf share a descent, and
# every call that rewrites a tree drops it.

FOX = build_index(b"the quick brown fox jumps over the lazy dog")
FOX_SRC = b"quick dog jumps the lazy brown fox over the quick"  # 7 leaves, 3-10 chars
FOX_ALPHA = sorted(set(FOX.data))


def finger_span(forest: CoverForest):
    """First and last position of the finger's leaf."""
    leaf = forest._finger_leaf
    return forest._finger_base + 1, forest._finger_base + leaf.nchars


def read_run(forest: CoverForest, h: int, text: bytearray, lo: int, hi: int) -> None:
    for j in range(max(lo, 1), min(hi, len(text)) + 1):
        assert forest.access(h, j) == text[j - 1], (h, j)


def other_byte(text: bytearray, j: int) -> int:
    old = text[j - 1] if j <= len(text) else 0
    return next(c for c in FOX_ALPHA if c != old)


@pytest.mark.parametrize("where", ["inside", "first", "last", "past"])
@pytest.mark.parametrize("kind", ["replace", "insert", "delete"])
def test_finger_reads_match_mirror_around_edits(kind, where):
    # for every leaf: a run of reads sets the finger on it, an edit lands
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
            continue  # nothing past the last leaf but an append
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

    # splitting the cached handle inside the cached leaf
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
    blocks = [(5, 10), (41, 43), (20, 26), (32, 40), (11, 20), (27, 35), (5, 9)]
    forest = CoverForest(FOX)
    h = forest.add_blocks(blocks)
    text = bytearray(b"".join(FOX.data[s - 1 : e] for s, e in blocks))
    trees = CountingTrees(forest._trees)
    monkeypatch.setattr(forest, "_trees", trees)

    read_run(forest, h, text, 1, len(text))
    assert trees.lookups == len(blocks)
    trees.lookups = 0
    for j in range(len(text), 0, -1):  # backwards, from the last leaf
        assert forest.access(h, j) == text[j - 1]
    assert trees.lookups == len(blocks) - 1

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
    forest._finger_base += 1  # off the leaf's first char
    with pytest.raises(AssertionError, match="finger off its leaf"):
        forest.validate()
    forest._finger_base -= 1
    forest._finger_leaf = _build([(1, 3)])  # a leaf of no string
    with pytest.raises(AssertionError, match="finger off its leaf"):
        forest.validate()
    forest.access(h, 12)
    forest._trees[forest._next_handle] = forest._trees.pop(h)
    with pytest.raises(AssertionError, match="dead handle"):
        forest.validate()


class FingerMachine(RuleBasedStateMachine):
    """Runs of reads between edits, splits and concats, against bytearray
    mirrors.  Edits and runs often start at the finger's leaf, where a
    stale finger would show; consumed handles must stay unknown."""

    def __init__(self):
        super().__init__()
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
        random, or around the finger's leaf when it is on h."""
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


TestFingerMachine = FingerMachine.TestCase
TestFingerMachine.settings = settings(max_examples=150, stateful_step_count=40)
