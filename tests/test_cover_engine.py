"""Compressed single-string engine against plain-string oracles."""

from __future__ import annotations

import collections
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drc.cover_engine import CompressedString, compress, restore_maximal
from drc.errors import CharNotInReference, IndexOutOfRange, InvalidBlock
from drc.multi_cover import CoverForest
from drc.oracles import (
    naive_decompress,
    naive_greedy_cover,
    naive_maximality_check,
)
from drc.partial_sums import SumTree
from drc.partial_sums_small import DEFAULT_CONFIG, PsConfig
from drc.ref_index import RefIndex, build_index

from support import B16_CONFIG, count_walks

BANANA = build_index(b"banana")

CONCAT_BUDGET = 4  # len(window) - 1 for a window of at most 5 blocks
ST_BUDGET = 10


def decompressed(cs: CompressedString) -> bytes:
    return cs.extract(1, len(cs)) if len(cs) else b""


def assert_coherent(cs: CompressedString, expected: bytes) -> None:
    """Contents, structure, maximality, and the greedy-size bound."""
    cs.check()
    assert decompressed(cs) == expected
    blocks = cs.blocks()
    assert naive_decompress(cs.index.data, blocks) == expected
    assert naive_maximality_check(cs.index.data, blocks)
    if expected:
        greedy = naive_greedy_cover(cs.index.data, expected)
        assert cs.block_count <= 2 * len(greedy) - 1


def assert_budgets(cs: CompressedString) -> None:
    assert cs.last_concat_calls <= CONCAT_BUDGET
    assert cs.last_st_ops <= ST_BUDGET


class TestCompress:
    def test_greedy_cover_of_overlapping_text(self):
        cs = compress(BANANA, b"bananaban")
        assert cs.blocks() == [(1, 6), (1, 3)]
        assert len(cs) == 9

    def test_source_equal_to_reference_is_one_block(self):
        cs = compress(BANANA, b"banana")
        assert cs.blocks() == [(1, 6)]

    def test_empty_source(self):
        cs = compress(BANANA, b"")
        assert cs.blocks() == []
        assert len(cs) == 0
        assert decompressed(cs) == b""

    def test_unknown_byte_reports_source_position(self):
        with pytest.raises(CharNotInReference) as exc:
            compress(BANANA, b"banx")
        assert exc.value.position == 4
        assert exc.value.byte == ord("x")

    def test_block_bounds_are_validated(self):
        with pytest.raises(InvalidBlock):
            CompressedString(BANANA, [(1, 7)])
        for blk in [(0, 3), (1, 2, 3), (1,)]:
            with pytest.raises(InvalidBlock):
                CompressedString(BANANA, [blk])

    def test_blocks_given_as_lists_are_stored_as_tuples(self):
        # a list block never equals the tuple parts cut makes, so an insert
        # at its start took it into the edit window and asked one more
        # concatenation query than the same string built from tuples
        cs = CompressedString(ALPHABET, [[21, 23], [1, 5], [11, 11]])
        want = CompressedString(ALPHABET, [(21, 23), (1, 5), (11, 11)])
        assert cs.blocks() == want.blocks()
        assert all(type(blk) is tuple for blk in cs.blocks())
        for s in (cs, want):
            s.insert(4, ord("z"))
        assert cs.blocks() == want.blocks()
        assert (cs.last_concat_calls, cs.last_st_ops) == (2, 2)
        assert_coherent(cs, b"uvwzabcdek")


def test_buffer_inputs_give_the_same_blocks():
    rng = random.Random(4)
    ref = bytes(rng.randrange(4) + 97 for _ in range(300))
    ix = build_index(ref)
    text = bytes(rng.randrange(4) + 97 for _ in range(500))
    want = ix.factorize(text)
    for buf in (text, bytearray(text), memoryview(text)):
        assert ix.factorize(buf) == want
        assert ix.longest_match(buf, 9) == ix.longest_match(text, 9)
        assert compress(ix, buf).blocks() == want
        forest = CoverForest(ix)
        assert forest.blocks(forest.add(buf)) == want
    with pytest.raises(CharNotInReference) as exc:
        ix.factorize(bytearray(text[:40] + b"z" + text[40:]))
    assert exc.value.position == 41
    assert exc.value.byte == ord("z")


class TestReads:
    def test_access(self):
        cs = compress(BANANA, b"bananaban")
        assert cs.access(8) == ord("a")
        assert bytes(cs.access(i) for i in range(1, 10)) == b"bananaban"
        assert cs.last_st_ops == 1

    def test_extract_inside_and_across_blocks(self):
        cs = compress(BANANA, b"bananaban")
        assert cs.extract(7, 3) == b"ban"
        assert cs.extract(5, 3) == b"nab"  # spans the block boundary
        assert cs.extract(1, 9) == b"bananaban"
        assert cs.extract(3, 0) == b""

    def test_extract_of_empty_string(self):
        cs = compress(BANANA, b"")
        assert cs.extract(1, 0) == b""

    def test_read_range_errors(self):
        cs = compress(BANANA, b"banana")
        for bad in (0, 7):
            with pytest.raises(IndexOutOfRange):
                cs.access(bad)
        with pytest.raises(IndexOutOfRange):
            cs.extract(5, 3)
        assert cs.extract(7, 0) == b""  # zero-length read just past the end
        with pytest.raises(IndexOutOfRange):
            cs.extract(8, 0)


class TestReplace:
    def test_single_char(self):
        cs = compress(BANANA, b"bananaban")
        cs.replace(7, ord("n"))
        assert_coherent(cs, b"banananan")
        assert_budgets(cs)

    def test_neighbors_remerge(self):
        # undoing the replacement must collapse back to the original cover
        cs = compress(BANANA, b"bananaban")
        cs.replace(7, ord("n"))
        cs.replace(7, ord("b"))
        assert_coherent(cs, b"bananaban")
        assert cs.block_count == 2

    def test_every_position_of_every_char(self):
        src = b"bananaban"
        for i in range(1, len(src) + 1):
            for ch in b"ban":
                cs = compress(BANANA, src)
                cs.replace(i, ch)
                expected = src[: i - 1] + bytes([ch]) + src[i:]
                assert_coherent(cs, expected)
                assert_budgets(cs)

    def test_single_char_string(self):
        cs = compress(BANANA, b"b")
        cs.replace(1, ord("a"))
        assert_coherent(cs, b"a")

    def test_missing_char_leaves_string_intact(self):
        cs = compress(BANANA, b"banana")
        with pytest.raises(CharNotInReference) as exc:
            cs.replace(3, ord("z"))
        assert exc.value.position == 3
        assert_coherent(cs, b"banana")

    def test_position_errors(self):
        cs = compress(BANANA, b"ban")
        for bad in (0, 4):
            with pytest.raises(IndexOutOfRange):
                cs.replace(bad, ord("a"))


class TestInsert:
    def test_middle(self):
        cs = compress(BANANA, b"banna")
        cs.insert(4, ord("a"))
        assert_coherent(cs, b"banana")
        assert cs.block_count == 1
        assert_budgets(cs)

    def test_front_and_append(self):
        cs = compress(BANANA, b"anana")
        cs.insert(1, ord("b"))
        assert_coherent(cs, b"banana")
        cs.insert(7, ord("b"))
        assert_coherent(cs, b"bananab")
        assert_budgets(cs)

    def test_grow_from_empty(self):
        cs = compress(BANANA, b"")
        expected = bytearray()
        for ch in b"banana":
            cs.insert(len(cs) + 1, ch)
            expected.append(ch)
            assert_coherent(cs, bytes(expected))
            assert_budgets(cs)
        assert cs.block_count == 1  # appends keep re-merging into one block

    def test_every_gap(self):
        src = b"nanaba"
        for i in range(1, len(src) + 2):
            for ch in b"an":
                cs = compress(BANANA, src)
                cs.insert(i, ch)
                expected = src[: i - 1] + bytes([ch]) + src[i - 1 :]
                assert_coherent(cs, expected)
                assert_budgets(cs)

    def test_position_errors(self):
        cs = compress(BANANA, b"ban")
        for bad in (0, 5):
            with pytest.raises(IndexOutOfRange):
                cs.insert(bad, ord("a"))
        with pytest.raises(CharNotInReference):
            cs.insert(2, ord("q"))


class TestDelete:
    def test_middle(self):
        cs = compress(BANANA, b"banana")
        cs.delete(4)
        assert_coherent(cs, b"banna")
        assert_budgets(cs)

    def test_every_position(self):
        src = b"bananaban"
        for i in range(1, len(src) + 1):
            cs = compress(BANANA, src)
            cs.delete(i)
            expected = src[: i - 1] + src[i:]
            assert_coherent(cs, expected)
            assert_budgets(cs)

    def test_down_to_empty(self):
        cs = compress(BANANA, b"ban")
        for remaining in (b"an", b"n", b""):
            cs.delete(1)
            assert_coherent(cs, remaining)
        assert cs.block_count == 0
        cs.insert(1, ord("a"))  # still usable after emptying
        assert_coherent(cs, b"a")

    def test_removal_joins_neighbors(self):
        # deleting the inserted char must fuse the halves back together
        cs = compress(BANANA, b"banana")
        cs.insert(4, ord("b"))
        assert_coherent(cs, b"banbana")
        cs.delete(4)
        assert_coherent(cs, b"banana")
        assert cs.block_count == 1

    def test_position_errors(self):
        cs = compress(BANANA, b"ban")
        for bad in (0, 4):
            with pytest.raises(IndexOutOfRange):
                cs.delete(bad)
        empty = compress(BANANA, b"")
        with pytest.raises(IndexOutOfRange):
            empty.delete(1)


class TestInverses:
    def test_insert_then_delete_roundtrip(self):
        src = b"bananaban"
        cs = compress(BANANA, src)
        before = cs.blocks()
        cs.insert(5, ord("n"))
        cs.delete(5)
        assert_coherent(cs, src)
        assert cs.blocks() == before

    def test_replace_roundtrip(self):
        src = b"nabanab"
        cs = compress(BANANA, src)
        before = cs.blocks()
        cs.replace(2, ord("n"))
        cs.replace(2, src[1])
        assert_coherent(cs, src)
        assert cs.blocks() == before


ALPHABET = build_index(b"abcdefghijklmnopqrstuvwxyz")


# blocks uvw | abcde | k | pqr; every edit but the append is in a block
# after the first, which one find locates.  ops counts the SumTree
# operations the edit issues, that find included
EDIT_SHAPES = [
    ("replace", 4, "z", 2),  # first offset: divide(l, 1)
    ("replace", 6, "z", 3),  # interior: divide(l, off - 1), divide(l + 1, 1)
    ("replace", 8, "z", 2),  # last offset: divide(l, off - 1)
    ("delete", 4, None, 3),  # divide(l, 1), delete(l)
    ("delete", 6, None, 4),  # divide, divide, delete
    ("delete", 8, None, 3),  # divide(l, off - 1), delete(l + 1)
    ("insert", 4, "z", 2),  # block start: insert(l, 1)
    ("insert", 6, "z", 3),  # divide(l, off - 1), insert(l + 1, 1)
    ("insert", 8, "z", 3),  # before the last char: the same two
    ("replace", 9, "z", 1),  # single-char block: nothing to carve
    ("delete", 9, None, 2),  # single-char block: delete(l)
    ("insert", 9, "z", 2),  # before a single-char block: insert(l, 1)
    ("insert", 13, "z", 1),  # append: insert(n + 1, 1), no find
    ("insert", 4, "x", 3),  # insert(l, 1), then uvw + x merge
    ("replace", 9, "f", 2),  # abcde + f merge
]
# ids that name the edit, not the count it pins
EDIT_SHAPE_IDS = [f"{verb}-{i}-{ch}" for verb, i, ch, _ in EDIT_SHAPES]


@pytest.mark.parametrize("verb, i, ch, ops", EDIT_SHAPES, ids=EDIT_SHAPE_IDS)
def test_edit_shapes_pin_sumtree_ops(verb, i, ch, ops):
    src = b"uvwabcdekpqr"
    cs = compress(ALPHABET, src)
    assert cs.blocks() == [(21, 23), (1, 5), (11, 11), (16, 18)]
    args = (i,) if ch is None else (i, ord(ch))
    getattr(cs, verb)(*args)
    assert cs.last_st_ops == ops
    if verb == "replace":
        expected = src[: i - 1] + ch.encode() + src[i:]
    elif verb == "insert":
        expected = src[: i - 1] + ch.encode() + src[i - 1 :]
    else:
        expected = src[: i - 1] + src[i:]
    assert_coherent(cs, expected)


def entering_sumtree_calls(monkeypatch) -> list:
    """Wrap the seven public SumTree operations, as bench/tracing.py wraps
    them, and count in the returned one-item list each call that enters
    the tree from outside: one made while no other wrapped call runs."""
    calls, depth = [0], [0]

    def wrap(fn):
        def traced(*args):
            calls[0] += not depth[0]
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return traced

    for name in ("sum", "search", "update", "divide", "merge", "insert", "delete"):
        monkeypatch.setattr(SumTree, name, wrap(SumTree.__dict__[name]))
    return calls


@pytest.mark.parametrize("verb, i, ch, ops", EDIT_SHAPES, ids=EDIT_SHAPE_IDS)
def test_every_counted_op_is_one_traced_call(monkeypatch, verb, i, ch, ops):
    # the bench reads SumTree operations per edit from the spans of its
    # tracer and checks them against last_st_ops: an op taken on a path
    # the tracer does not wrap, or a wrapped call nested in another, would
    # break that check on every edit of this shape
    cs = compress(ALPHABET, b"uvwabcdekpqr")
    calls = entering_sumtree_calls(monkeypatch)
    getattr(cs, verb)(*((i,) if ch is None else (i, ord(ch))))
    assert calls[0] == cs.last_st_ops == ops


def test_traced_calls_match_the_counter_on_random_edits(monkeypatch):
    # B=4 makes splits, fuses and cross-node merges frequent
    rng = random.Random(11)
    ref = random_reference(rng, 120, 3)
    cs = compress(build_index(ref), random_source(rng, ref, 400))
    cs._tree = SumTree(cs._tree.values(), cs.blocks(), config=PsConfig(B=4))
    mirror = bytearray(cs.extract(1, len(cs)))
    calls = entering_sumtree_calls(monkeypatch)
    for _ in range(400):
        before, i, ch = calls[0], rng.randrange(1, len(mirror) + 2), rng.choice(b"abc")
        if i > len(mirror) or rng.random() < 0.3:
            cs.insert(i, ch)
            mirror[i - 1 : i - 1] = bytes([ch])
        elif rng.random() < 0.5:
            cs.replace(i, ch)
            mirror[i - 1] = ch
        else:
            cs.delete(i)
            del mirror[i - 1]
        assert calls[0] - before == cs.last_st_ops
    assert_coherent(cs, bytes(mirror))


@pytest.mark.parametrize("cfg", [B16_CONFIG, PsConfig(B=4), DEFAULT_CONFIG],
                         ids=["B16", "B4", "B64"])
def test_op_stream_ends_with_pinned_blocks(cfg):
    # 4000 point edits of a 16 KiB string stitched from 4-40-byte pieces
    # of a 3000-byte ACGT reference, as edit-dna makes its string.  The
    # final cover, and the SumTree operations and concatenation queries
    # the stream issued, must not change with the tree's fanout or with
    # any change that keeps the engine's behaviour
    rng = random.Random(27)
    ref = bytes(b"acgt"[rng.randrange(4)] for _ in range(3000))
    src = bytearray()
    while len(src) < 1 << 14:
        s = rng.randrange(len(ref))
        src += ref[s : s + 4 + rng.randrange(37)]
    cs = compress(build_index(ref), bytes(src))
    cs._tree = SumTree(cs._tree.values(), cs.blocks(), config=cfg)
    counts = [0, 0]
    for _ in range(4000):
        verb, c = rng.randrange(3), ref[rng.randrange(len(ref))]
        if verb == 0:
            i = rng.randrange(1, len(src) + 1)
            cs.replace(i, c)
            src[i - 1] = c
        elif verb == 1:
            i = rng.randrange(1, len(src) + 2)
            cs.insert(i, c)
            src.insert(i - 1, c)
        else:
            i = rng.randrange(1, len(src) + 1)
            cs.delete(i)
            del src[i - 1]
        counts[0] += cs.last_st_ops
        counts[1] += cs.last_concat_calls
    assert cs.extract(1, len(cs)) == bytes(src)
    cs.check()
    blocks = cs.blocks()
    assert len(blocks) == 2833 and counts == [16328, 13691]
    assert hashlib.sha256(repr(blocks).encode()).hexdigest()[:16] == "e1715343ad74e756"


def test_located_edit_walks_the_index_at_most_once(monkeypatch):
    # 2^16 blocks abc | xyz | abc | ...: no two adjacent ones concatenate
    # in R.  After its find, an edit that regroups no node reaches every
    # other entry it touches from the finger, or one step along its path
    # when the entry lies in the next bottom node on either side: no walk
    # from the root.  (Node boundaries here all fall between xyz and abc,
    # so no merge crosses one; the next test makes those.)  Reads
    # between the edits take the read descent, which walks no leaf counts
    # and leaves the finger where it was, and so does a range read walking
    # on from it.
    cs = CompressedString(ALPHABET, [(1, 3), (24, 26)] * 2**15)
    levels = 0
    node = cs._tree._root
    while not node.bottom:
        levels, node = levels + 1, node.kids[0]
    steps = count_walks(monkeypatch)
    rng = random.Random(16)
    walks = collections.Counter()
    for _ in range(2000):
        verb = rng.choice(("replace", "insert", "delete"))
        i = rng.randrange(1, len(cs) + 1)
        args = (i,) if verb == "delete" else (i, ord(rng.choice("abcqxyz")))
        finger, steps["level"] = cs._tree._finger, 0
        got = cs.access(rng.randrange(1, len(cs) + 1))
        assert cs._tree._finger is finger and steps["level"] == 0
        assert got in b"abcqxyz" and cs.last_st_ops == 1
        at = rng.randrange(1, len(cs) + 1)
        got = cs.extract(at, rng.randint(0, min(200, len(cs) + 1 - at)))
        assert cs._tree._finger is finger and steps["level"] == 0
        assert set(got) <= set(b"abcqxyz") and cs.last_st_ops == (len(got) > 0)
        steps.clear()
        getattr(cs, verb)(*args)
        assert_budgets(cs)
        if not steps["shape"]:
            walks[steps["level"] / levels] += 1
    assert set(walks) == {0} and walks[0] > 1900, walks
    cs.check()


def _bottom_node(tree, i):
    """(bottom node holding leaf i, leaves before it, chars before it),
    found by a walk of the test's own, which count_walks does not count."""
    node, leaves, chars = tree._root, 0, 0
    while not node.bottom:
        for k, kid in enumerate(node.kids, 1):
            if i <= leaves + kid.nleaves:
                break
            leaves += kid.nleaves
        chars += node.ps._sum(k - 1)
        node = kid
    return node, leaves, chars


def test_a_cross_node_merge_walks_the_index_at_most_once(monkeypatch):
    # a period of five blocks, which no node size of a 16-entry bulk
    # build (12 or 13) divides, ends some bottom nodes with an abc; a d put
    # at the next node's first character, by an insert or a replace,
    # merges into that abc across the two nodes.  Unless a node regroups,
    # such an edit walks no leaf counts from the root.
    period = [(1, 3), (24, 26), (13, 15), (7, 9), (19, 21)]
    cs = CompressedString(ALPHABET, period * 13000)
    tree = cs._tree = SumTree(cs._tree.values(), cs.blocks(), config=B16_CONFIG)
    mirror = bytearray(b"abcxyzmnoghistu" * 13000)
    steps = count_walks(monkeypatch)
    merge = SumTree.merge

    def counting_merge(self, i):
        node, leaves, _ = _bottom_node(self, i)
        steps["cross"] += i == leaves + len(node.kids)
        merge(self, i)

    monkeypatch.setattr(SumTree, "merge", counting_merge)
    rng = random.Random(32)
    crossed = collections.Counter()  # by leaf-count steps of the edit
    for _ in range(4000):
        node, leaves, chars = _bottom_node(tree, rng.randrange(1, len(tree) - 20))
        if node.kids[-1] != (1, 3):
            continue
        p = chars + node.ps.total + 1  # the next node's first character
        verb = rng.choice(("insert", "replace"))
        steps.clear()
        getattr(cs, verb)(p, ord("d"))
        if verb == "insert":
            mirror.insert(p - 1, ord("d"))
        else:
            mirror[p - 1] = ord("d")
        assert_budgets(cs)
        if steps["cross"] and not steps["shape"]:
            crossed[steps["level"]] += 1
    assert set(crossed) == {0} and crossed[0] > 400, crossed
    assert cs.extract(1, len(cs)) == mirror
    cs.check()


@pytest.mark.parametrize("i, queries", [
    (4, 2),   # block start: (uvw, z) and (z, abcde); (abcde, k) is unchanged
    (13, 1),  # append: (pqr, z); (k, pqr) is unchanged
])
def test_edit_window_skips_unchanged_boundaries(monkeypatch, i, queries):
    src = b"uvwabcdekpqr"
    cs = compress(ALPHABET, src)
    cs.insert(i, ord("z"))
    assert cs.last_concat_calls == queries
    forest = CoverForest(ALPHABET)
    h = forest.add(src)
    calls = []
    real = RefIndex.substring_concat
    monkeypatch.setattr(RefIndex, "substring_concat",
                        lambda self, a, b: calls.append((a, b)) or real(self, a, b))
    forest.insert(h, i, ord("z"))
    assert len(calls) == queries
    assert forest.blocks(h) == cs.blocks()


def test_restore_maximal_skips_the_boundary_before_a_merge():
    # (uvw, abc) is absent; after abc + de merges, the pair (uvw, abcde)
    # extends that absent pair, so it is not asked again
    calls, merges = [], []

    def concat(a, b):
        calls.append((a, b))
        return ALPHABET.substring_concat(a, b)

    win = restore_maximal([(21, 23), (1, 3), (4, 5)], concat,
                          lambda k, blk: merges.append((k, blk)))
    assert win == [(21, 23), (1, 5)]
    assert merges == [(1, (1, 5))]
    assert calls == [((21, 23), (1, 3)), ((1, 3), (4, 5))]


def test_restore_maximal_asks_each_boundary_once():
    rng = random.Random(3)
    for _ in range(300):
        ref = bytes(rng.choice(b"ab") for _ in range(rng.randrange(2, 12)))
        idx = build_index(ref)
        win = []
        for _ in range(rng.randrange(1, 6)):
            s = rng.randrange(1, len(ref) + 1)
            win.append((s, rng.randrange(s, min(len(ref), s + 2) + 1)))
        text = naive_decompress(ref, win)
        calls = []
        out = restore_maximal(list(win), lambda a, b: calls.append(1) or idx.substring_concat(a, b))
        assert len(calls) == len(win) - 1
        assert naive_decompress(ref, out) == text
        assert naive_maximality_check(ref, out)


def test_bytes_outside_0_255_are_not_in_the_reference():
    # 0xff is in R, so a byte of -1 must not wrap around to it
    idx = build_index(b"ban\xffana")
    cs = compress(idx, b"banana")
    for byte in (-1, 256, -256, 1 << 70):
        with pytest.raises(CharNotInReference):
            cs.replace(1, byte)
        with pytest.raises(CharNotInReference):
            cs.insert(1, byte)
    assert_coherent(cs, b"banana")


def test_byte_outside_0_255_is_named_as_it_is():
    cs = compress(BANANA, b"banana")
    with pytest.raises(CharNotInReference, match=r"^byte -1 at source position 2 "):
        cs.insert(2, -1)
    with pytest.raises(CharNotInReference, match=r"^byte 0x7a at source position 2 "):
        cs.insert(2, ord("z"))


@pytest.mark.parametrize("src", [b"", b"abc", b"abcab"])
@pytest.mark.parametrize("op", ["insert", "replace"])
def test_a_byte_that_is_no_integer_changes_nothing(src, op):
    # None is the engine's own "put nothing" marker; it must not get through
    cs = compress(build_index(b"abcabc"), src)
    blocks = cs.blocks()
    for i in range(1, len(src) + 2):
        for byte in (None, 97.0, b"a"):
            with pytest.raises(TypeError):
                getattr(cs, op)(i, byte)
            assert cs.blocks() == blocks
            assert_coherent(cs, src)


@pytest.mark.parametrize("op", ["access", "extract", "replace", "insert", "delete"])
def test_a_position_that_is_no_integer_changes_nothing(op):
    # a float or a string position is refused before anything changes; a
    # numpy integer is a position like any int
    calls = {
        "access": lambda cs, i: cs.access(i),
        "extract": lambda cs, i: cs.extract(i, 3),
        "replace": lambda cs, i: cs.replace(i, ord("n")),
        "insert": lambda cs, i: cs.insert(i, ord("n")),
        "delete": lambda cs, i: cs.delete(i),
    }
    src = b"bananaban"
    cs = compress(BANANA, src)
    blocks = cs.blocks()
    for bad in (2.5, 3.0, "3", None):
        with pytest.raises(TypeError):
            calls[op](cs, bad)
        assert cs.blocks() == blocks
        assert_coherent(cs, src)
    if op == "extract":
        with pytest.raises(TypeError):
            cs.extract(2, 3.0)
        assert_coherent(cs, src)
    want = compress(BANANA, src)
    for i in (np.int64(3), np.uint8(1), np.int32(len(src) - 2)):
        assert calls[op](cs, i) == calls[op](want, int(i))
        assert cs.blocks() == want.blocks()
        cs.check()


def random_reference(rng: random.Random, r: int, sigma: int) -> bytes:
    return bytes(rng.randrange(sigma) + 97 for _ in range(r))


def random_source(rng: random.Random, ref: bytes, n: int) -> bytes:
    # splice reference chunks so covers have interesting shape
    out = bytearray()
    while len(out) < n:
        s = rng.randrange(len(ref))
        e = min(len(ref), s + rng.randrange(1, 12))
        out += ref[s:e]
    return bytes(out[:n])


def drive(cs: CompressedString, mirror: bytearray, rng: random.Random) -> None:
    """One random op applied to both the engine and the plain mirror."""
    alpha = sorted(set(cs.index.data))
    kind = rng.choice(("replace", "insert", "delete", "access", "extract"))
    if kind == "replace" and mirror:
        i = rng.randrange(1, len(mirror) + 1)
        ch = rng.choice(alpha)
        cs.replace(i, ch)
        mirror[i - 1] = ch
    elif kind == "insert":
        i = rng.randrange(1, len(mirror) + 2)
        ch = rng.choice(alpha)
        cs.insert(i, ch)
        mirror[i - 1 : i - 1] = bytes([ch])
    elif kind == "delete" and mirror:
        i = rng.randrange(1, len(mirror) + 1)
        cs.delete(i)
        del mirror[i - 1]
    elif kind == "access" and mirror:
        i = rng.randrange(1, len(mirror) + 1)
        assert cs.access(i) == mirror[i - 1]
    elif kind == "extract":
        ln = rng.randrange(0, len(mirror) + 1)
        i = rng.randrange(1, len(mirror) - ln + 2)
        assert cs.extract(i, ln) == bytes(mirror[i - 1 : i - 1 + ln])
    assert_budgets(cs)


@pytest.mark.parametrize("seed", range(6))
def test_random_edit_soak(seed):
    rng = random.Random(1000 + seed)
    ref = random_reference(rng, rng.randrange(20, 200), rng.choice((2, 3, 4)))
    idx = build_index(ref)
    src = random_source(rng, ref, rng.randrange(0, 300))
    cs = compress(idx, src)
    mirror = bytearray(src)
    for step in range(400):
        drive(cs, mirror, rng)
        if step % 40 == 0:
            assert_coherent(cs, bytes(mirror))
    assert_coherent(cs, bytes(mirror))


@settings(max_examples=60)
@given(
    ref=st.binary(min_size=1, max_size=24).map(lambda b: bytes(97 + c % 3 for c in b)),
    script=st.lists(
        st.tuples(st.sampled_from("RID"), st.integers(0, 10 ** 6), st.integers(0, 2)),
        max_size=12,
    ),
)
def test_edit_scripts_match_plain_strings(ref, script):
    idx = build_index(ref)
    cs = compress(idx, ref)
    mirror = bytearray(ref)
    for verb, rawpos, charsel in script:
        ch = 97 + charsel
        if ch not in ref:
            continue
        if verb == "I":
            i = rawpos % (len(mirror) + 1) + 1
            cs.insert(i, ch)
            mirror[i - 1 : i - 1] = bytes([ch])
        elif not mirror:
            continue
        elif verb == "R":
            i = rawpos % len(mirror) + 1
            cs.replace(i, ch)
            mirror[i - 1] = ch
        else:
            i = rawpos % len(mirror) + 1
            cs.delete(i)
            del mirror[i - 1]
        assert_budgets(cs)
    assert_coherent(cs, bytes(mirror))
