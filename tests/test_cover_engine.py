"""Compressed single-string engine against plain-string oracles."""

from __future__ import annotations

import collections
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
from drc.ref_index import RefIndex, build_index

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
        with pytest.raises(InvalidBlock):
            CompressedString(BANANA, [(0, 3)])


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


@pytest.mark.parametrize("verb, i, ch, ops", [
    # blocks uvw | abcde | k | pqr; every edit but the append is in a block
    # after the first.  ops counts its locate as a search and a sum, the two
    # walks that one find replaces, so a located edit issues ops - 1
    ("replace", 4, "z", 3),  # first offset: divide(l, 1)
    ("replace", 6, "z", 4),  # interior: divide(l, off - 1), divide(l + 1, 1)
    ("replace", 8, "z", 3),  # last offset: divide(l, off - 1)
    ("delete", 4, None, 4),  # divide(l, 1), delete(l)
    ("delete", 6, None, 5),  # divide, divide, delete
    ("delete", 8, None, 4),  # divide(l, off - 1), delete(l + 1)
    ("insert", 4, "z", 3),  # block start: insert(l, 1)
    ("insert", 6, "z", 4),  # divide(l, off - 1), insert(l + 1, 1)
    ("insert", 8, "z", 4),  # before the last char: the same two
    ("replace", 9, "z", 2),  # single-char block: nothing to carve
    ("delete", 9, None, 3),  # single-char block: delete(l)
    ("insert", 9, "z", 3),  # before a single-char block: insert(l, 1)
    ("insert", 13, "z", 1),  # append: insert(n + 1, 1), no locate
    ("insert", 4, "x", 4),  # insert(l, 1), then uvw + x merge
    ("replace", 9, "f", 3),  # abcde + f merge
])
def test_edit_shapes_pin_sumtree_ops(verb, i, ch, ops):
    src = b"uvwabcdekpqr"
    cs = compress(ALPHABET, src)
    assert cs.blocks() == [(21, 23), (1, 5), (11, 11), (16, 18)]
    args = (i,) if ch is None else (i, ord(ch))
    getattr(cs, verb)(*args)
    located = i <= len(src)
    assert cs.last_st_ops == ops - located
    if verb == "replace":
        expected = src[: i - 1] + ch.encode() + src[i:]
    elif verb == "insert":
        expected = src[: i - 1] + ch.encode() + src[i - 1 :]
    else:
        expected = src[: i - 1] + src[i:]
    assert_coherent(cs, expected)


def test_located_edit_walks_the_index_at_most_once(monkeypatch):
    # 2^16 blocks abc | xyz | abc | ...: no two adjacent ones concatenate
    # in R.  After its find, an edit that regroups no node and makes no
    # cross-node merge (_refresh) reaches every other entry it touches
    # from the finger or by one walk from the root.  Reads between the
    # edits take the read descent, which walks no leaf counts and leaves
    # the finger where it was.
    cs = CompressedString(ALPHABET, [(1, 3), (24, 26)] * 2**15)
    levels = 0
    node = cs._tree._root
    while not node.bottom:
        levels, node = levels + 1, node.kids[0]
    steps = collections.Counter()
    child_for, regroup, refresh = SumTree._child_for, SumTree._regroup, SumTree._refresh
    monkeypatch.setattr(SumTree, "_child_for", staticmethod(
        lambda node, i: steps.update(["level"]) or child_for(node, i)))
    monkeypatch.setattr(SumTree, "_regroup",
                        lambda self, *a: steps.update(["shape"]) or regroup(self, *a))
    monkeypatch.setattr(SumTree, "_refresh",
                        lambda self, *a: steps.update(["shape"]) or refresh(self, *a))
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
        steps.clear()
        getattr(cs, verb)(*args)
        assert_budgets(cs)
        if not steps["shape"]:
            walks[steps["level"] / levels] += 1
    assert set(walks) == {0, 1} and walks[1] > 100, walks
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
