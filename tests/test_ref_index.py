"""Tests for the static reference index."""

import collections
import hashlib
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drc.errors import (
    CharNotInReference,
    EmptyReference,
    IndexOutOfRange,
    InvalidBlock,
)
from drc.oracles import (
    naive_longest_match,
    naive_substring_concat,
)
from drc.ref_index import _TREE, RefIndex, _factorize, _Rmq, _shared_codes, build_index


BANANA = build_index(b"banana")


def first_in_sa_order(ref: bytes, seg: bytes) -> int:
    """1-based start of the occurrence of ``seg`` in ``ref`` whose suffix
    sorts first, i.e. the one of smallest ISA: the witness rule."""
    return min((p for p in range(len(ref)) if ref.startswith(seg, p)),
               key=lambda p: ref[p:]) + 1


def common_prefix(x: bytes, y: bytes) -> int:
    """Length of the longest common prefix of two byte strings, by
    bisection on prefix equality."""
    lo, hi = 0, min(len(x), len(y))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if x[:mid] == y[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def direct_suffix_arrays(data: bytes):
    """SA, ISA and LCP of ``data`` from a sort of the suffixes themselves."""
    sa = sorted(range(len(data)), key=lambda i: data[i:])
    isa = [0] * len(data)
    for j, i in enumerate(sa):
        isa[i] = j
    lcp = [0] + [common_prefix(data[a:], data[b:]) for a, b in zip(sa, sa[1:])]
    return sa, isa, lcp


def assert_greedy(ref: bytes, text: bytes, blocks) -> None:
    """Each block is a longest match at its start, witnessed by the
    occurrence that sorts first, and the blocks spell ``text``."""
    pos = 1
    for s, e in blocks:
        want, _ = naive_longest_match(ref, text, pos)
        assert e - s + 1 == want
        assert s == first_in_sa_order(ref, text[pos - 1 : pos - 1 + want])
        pos += want
    assert pos == len(text) + 1


class TestBuild:
    def test_banana_suffix_array(self):
        # suffixes a, ana, anana, banana, na, nana
        assert [int(v) + 1 for v in BANANA.suffix_array] == [6, 4, 2, 1, 5, 3]

    def test_unit_reference(self):
        ix = build_index(b"a")
        assert ix.lce(1, 1) == 1
        assert ix.substring_concat((1, 1), (1, 1)) is None
        ix.validate(deep=True)

    def test_empty_reference_rejected(self):
        with pytest.raises(EmptyReference):
            build_index(b"")

    @staticmethod
    def check(data: bytes) -> None:
        ix = build_index(data)
        ix.validate(deep=True)
        isa = np.asarray(ix._isa)
        assert (isa[ix.suffix_array] == np.arange(len(data))).all()

    def test_random_references_validate(self):
        rng = random.Random(11)
        for sigma, r in [(2, 40), (3, 101), (4, 257), (26, 64), (256, 200)]:
            self.check(bytes(rng.randrange(sigma) for _ in range(r)))
        # tiny references with high byte values, and every byte once,
        # which the first sort places alone
        for data in [b"ab", b"\xff\x00\xff", bytes(range(255, -1, -1))]:
            self.check(data)

    def test_periodic_references_validate(self):
        # a run of one byte takes the most refinement rounds
        for data in [b"a" * 50, b"ab" * 30, b"abc" * 17 + b"ab", b"a" * 4096]:
            self.check(data)

    def test_occurrence_is_the_first_position(self):
        # cover_engine picks a one-byte block by ``occurrence``, so the
        # pinned block digests rest on it naming each byte's first position
        rng = random.Random(27)
        data = bytes(rng.randrange(256) for _ in range(2000))
        ix = build_index(data)
        for c in range(256):
            assert ix.occurrence(c) == (data.index(c) + 1 if c in data else None)

    def test_tree_bytes_per_reference_byte(self):
        # memory contract of the lazy concatenation tree: int32 arrays,
        # about 100 bytes per reference byte on random DNA
        rng = random.Random(20)
        r = 20_000
        ix = build_index(bytes(rng.choice(b"acgt") for _ in range(r)))
        ix.substring_concat((1, 1), (1, 1))
        owners = {}
        for a in (getattr(ix, name) for name in _TREE):
            # a memoryview or an ndarray view counts its whole buffer, once
            assert isinstance(a, (np.ndarray, memoryview)), type(a)
            a = a.obj if isinstance(a, memoryview) else a
            while isinstance(a, np.ndarray) and a.base is not None:
                a = a.base
            owners[id(a)] = memoryview(a).nbytes
        assert sum(owners.values()) <= 120 * r

    def test_build_bytes_per_reference_byte(self):
        # the build keeps one int32 rank snapshot per refinement round until
        # the LCP is read off them; a run of one byte takes the most rounds
        r = 2**16
        tracemalloc.start()
        try:
            build_index(b"a" * r).lce(1, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 160 * r

    @pytest.mark.parametrize("unit", [b"abcab", b"a"])
    def test_tree_build_bytes_per_reference_byte(self, unit):
        # the tree build's own peak, the RMQ already built: a periodic
        # reference has about as many internal nodes as leaves
        r = 2**16
        ix = build_index((unit * r)[:r])
        ix.lce(1, 2)
        tracemalloc.start()
        try:
            ix._build_tree()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * r

    @pytest.mark.parametrize("kind", ["acgt", "lexicon"])
    def test_build_peak_bytes_per_reference_byte(self, kind):
        # the eager build's traced peak on references that the first sort
        # and one or two refinement rounds order: about 32 bytes per
        # reference byte on ACGT and 45 on this lexicon text
        rng = random.Random(26)
        r = 2**16
        if kind == "acgt":
            ref = bytes(rng.choice(b"acgt") for _ in range(r))
        else:
            words = b"the of and block merge split tree leaf window probe query".split()
            ref = b" ".join(rng.choice(words) for _ in range(r // 4))[:r]
        tracemalloc.start()
        try:
            build_index(ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 52 * r

    def test_eager_index_bytes_per_reference_byte(self):
        # what a build keeps before any edit: int32 SA, ISA and LCP, 4
        # bytes each per reference byte, and the uint64 suffix keys, 8; the
        # ISA keeps the end slot of the refinement's rank array
        rng = random.Random(24)
        r = 20_000
        ix = build_index(bytes(rng.choice(b"acgt") for _ in range(r)))
        owners = {}
        for a in (ix._sa, ix._isa, ix._lcp, ix._keys):
            a = a.obj if isinstance(a, memoryview) else a
            while a.base is not None:
                a = a.base
            owners[id(a)] = a.nbytes
        assert len(owners) == 4
        assert sum(owners.values()) == 20 * r + 4

    def test_validate_checks_the_suffix_keys(self):
        rng = random.Random(25)
        ix = build_index(bytes(rng.choice(b"ab\x00") for _ in range(300)))
        ix.validate()
        keys = np.asarray(ix._keys)
        # one flipped bit: in the last byte of a key, a padding byte for a
        # suffix ending R, and in the first
        for j, bit in ((0, 0), (150, 0), (int(ix._isa[297]), 0), (299, 63)):
            keys[j] ^= np.uint64(1 << bit)
            with pytest.raises(AssertionError, match="key"):
                ix.validate()
            keys[j] ^= np.uint64(1 << bit)
        ix.validate()

    def test_first_query_builds_even_when_a_block_is_unique(self):
        # the lazy RMQ and tree are built by the first query, whichever
        # path answers it: here the unique-block one, as "ba" occurs once
        ix = build_index(b"banana")
        assert ix._rmq is None and ix._lcp_view is None
        assert ix.substring_concat((1, 2), (5, 6)) == 1
        assert ix._rmq is not None and ix._lcp_view is not None
        ix.validate(deep=True)

    def test_a_failed_tree_build_leaves_the_index_unbuilt(self, monkeypatch):
        # the build publishes its arrays only at its end: one that raises
        # partway sets none of them, and the next query builds the tree
        # afresh and answers as the oracle does
        rng = random.Random(29)
        ref = bytes(rng.choice(b"ab") for _ in range(300))
        ix = build_index(ref)
        real = _Rmq.nearest_smaller

        def right_side_fails(rmq, left):
            if not left:
                raise MemoryError("no room for the right-hand nearest smaller values")
            return real(rmq, left)

        monkeypatch.setattr(_Rmq, "nearest_smaller", right_side_fails)
        with pytest.raises(MemoryError):
            ix.substring_concat((1, 2), (3, 4))
        monkeypatch.undo()
        assert ix._rmq is not None and ix._lcp_view is None
        assert [name for name in _TREE if hasattr(ix, name)] == ["_lcp_view"]
        for _ in range(500):
            xs, ys = rng.randint(1, 290), rng.randint(1, 290)
            x, y = (xs, xs + rng.randint(0, 9)), (ys, ys + rng.randint(0, 9))
            got, want = ix.substring_concat(x, y), naive_substring_concat(ref, x, y)
            assert (got is None) == (want is None), (x, y)
            if got is not None:
                cat = ref[x[0] - 1 : x[1]] + ref[y[0] - 1 : y[1]]
                assert ref[got - 1 : got - 1 + len(cat)] == cat, (x, y)
        ix.validate(deep=True)

    def test_validate_checks_the_lcp_views(self):
        # the RMQ's first row and the tree's LCP must view the checked
        # array itself: a copy could hold other values
        ix = build_index(b"mississippi")
        ix.validate()
        ix._build_tree()
        ix.validate()
        tree_lcp, row0 = ix._lcp_view, ix._rmq._rows[0]
        ix._lcp_view = memoryview(ix._lcp.copy())
        with pytest.raises(AssertionError, match="LCP view"):
            ix.validate()
        ix._lcp_view = tree_lcp
        ix._rmq._rows[0] = memoryview(ix._lcp.copy())
        with pytest.raises(AssertionError, match="LCP view"):
            ix.validate()
        ix._rmq._rows[0] = row0
        ix.validate(deep=True)

    def test_larger_reference_sa_lcp(self):
        rng = random.Random(5)
        data = bytes(rng.randrange(256) for _ in range(10_000))
        build_index(data).validate()


class TestLce:
    def test_banana_pairs(self):
        assert BANANA.lce(2, 4) == 3
        assert BANANA.lce(4, 2) == 3
        for a in range(1, 7):
            assert BANANA.lce(a, a) == 6 - a + 1

    def test_bounds(self):
        with pytest.raises(IndexOutOfRange):
            BANANA.lce(0, 3)
        with pytest.raises(IndexOutOfRange):
            BANANA.lce(1, 7)

    def test_against_scan(self):
        rng = random.Random(3)
        data = bytes(rng.randrange(3) + 97 for _ in range(500))
        ix = build_index(data)
        for _ in range(2000):
            a, b = rng.randint(1, 500), rng.randint(1, 500)
            k = 0
            while a + k <= 500 and b + k <= 500 and data[a + k - 1] == data[b + k - 1]:
                k += 1
            assert ix.lce(a, b) == k


class TestLongestMatch:
    def test_banana_examples(self):
        assert BANANA.longest_match(b"bananaban", 1) == (6, 1)
        assert BANANA.longest_match(b"bananaban", 7) == (3, 1)
        length, w = BANANA.longest_match(b"zzz", 1)
        assert (length, w) == (0, None)

    def test_witness_is_real(self):
        rng = random.Random(9)
        ref = bytes(rng.randrange(4) + 97 for _ in range(300))
        ix = build_index(ref)
        text = bytes(rng.randrange(5) + 97 for _ in range(400))  # 'e' absent
        for start in range(1, 401, 7):
            length, w = ix.longest_match(text, start)
            want_len, _ = naive_longest_match(ref, text, start)
            assert length == want_len
            if length:
                assert ref[w - 1 : w - 1 + length] == text[start - 1 : start - 1 + length]

    def test_start_bounds(self):
        with pytest.raises(IndexOutOfRange):
            BANANA.longest_match(b"abc", 0)
        with pytest.raises(IndexOutOfRange):
            BANANA.longest_match(b"abc", 4)


class TestFactorize:
    def test_banana_cover(self):
        assert BANANA.factorize(b"bananaban") == [(1, 6), (1, 3)]

    def test_empty_text(self):
        assert BANANA.factorize(b"") == []

    def test_absent_byte_position(self):
        with pytest.raises(CharNotInReference) as e:
            BANANA.factorize(b"banxana")
        assert e.value.position == 4 and e.value.byte == ord("x")

    def test_python_kernel_agrees(self):
        # from a start and up to a block limit, the kernel gives prefixes
        # of the method's cover of the rest of the text
        rng = random.Random(21)
        ref = bytes(rng.randrange(3) + 97 for _ in range(128))
        ix = build_index(ref)
        text = bytes(rng.randrange(3) + 97 for _ in range(700))
        for pos in (0, 37):
            want = ix.factorize(text[pos:])
            nb = len(want)
            assert nb > 2
            for k in (1, 2, nb - 1, nb):
                assert _factorize(ix.data, ix._sa, ix._keys, text, pos, k) == (want[:k], -1)
        # a byte absent from R ends the cover at its 0-based position
        bad = text[:300] + b"x" + text[300:]
        got = _factorize(ix.data, ix._sa, ix._keys, bad, 37, len(bad))
        assert got == (ix.factorize(text[37:300]), 300)

    def test_blocks_spell_text_and_are_greedy(self):
        rng = random.Random(2)
        ref = bytes(rng.randrange(4) + 97 for _ in range(256))
        ix = build_index(ref)
        for _ in range(20):
            text = bytes(rng.randrange(4) + 97 for _ in range(rng.randint(0, 500)))
            blocks = ix.factorize(text)
            spelled = b"".join(ref[s - 1 : e] for s, e in blocks)
            assert spelled == text
            assert_greedy(ref, text, blocks)

    def test_matches_around_powers_of_two(self):
        # probes start at 32 bytes and double while a match fills them;
        # "z" starts R only, so piece + "z" never occurs and the first
        # match is exactly the piece; the piece alone ends the text on a
        # probe boundary when its length is a power of two
        rng = random.Random(8)
        ref = b"z" + bytes(rng.randrange(4) + 97 for _ in range(700))
        ix = build_index(ref)
        for length in (2 ** e + dl for e in range(3, 9) for dl in (-1, 0, 1)):
            a = rng.randrange(1, len(ref) - length)
            piece = ref[a : a + length]
            for text in (piece + b"z" + piece, piece):
                blocks = ix.factorize(text)
                assert blocks[0][1] - blocks[0][0] + 1 == length
                assert_greedy(ref, text, blocks)

    def test_runs_end_on_probe_boundaries(self):
        # the first suffix in SA order that holds a run of "a" is the
        # shortest one, so it ends R
        ix = build_index(b"a" * 100)
        assert ix.factorize(b"a" * 64) == [(37, 100)]
        assert ix.factorize(b"a" * 256) == [(1, 100), (1, 100), (45, 100)]

    def test_probe_sorting_after_every_suffix(self):
        # the probe bisects to j == n; the witness bisect stops below n
        assert build_index(b"ab\xff").factorize(b"\xff\xff\xff") == [(3, 3)] * 3
        ix = build_index(b"ba")
        assert _factorize(ix.data, ix._sa, ix._keys, b"bb", 0, 2) == ([(1, 1), (1, 1)], -1)
        assert ix.longest_match(b"bb", 1) == (1, 1)

    def test_zero_and_ff_bytes(self):
        # 0x00 and 0xff are the extreme bytes of each key compare and of
        # the XOR that measures a common prefix
        rng = random.Random(3)
        for _ in range(200):
            ref = bytes(rng.choice(b"\x00\x01\xfe\xff") for _ in range(rng.randint(1, 80)))
            ix = build_index(ref)
            text = b"".join(ref[a : a + rng.randint(1, 50)]
                            for a in (rng.randrange(len(ref)) for _ in range(6)))
            assert_greedy(ref, text, ix.factorize(text))

    def test_longest_match_is_the_limit_one_kernel(self):
        # longest_match runs the kernel with limit 1: at every start the
        # longest match and the witness that sorts first, (0, None) on a
        # byte absent from R
        rng = random.Random(12)
        for sigma in (1, 2, 3, 4):
            ref = bytes(rng.randrange(sigma) + 97 for _ in range(rng.randint(1, 90)))
            ix = build_index(ref)
            text = bytes(rng.randrange(sigma + 1) + 97 for _ in range(150))
            for start in range(1, len(text) + 1):
                length, w = ix.longest_match(text, start)
                want, _ = naive_longest_match(ref, text, start)
                assert length == want
                seg = text[start - 1 : start - 1 + want]
                assert w == (first_in_sa_order(ref, seg) if want else None)

    @pytest.mark.parametrize("ref, text", [
        (b"a" * 2 ** 16, b"a" * 2 ** 20),
        (b"abcab" * 2 ** 12, (b"abcab" * 2 ** 18)[3 : 3 + 2 ** 20]),
    ], ids=["run", "periodic"])
    def test_repetitive_reference_cost(self, ref, text):
        # a match thousands of bytes long costs a few probe doublings, not
        # work per matched byte
        ix = build_index(ref)
        t0 = time.perf_counter()
        blocks = ix.factorize(text)
        assert time.perf_counter() - t0 < 1.0
        assert b"".join(ref[s - 1 : e] for s, e in blocks) == text


class TestKeyRange:
    """Each factorization search runs inside the SA range of suffixes whose
    first 8 bytes, zero-padded, equal the text's: around R's end, at the
    text's end and for matches under 8 bytes that range is an edge case."""

    @staticmethod
    def check_every_start(ref: bytes, text: bytes, starts=None) -> None:
        ix = build_index(ref)
        ix.validate()
        for start in starts or range(1, len(text) + 1):
            length, w = ix.longest_match(text, start)
            want, _ = naive_longest_match(ref, text, start)
            assert length == want, (ref, text, start)
            seg = text[start - 1 : start - 1 + want]
            assert w == (first_in_sa_order(ref, seg) if want else None), (ref, text, start)

    def test_references_shorter_than_a_key(self):
        rng = random.Random(41)
        for _ in range(300):
            ref = bytes(rng.choice(b"\x00a\xff") for _ in range(rng.randint(1, 7)))
            text = bytes(rng.choice(b"\x00a\xff") for _ in range(rng.randint(1, 24)))
            self.check_every_start(ref, text)

    def test_text_tails_shorter_than_a_key(self):
        # the last 8 starts probe fewer than 8 text bytes
        rng = random.Random(42)
        for _ in range(150):
            ref = bytes(rng.choice(b"\x00\x01\xff") for _ in range(rng.randint(8, 60)))
            a = rng.randrange(len(ref))
            text = ref[a : a + rng.randint(1, 30)] + ref[-rng.randint(1, 7) :]
            self.check_every_start(ref, text, range(max(1, len(text) - 7), len(text) + 1))

    def test_suffix_ending_r_ties_with_one_going_on_in_zeros(self):
        # "ab" ends R and pads to the key of "ab" + six 0x00 bytes.  After
        # the probe "ab\0\0\0\0\0\0z", the suffix inside its key range
        # shares 2 bytes and the one above it 4
        ref = b"ab\x00\x00\x01ab"
        assert build_index(ref).longest_match(b"ab" + bytes(6) + b"z", 1) == (4, 1)
        zeros = b"ab" + bytes(8) + b"q"
        for ref in (b"xab\x00\x00\x00\x00\x00\x00\x00qab", zeros + b"ab", b"ab" + zeros):
            for text in (zeros, zeros[:8] + b"x", b"ab", b"ab\x00", zeros[:9] + b"ab\x00"):
                self.check_every_start(ref, text)

    def test_short_matches_witnessed_below_the_key_range(self):
        # "abe" has no suffix in its key range; the match "ab" sorts below
        # it, first at "abc", which only a widened witness search reaches
        assert build_index(b"abcabd").longest_match(b"abe", 1) == (2, 1)
        rng = random.Random(43)
        for _ in range(200):
            ref = bytes(rng.choice(b"abc") for _ in range(rng.randint(8, 40)))
            text = bytes(rng.choice(b"abcd") for _ in range(30))
            self.check_every_start(ref, text)


class TestSubstringConcat:
    def test_banana_examples(self):
        assert BANANA.substring_concat((1, 2), (3, 4)) == 1  # "bana"
        assert BANANA.substring_concat((2, 3), (2, 3)) == 2  # "anan"
        assert BANANA.substring_concat((5, 6), (1, 1)) is None  # "nab"

    def test_invalid_blocks(self):
        with pytest.raises(InvalidBlock):
            BANANA.substring_concat((0, 2), (1, 1))
        with pytest.raises(InvalidBlock):
            BANANA.substring_concat((1, 2), (6, 7))
        with pytest.raises(InvalidBlock):
            BANANA.substring_concat((3, 2), (1, 1))
        for blk in [(1, 2, 3), (1,)]:
            with pytest.raises(InvalidBlock):
                BANANA.substring_concat(blk, (1, 1))
            with pytest.raises(InvalidBlock):
                BANANA.substring_concat((1, 1), blk)

    def test_answer_is_sound(self):
        rng = random.Random(17)
        ref = bytes(rng.randrange(3) + 97 for _ in range(200))
        ix = build_index(ref)
        for _ in range(3000):
            i = rng.randint(1, 200)
            j = min(200, i + rng.randint(0, 8))
            i2 = rng.randint(1, 200)
            j2 = min(200, i2 + rng.randint(0, 8))
            got = ix.substring_concat((i, j), (i2, j2))
            cat = ref[i - 1 : j] + ref[i2 - 1 : j2]
            if got is not None:
                assert ref[got - 1 : got - 1 + len(cat)] == cat
            else:
                assert ref.find(cat) == -1

    def test_exhaustive_small_alphabets(self):
        # all content-distinct (x, y) pairs up to length 6 on tiny alphabets
        rng = random.Random(4)
        for sigma, r in [(2, 17), (2, 31), (3, 24), (4, 30)]:
            ref = bytes(rng.randrange(sigma) + 97 for _ in range(r))
            ix = build_index(ref)
            intervals = {}
            for i in range(1, r + 1):
                for j in range(i, min(r, i + 5) + 1):
                    intervals.setdefault(ref[i - 1 : j], (i, j))
            items = list(intervals.values())
            for x in items:
                for y in items:
                    got = ix.substring_concat(x, y)
                    want = naive_substring_concat(ref, x, y)
                    cat = ref[x[0] - 1 : x[1]] + ref[y[0] - 1 : y[1]]
                    if want is None:
                        assert got is None, (ref, x, y)
                    else:
                        assert got is not None, (ref, x, y)
                        assert ref[got - 1 : got - 1 + len(cat)] == cat

    def test_full_blocks_and_self(self):
        rng = random.Random(8)
        ref = bytes(rng.randrange(2) + 97 for _ in range(64))
        ix = build_index(ref)
        whole = (1, 64)
        assert ix.substring_concat(whole, whole) is None
        head, tail = (1, 32), (33, 64)
        assert ix.substring_concat(head, tail) == 1


def _locus_refs():
    rng = random.Random(12)
    return [
        bytes(rng.choice(b"acgt") for _ in range(120)),
        bytes(rng.choice(b"ab") for _ in range(100)),
        b"a" * 50,
        (b"abcab" * 20)[:97],
    ]


@pytest.mark.parametrize("ref", _locus_refs(), ids=["acgt", "ab", "a50", "abcab"])
def test_locus_is_highest_ancestor_deep_enough(ref):
    # every leaf and every length up to its depth, against a plain walk
    # up the parent pointers
    ix = build_index(ref)
    ix._build_tree()
    for pos in range(len(ref)):
        up = [ix._isa[pos]]
        while ix._parent[up[-1]] >= 0:
            up.append(ix._parent[up[-1]])
        for length in range(1, ix._depth[up[0]] + 1):
            want = max(k for k, u in enumerate(up) if ix._depth[u] >= length)
            assert ix._locus(pos, length) == up[want], (pos, length)


def test_queries_return_plain_ints():
    # scalars read from numpy arrays would come back as numpy integers
    rng = random.Random(23)
    r = 3000
    ref = bytes(rng.choice(b"acgt") for _ in range(r))
    ix = build_index(ref)
    answers = []
    for _ in range(2000):
        s = rng.randint(1, r - 1)
        m = rng.randint(s, min(r - 1, s + 12))
        e = rng.randint(m + 1, min(r, m + 12))
        # y is a run that follows x in R, or one from anywhere
        y0 = m + 1 if rng.random() < 0.5 else rng.randint(1, e)
        answers.append(ix.substring_concat((s, m), (y0, max(y0, e))))
        assert type(ix.lce(s, y0)) is int
        assert all(type(v) is int for v in ix.longest_match(ref[y0 - 1 : y0 + 20], 1))
    assert {type(a) for a in answers} == {int, type(None)}
    assert type(ix.longest_match(b"zz", 1)[1]) is type(None)


@settings(max_examples=150)
@given(
    ref=st.binary(min_size=1, max_size=40),
    xi=st.integers(0, 10**6), xl=st.integers(0, 6),
    yi=st.integers(0, 10**6), yl=st.integers(0, 6),
)
def test_concat_matches_oracle(ref, xi, xl, yi, yl):
    r = len(ref)
    ix = build_index(ref)
    i = xi % r + 1
    j = min(r, i + xl)
    i2 = yi % r + 1
    j2 = min(r, i2 + yl)
    got = ix.substring_concat((i, j), (i2, j2))
    cat = ref[i - 1 : j] + ref[i2 - 1 : j2]
    if got is None:
        assert ref.find(cat) == -1
    else:
        assert ref[got - 1 : got - 1 + len(cat)] == cat


def sorting_inputs() -> dict:
    """References of a few KiB with one, four and 256 distinct bytes, and
    the smallest and no-round cases, by name."""
    rng = random.Random(32)
    words = b"the of and block merge split tree leaf window probe query".split()
    base = bytes(rng.choice(b"acgt") for _ in range(500))
    return {
        "random bytes": bytes(rng.randrange(256) for _ in range(3000)),
        "random ACGT": bytes(rng.choice(b"acgt") for _ in range(4000)),
        "lexicon": b" ".join(rng.choice(words) for _ in range(800))[:4000],
        "periodic": (b"abcab" * 800)[:4000],
        "one-byte run": b"a" * 4096,
        # eight copies of one ACGT base, each with 1% substitutions
        "repetitive": bytes(rng.choice(b"acgt") if rng.random() < 0.01 else c
                            for _ in range(8) for c in base),
        "all bytes, periodic": bytes(range(256)) * 12,
        "one byte": b"\xff",
        "two bytes": b"ba",
        "two equal bytes": b"\xff\xff",
        "every byte once": bytes(rng.sample(range(256), 256)),
        "0x00 and 0xff": bytes(rng.choice(b"\x00\xff") for _ in range(2000)),
    }


SORTING_INPUTS = sorting_inputs()


class TestSuffixSorting:
    """SA, ISA and LCP against a direct sort of the suffixes."""

    @pytest.mark.parametrize("name", list(SORTING_INPUTS))
    def test_arrays_match_a_direct_sort(self, name):
        data = SORTING_INPUTS[name]
        ix = build_index(data)
        sa, isa, lcp = direct_suffix_arrays(data)
        for got, want in ((ix.suffix_array, sa), (ix._isa, isa), (ix._lcp, lcp)):
            got = np.asarray(got)
            assert got.dtype == np.int32
            assert got.tolist() == want

    def test_shared_codes_survive_float_rounding(self):
        # the highest set bit of an XOR comes from its float exponent, and
        # 2^k - 1 rounds up to 2^k above 53 bits; the count must not move
        rng = random.Random(33)
        for bits, k0 in ((1, 62), (2, 31), (3, 20), (5, 12), (9, 6)):
            width = bits * k0
            xs = [2**k - 1 for k in range(1, width + 1)] + [2**k for k in range(width)]
            xs += [rng.randrange(1, 2**width) for _ in range(200)]
            got = _shared_codes(np.array(xs, dtype=np.int64), bits, k0)
            assert got.dtype == np.int32
            assert got.tolist() == [k0 - 1 - (x.bit_length() - 1) // bits for x in xs]


class TestConcatShortcuts:
    """Queries that one byte decides.  Each one's answer agrees with the
    naive scan, and its LCE probes and locus climbs are counted: a
    shortcut that is taken asks neither.  Both blocks occur at least
    twice, so the heavy-path code answers, not the unique-block path;
    only a byte found just at the end of R occurs once."""

    @staticmethod
    def ask(monkeypatch, ref: bytes, x, y, lce: int, locus: int):
        ix = build_index(ref)
        ix._build_tree()
        calls = {"lce": 0, "locus": 0}

        def counted(key, real):
            def call(*args):
                calls[key] += 1
                return real(*args)
            return call

        monkeypatch.setattr(RefIndex, "_lce0", counted("lce", RefIndex._lce0))
        monkeypatch.setattr(RefIndex, "_locus", counted("locus", RefIndex._locus))
        got = ix.substring_concat(x, y)
        monkeypatch.undo()
        want = naive_substring_concat(ref, x, y)
        assert (got is None) == (want is None)
        if got is not None:
            cat = ref[x[0] - 1 : x[1]] + ref[y[0] - 1 : y[1]]
            assert ref[got - 1 : got - 1 + len(cat)] == cat
        assert calls == {"lce": lce, "locus": locus}, calls
        ix._validate_tree()
        return got

    def test_one_byte_x_only_at_the_end(self, monkeypatch):
        # "z" ends R: its leaf's suffix runs out after it
        for y in [(1, 1), (2, 5)]:
            assert self.ask(monkeypatch, b"abcabz", (6, 6), y, lce=0, locus=0) is None

    def test_path_leaf_ends_r(self, monkeypatch):
        # "ab"'s heavy path ends at the suffix "ab" itself: ext == n, and
        # the branch for "x" is a leaf whose edge starts with it
        assert self.ask(monkeypatch, b"xabxab", (5, 6), (4, 4), lce=0, locus=1) == 2

    def test_first_byte_mismatch_mid_edge(self, monkeypatch):
        # every "a" is followed by "b": "ac" leaves the tree inside an edge
        assert self.ask(monkeypatch, b"abcabdcab", (1, 1), (3, 4), lce=0, locus=0) is None

    def test_first_byte_mismatch_at_a_node(self, monkeypatch):
        # the heavy path goes on with "c"; "d" and "da" branch off at "ab"
        assert self.ask(monkeypatch, b"abcabdd", (1, 2), (6, 6), lce=0, locus=1) == 4
        assert self.ask(monkeypatch, b"abcabdada", (1, 2), (6, 7), lce=1, locus=1) == 4
        assert self.ask(monkeypatch, b"abcabdxdcdc", (1, 2), (8, 9), lce=1, locus=1) is None

    def test_one_byte_y_hit(self, monkeypatch):
        assert self.ask(monkeypatch, b"abcabdc", (4, 5), (3, 3), lce=0, locus=1) == 1

    def test_one_byte_left_after_branching(self, monkeypatch):
        # "a" then "bd": one byte of y on the heavy path, one on the branch
        assert self.ask(monkeypatch, b"abcabdbd", (1, 1), (5, 6), lce=1, locus=0) == 4

    def test_one_byte_edge_then_rank_set(self, monkeypatch):
        # "a" branches to the internal node "ac", one byte below it; the
        # rest of y is looked up in that node's rank set; the tail repeats
        # each y elsewhere
        ref = b"abxabyabzacdacecbzcdaxcezcbz"
        assert self.ask(monkeypatch, ref, (1, 1), (11, 12), lce=0, locus=0) == 10
        assert self.ask(monkeypatch, ref, (1, 1), (14, 15), lce=0, locus=0) == 13
        assert self.ask(monkeypatch, ref, (1, 1), (16, 17), lce=0, locus=0) is None
        assert self.ask(monkeypatch, ref, (1, 1), (11, 13), lce=0, locus=1) == 10


class TestConcatUnique:
    """Queries in which x or y occurs once in R.  The concatenation can
    then start at one place only, so a byte compare and at most one LCE
    probe decide it, and no locus climb runs."""

    ask = staticmethod(TestConcatShortcuts.ask)

    def test_unique_x_hit(self, monkeypatch):
        # "ba" occurs once in banana; "na" is found after it by one probe
        assert self.ask(monkeypatch, b"banana", (1, 2), (5, 6), lce=1, locus=0) == 1

    def test_unique_x_first_byte_miss(self, monkeypatch):
        # "n" follows "ba", not "a"
        assert self.ask(monkeypatch, b"banana", (1, 2), (2, 3), lce=0, locus=0) is None

    def test_unique_x_probe_miss(self, monkeypatch):
        # "ba" + "nab": "n" follows "ba", but "nanab" and "nab" share 2 bytes
        assert self.ask(monkeypatch, b"bananab", (1, 2), (5, 7), lce=1, locus=0) is None

    def test_unique_x_ends_r(self, monkeypatch):
        # nothing follows "nana", so e == n
        assert self.ask(monkeypatch, b"banana", (3, 6), (1, 1), lce=0, locus=0) is None

    def test_self_adjacent_hit(self, monkeypatch):
        # y starts where the unique x ends: the probe compares e with itself
        assert self.ask(monkeypatch, b"banana", (1, 2), (3, 4), lce=1, locus=0) == 1

    def test_one_byte_y_after_unique_x(self, monkeypatch):
        assert self.ask(monkeypatch, b"banana", (1, 3), (2, 2), lce=0, locus=0) == 1
        assert self.ask(monkeypatch, b"banana", (1, 3), (3, 3), lce=0, locus=0) is None

    def test_unique_y_hit(self, monkeypatch):
        # "ab" occurs twice, "cd" once: only "ab" right before "cd" can do
        assert self.ask(monkeypatch, b"abcdab", (5, 6), (3, 4), lce=1, locus=0) == 1

    def test_unique_y_miss(self, monkeypatch):
        # the byte before "d" is "c", not the "b" that ends x
        assert self.ask(monkeypatch, b"abcdab", (1, 2), (4, 4), lce=0, locus=0) is None
        # the byte before "cd" matches, the probe of "xb" against "ab" fails
        assert self.ask(monkeypatch, b"abxbcdab", (1, 2), (5, 6), lce=1, locus=0) is None

    def test_unique_y_starts_r(self, monkeypatch):
        # "z" starts R, so no room for x before it: b < 0
        assert self.ask(monkeypatch, b"zabab", (2, 3), (1, 1), lce=0, locus=0) is None

    @pytest.mark.parametrize("alphabet", ["acgt", "lexicon", "repetitive"])
    def test_random_queries_agree_with_the_oracle(self, monkeypatch, alphabet):
        # every query takes at most two descents and two LCE probes, and
        # each descent climbs at most floor(log2 r) + 1 heavy paths; on the
        # repetitive reference few blocks occur once, so most queries with
        # lx > 1 climb to x's locus, and on the others a third skip it
        rng = random.Random(28)
        if alphabet == "acgt":
            ref = bytes(rng.choice(b"acgt") for _ in range(2048))
        elif alphabet == "lexicon":
            words = b"the of and block merge split tree leaf window probe query".split()
            ref = b" ".join(rng.choice(words) for _ in range(400))[:2048]
        else:
            # ten copies of one 200-byte base, each with 1% substitutions
            base = bytes(rng.choice(b"acgt") for _ in range(200))
            ref = bytes(rng.choice(b"acgt".replace(bytes([c]), b""))
                        if rng.random() < 0.01 else c
                        for _ in range(10) for c in base)
        ix, r = build_index(ref), len(ref)
        ix._build_tree()
        calls = collections.Counter()

        def counted(key, real):
            def call(*args):
                calls[key] += 1
                return real(*args)
            return call

        class CountedReads:
            # _locus reads the top of each heavy path it climbs once
            def __init__(self, view):
                self.view, self.reads = view, 0

            def __getitem__(self, i):
                self.reads += 1
                return self.view[i]

        top_of, paths = CountedReads(ix._top_of), []

        def climbing(real):
            def call(*args):
                calls["locus"] += 1
                before = top_of.reads
                got = real(*args)
                paths.append(top_of.reads - before)
                return got
            return call

        monkeypatch.setattr(RefIndex, "_lce0", counted("lce", RefIndex._lce0))
        monkeypatch.setattr(RefIndex, "_locus", climbing(RefIndex._locus))
        monkeypatch.setattr(ix, "_top_of", top_of)

        def once(s, e):
            seg = ref[s - 1 : e]
            return ref.find(seg, ref.find(seg) + 1) < 0

        queries = skipped = climbed = 0
        for _ in range(1500):
            lx, ly = rng.randint(1, 40), rng.randint(1, 40)
            xs = rng.randint(1, r - lx + 1)
            if rng.random() < 0.4 and xs + lx + ly - 1 <= r:
                ys = xs + lx  # y follows x in R, so the pair occurs
            else:
                ys = rng.randint(1, r - ly + 1)
            x, y = (xs, xs + lx - 1), (ys, ys + ly - 1)
            calls.clear()
            got = ix.substring_concat(x, y)
            assert calls["lce"] <= 2 and calls["locus"] <= 2, (x, y, calls)
            want = naive_substring_concat(ref, x, y)
            assert (got is None) == (want is None), (x, y)
            if got is not None:
                cat = ref[xs - 1 : xs + lx - 1] + ref[ys - 1 : ys + ly - 1]
                assert ref[got - 1 : got - 1 + len(cat)] == cat, (x, y)
                if once(*x):
                    assert got == xs, (x, y)
                elif once(*y):
                    assert got == ys - lx, (x, y)
            queries += 1
            # a query with lx > 1 that the tree answers climbs to x's locus
            skipped += lx > 1 and calls["locus"] == 0
            climbed += lx > 1 and calls["locus"] > 0
        assert paths and max(paths) <= r.bit_length(), collections.Counter(paths)
        if alphabet == "repetitive":
            assert climbed > skipped, (climbed, skipped)
        else:
            assert skipped * 3 >= queries, (skipped, queries)


def test_concat_witnesses_are_pinned():
    # the witness an answer names decides the blocks that ``drc edit``
    # writes, so it must not change with how a query is answered; the
    # digest pins the answers of the query without its one-byte shortcuts
    rng = random.Random(31)
    words = b"the of and block merge split tree leaf window probe query".split()
    lexicon = b" ".join(rng.choice(words) for _ in range(400))[:2000]
    acgt = bytes(rng.choice(b"acgt") for _ in range(2000))
    answers = []
    for ref in (acgt, lexicon):
        ix, r = build_index(ref), len(ref)
        for _ in range(2500):
            lx, ly = (rng.choice((1, 1, 2, 3, rng.randint(1, 30))) for _ in "xy")
            xs = rng.randint(1, r - lx + 1)
            if rng.random() < 0.3 and xs + lx + ly - 1 <= r:
                ys = xs + lx  # y follows x in R, so the pair occurs
            else:
                ys = rng.randint(1, r - ly + 1)
            answers.append(ix.substring_concat((xs, xs + lx - 1), (ys, ys + ly - 1)))
    assert sum(a is not None for a in answers) > 1000
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()[:16]
    assert digest == "4c2b506a4792ce55"


def test_occurrence_map():
    assert BANANA.occurrence(ord("b")) == 1
    assert BANANA.occurrence(ord("a")) in (2, 4, 6)
    assert BANANA.occurrence(ord("z")) is None
