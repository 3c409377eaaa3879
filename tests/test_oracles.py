"""The oracles' negative answers: an oracle that accepted everything would
let every agreement test pass."""

import pytest

from drc.cover_engine import CompressedString
from drc.errors import (
    CharNotInReference,
    DrcError,
    IndexOutOfRange,
    InvalidBlock,
    NegativeEntry,
    StructureFull,
)
from drc.oracles import (
    NaivePartialSums,
    naive_decompress,
    naive_edit_replay,
    naive_greedy_cover,
    naive_longest_match,
    naive_maximality_check,
    naive_substring_concat,
)
from drc.partial_sums_small import PackedSums, PsConfig
from drc.ref_index import build_index

BANANA = build_index(b"banana")
FOUR = PsConfig(B=4)


def test_a_cover_with_a_concatenating_pair_is_not_maximal():
    # ban + ana is banana itself
    assert naive_maximality_check(b"banana", [(1, 3), (4, 6)]) is False
    assert naive_maximality_check(b"banana", [(1, 6)]) is True


def test_greedy_cover_rejects_a_byte_absent_from_the_reference():
    with pytest.raises(CharNotInReference) as exc:
        naive_greedy_cover(b"banana", b"banxana")
    assert (exc.value.position, exc.value.byte) == (4, ord("x"))


@pytest.mark.parametrize("op", [
    ("A", 0), ("A", 7), ("X", 0, 1), ("X", 6, 2), ("X", 1, -1),
    ("R", 0, 97), ("R", 7, 97), ("I", 0, 97), ("I", 8, 97), ("D", 0), ("D", 7),
], ids=lambda op: "-".join(map(str, op)))
def test_edit_replay_rejects_a_position_outside_the_string(op):
    with pytest.raises(IndexOutOfRange):
        naive_edit_replay(b"banana", [op])


def test_edit_replay_rejects_an_unknown_verb():
    with pytest.raises(ValueError, match="unknown verb"):
        naive_edit_replay(b"banana", [("Q", 1)])


# (oracle call, the real structure's call, the error both must raise)
REJECTIONS = {
    "negative entry": (lambda: NaivePartialSums([1, -1, 2], capacity=4),
                       lambda: PackedSums([1, -1, 2], config=FOUR), NegativeEntry),
    "over capacity": (lambda: NaivePartialSums([1] * 5, capacity=4),
                      lambda: PackedSums([1] * 5, config=FOUR), StructureFull),
    "divide at capacity": (lambda: NaivePartialSums([1, 2, 3, 4], capacity=4).divide(2, 1),
                           lambda: PackedSums([1, 2, 3, 4], config=FOUR).divide(2, 1),
                           StructureFull),
    "concat block past the end": (lambda: naive_substring_concat(b"banana", (5, 7), (1, 1)),
                                  lambda: BANANA.substring_concat((5, 7), (1, 1)),
                                  InvalidBlock),
    "concat block reversed": (lambda: naive_substring_concat(b"banana", (1, 1), (3, 2)),
                              lambda: BANANA.substring_concat((1, 1), (3, 2)), InvalidBlock),
    "decompress block before the start": (lambda: naive_decompress(b"banana", [(1, 2), (0, 1)]),
                                          lambda: CompressedString(BANANA, [(1, 2), (0, 1)]),
                                          InvalidBlock),
    "match start 0": (lambda: naive_longest_match(b"banana", b"ban", 0),
                      lambda: BANANA.longest_match(b"ban", 0), IndexOutOfRange),
    "match start past the text": (lambda: naive_longest_match(b"banana", b"ban", 4),
                                  lambda: BANANA.longest_match(b"ban", 4), IndexOutOfRange),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_oracle_rejections_agree_with_the_structures(case):
    # an oracle must refuse what the structure it checks refuses, with the
    # same error class: agreement tests compare the two on bad input too
    oracle, real, error = REJECTIONS[case]
    for call in (oracle, real):
        with pytest.raises(DrcError) as exc:
            call()
        assert type(exc.value) is error, (call, exc.value)
