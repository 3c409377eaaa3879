"""The oracles' negative answers: an oracle that accepted everything would
let every agreement test pass."""

import pytest

from drc.errors import CharNotInReference, IndexOutOfRange
from drc.oracles import naive_edit_replay, naive_greedy_cover, naive_maximality_check


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
