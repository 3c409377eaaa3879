"""The docstring examples of the partial-sums, index, cover and forest modules run as tests."""

import doctest

import pytest

import drc.cover_engine
import drc.multi_cover
import drc.partial_sums
import drc.partial_sums_small
import drc.ref_index


@pytest.mark.parametrize(
    "module",
    [drc.partial_sums_small, drc.partial_sums, drc.ref_index, drc.cover_engine, drc.multi_cover],
    ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0, "no examples found"
    assert result.failed == 0
