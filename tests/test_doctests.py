"""The docstring examples of the partial-sums, index, cover and forest modules,
and the README's library examples, run as tests."""

import doctest
import re
from pathlib import Path

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


def test_readme_library_examples_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for code in blocks:
        exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["forest"].decompress(namespace["left"]) == b"ban"
