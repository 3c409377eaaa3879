"""The docstring examples of the partial-sums, index, cover and forest modules,
and the README's library examples, run as tests."""

import doctest
import re
from itertools import chain
from pathlib import Path

import pytest

import drc.cover_engine
import drc.multi_cover
import drc.partial_sums
import drc.partial_sums_small
import drc.ref_index


MODULES = pytest.mark.parametrize(
    "module",
    [drc.partial_sums_small, drc.partial_sums, drc.ref_index, drc.cover_engine, drc.multi_cover],
    ids=lambda m: m.__name__)

# a ``name`` or a :func:`name` in a docstring; a dotted name is checked by
# its last part
DOC_NAME = re.compile(r"``([A-Za-z_][\w.]*)``|:func:`~?([\w.]+)`")


@MODULES
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0, "no examples found"
    assert result.failed == 0


@MODULES
def test_docstrings_name_only_what_exists(module):
    # a code name with an underscore, the kind a rename or a removal
    # leaves stale, must be an attribute of the module or of a class in it
    known = set(dir(module))
    for obj in vars(module).values():
        if isinstance(obj, type):
            known.update(dir(obj))
            known.update(getattr(obj, "__slots__", ()))
    stale = set()
    for test in doctest.DocTestFinder(exclude_empty=False).find(module):
        for name in filter(None, chain.from_iterable(DOC_NAME.findall(test.docstring or ""))):
            if "_" in name and name.rsplit(".", 1)[-1] not in known:
                stale.add((test.name, name))
    assert not stale, sorted(stale)


def test_readme_library_examples_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for code in blocks:
        exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["forest"].decompress(namespace["left"]) == b"ban"
