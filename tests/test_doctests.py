"""The docstring examples of the partial-sums, index, cover and forest modules,
and the README's library examples, run as tests; the code names in the
docstrings of every drc module and in the README must exist."""

import doctest
import importlib
import json
import pkgutil
import re
from itertools import chain
from pathlib import Path

import pytest

import drc
import drc.cover_engine
import drc.multi_cover
import drc.partial_sums
import drc.partial_sums_small
import drc.ref_index


MODULES = pytest.mark.parametrize(
    "module",
    [drc.partial_sums_small, drc.partial_sums, drc.ref_index, drc.cover_engine, drc.multi_cover],
    ids=lambda m: m.__name__)

# drc itself and every module in it
PACKAGE = [drc] + [importlib.import_module(f"drc.{info.name}")
                   for info in pkgutil.iter_modules(drc.__path__)]

# a ``name`` or a :func:`name` in a docstring; a dotted name is checked by
# its last part
DOC_NAME = re.compile(r"``([A-Za-z_][\w.]*)``|:func:`~?([\w.]+)`")
# a `name` in the README, checked the same way
README_NAME = re.compile(r"`([A-Za-z_][\w.]*)`")

ROOT = Path(__file__).resolve().parents[1]


def attributes(module) -> set:
    """The names of a module's attributes and of those of its classes
    (``dir`` and ``__slots__``)."""
    known = set(dir(module))
    for obj in vars(module).values():
        if isinstance(obj, type):
            known.update(dir(obj))
            known.update(getattr(obj, "__slots__", ()))
    return known


@MODULES
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0, "no examples found"
    assert result.failed == 0


@pytest.mark.parametrize("module", PACKAGE, ids=lambda m: m.__name__)
def test_docstrings_name_only_what_exists(module):
    # a code name with an underscore, the kind a rename or a removal
    # leaves stale, must be an attribute of the module or of a class in it
    known = attributes(module)
    stale = set()
    for test in doctest.DocTestFinder(exclude_empty=False).find(module):
        for name in filter(None, chain.from_iterable(DOC_NAME.findall(test.docstring or ""))):
            if "_" in name and name.rsplit(".", 1)[-1] not in known:
                stale.add((test.name, name))
    assert not stale, sorted(stale)


def test_readme_names_only_what_exists():
    # a README code name with an underscore and a letter must be an
    # attribute of drc, of a drc module or of a class in one, or a metric
    # of BENCHMARK.json or its last dotted part
    known = set().union(*map(attributes, PACKAGE))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in chain(bench["end_to_end"], bench["per_layer"]):
        known.update({metric["name"], metric["name"].rsplit(".", 1)[-1]})
    names = [name for name in README_NAME.findall((ROOT / "README.md").read_text())
             if "_" in name and any(c.isalpha() for c in name)]
    assert len(names) > 40
    stale = {name for name in names if name.rsplit(".", 1)[-1] not in known}
    assert not stale, sorted(stale)


def test_readme_library_examples_run():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for code in blocks:
        exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["forest"].decompress(namespace["left"]) == b"ban"
