"""The examples in the docstrings and in the README must run as shown."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import patstat

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_module_doctests():
    names = ["patstat"] + [f"patstat.{m.name}" for m in pkgutil.iter_modules(patstat.__path__)]
    attempted = {}
    for name in names:
        results = doctest.testmod(importlib.import_module(name))
        assert results.failed == 0, name
        attempted[name] = results.attempted
    assert attempted["patstat.perms"] > 0
    assert attempted["patstat.formulas"] > 0


def test_readme_library_block():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    results = doctest.DocTestRunner().run(test)
    assert results.attempted > 0
    assert results.failed == 0
