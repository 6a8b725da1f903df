"""The examples in the docstrings and in the README must run as shown."""

import doctest
import re
from pathlib import Path

from patstat import perms

README = Path(__file__).resolve().parents[1] / "README.md"


def test_perms_doctests():
    results = doctest.testmod(perms)
    assert results.attempted > 0
    assert results.failed == 0


def test_readme_library_block():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    results = doctest.DocTestRunner().run(test)
    assert results.attempted > 0
    assert results.failed == 0
