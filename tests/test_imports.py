"""Every imported name is read somewhere in its module, the package imports
only at the top of a module, no module but the engine names the engine's
profile cache, no module but `words` names an explicit bijection, and no
function of the package drops keyword arguments it does not know into a
`**_` catch-all.  No check of `verify` gives a parameter a default, so its
bounds are written only in its row of a suite.  Importing the CLI loads
none of `dataclasses`, `inspect` or `fractions`, which a bare interpreter
does not load, and neither `import patstat` nor the CLI loads what a
process pool would: `pickle`, `select`, `signal`, `multiprocessing` or
`concurrent.futures`.

No linter is assumed, so this scans the sources with ast: an import binds
names, and a name that no expression of the module loads is unused.  The
re-exports of a package's __init__.py and `from __future__` imports are
exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from patstat import words

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "patstat").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)} {hit}" for path in SOURCES if path.name != "__init__.py"
             for hit in unused_imports(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_scan_finds_an_unused_import():
    tree = ast.parse("import math\nimport os.path\nfrom a import b as c\nos.sep\n")
    assert unused_imports(tree) == ["line 1: math", "line 3: c"]


def identifiers(tree: ast.Module) -> set[str]:
    """The names, attribute names and imported names the module spells out."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_only_the_engine_names_its_profile_cache():
    # the rest of the package reads profiles through engine.profile, so only
    # the engine decides what the cache holds
    found = [path.name for path in SOURCES if path.parent.name == "patstat"
             and path.name != "engine.py"
             and "_profile_cache" in identifiers(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_identifiers_include_attributes_and_imports():
    tree = ast.parse("from a import b as c\nx.y = z\n")
    assert identifiers(tree) == {"b", "x", "y", "z"}


def catch_alls(tree: ast.Module) -> list[str]:
    """The functions with a `**_` parameter: it accepts any keyword, one meant
    for another function too, and drops it."""
    return [getattr(node, "name", "<lambda>") for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            and node.args.kwarg is not None and node.args.kwarg.arg == "_"]


def test_no_function_of_the_package_takes_a_catch_all():
    found = [f"{path.name} {name}" for path in SOURCES if path.parent.name == "patstat"
             for name in catch_alls(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_scan_finds_a_catch_all():
    tree = ast.parse("def f(a, **_): pass\ndef g(**kw): pass\nh = lambda **_: 0\n")
    assert catch_alls(tree) == ["f", "<lambda>"]


def defaulted_checks(tree: ast.Module) -> list[str]:
    """The functions annotated `-> Outcomes` with a parameter default: a
    default is a second place for a check's bound, besides its suite row."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and isinstance(node.returns, ast.Name) and node.returns.id == "Outcomes"
            and (node.args.defaults or any(d is not None for d in node.args.kw_defaults))]


def test_no_check_of_verify_has_a_parameter_default():
    path = ROOT / "src" / "patstat" / "verify.py"
    assert defaulted_checks(ast.parse(path.read_text(), str(path))) == []


def test_scan_finds_a_check_with_a_parameter_default():
    tree = ast.parse("def f(n, k=4) -> Outcomes: pass\ndef g(n, *, k=4) -> Outcomes: pass\n"
                     "def h(n, k=4) -> int: pass\ndef i(n, k) -> Outcomes: pass\n"
                     "def j(n, *, k) -> Outcomes: pass\n")
    assert defaulted_checks(tree) == ["f", "g"]


def imports_in_functions(tree: ast.Module) -> list[str]:
    """The functions whose body imports: what a module needs is read from its
    top, and an import is not run again on every call."""
    return [f"{node.name} line {inner.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]


def test_the_package_imports_only_at_module_level():
    found = [f"{path.name} {hit}" for path in SOURCES if path.parent.name == "patstat"
             for hit in imports_in_functions(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_scan_finds_an_import_in_a_function():
    tree = ast.parse("import os\ndef f():\n    import sys\n    return sys\n"
                     "class C:\n    def g(self):\n        from a import b\n")
    assert imports_in_functions(tree) == ["f line 3", "g line 7"]


def loaded_modules(code: str) -> set[str]:
    """The modules in sys.modules after `python -c code` with patstat on the path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code + "; print(*sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_the_cli_loads_no_dataclasses_inspect_or_fractions():
    # each loads several more modules (inspect: ast, dis, tokenize; fractions:
    # decimal), and a short command spends most of its time importing
    added = loaded_modules("import sys, patstat.cli") - loaded_modules("import sys")
    heavy = sorted(added & {"dataclasses", "inspect", "fractions"})
    assert not heavy, f"importing patstat.cli loads {', '.join(heavy)}"


def test_the_package_loads_no_process_pool_modules():
    # verify forks its suites' workers with os alone and reports back through
    # marshal, which every interpreter has loaded before it runs a line
    bare = loaded_modules("import sys")
    pools = {"pickle", "select", "signal", "multiprocessing", "concurrent.futures"}
    for code in ("import sys, patstat", "import sys, patstat.cli"):
        added = sorted((loaded_modules(code) - bare) & pools)
        assert not added, f"{code} loads {', '.join(added)}"


def bijection_names(tree: ast.Module, keys) -> list[str]:
    """The string constants that spell one of keys, and the calls of
    `.endswith("-partition")`: both decide by name what a bijection is."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in keys:
            found.append(f"line {node.lineno}: {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "endswith"
              and any(isinstance(arg, ast.Constant) and arg.value == "-partition"
                      for arg in node.args)):
            found.append(f"line {node.lineno}: endswith('-partition')")
    return found


def test_only_words_names_a_bijection():
    # the rest of the package reads what a bijection lands on and keeps from
    # its record in words.BIJECTIONS
    found = [f"{path.name} {hit}" for path in SOURCES if path.parent.name == "patstat"
             and path.name != "words.py"
             for hit in bijection_names(ast.parse(path.read_text(), str(path)), words.BIJECTIONS)]
    assert found == []


def test_scan_finds_a_bijection_name():
    tree = ast.parse('x = "231-321"\ny = "gf-231-321"\nname.endswith("-partition")\n'
                     'name.endswith("-word")\n')
    assert bijection_names(tree, {"231-321"}) == ["line 1: '231-321'",
                                                  "line 3: endswith('-partition')"]
