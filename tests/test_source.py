"""Source hygiene that needs no linter: every name a qcurve or test module
imports is used in that module, every function, class and method qcurve
defines is named somewhere else in the repository and, but for a short
allow-list, by the library or the benchmark rather than by tests alone, and
the library neither warns nor prints (diagnostics go into reports, output
through the CLI)."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qcurve"
# the package __init__ imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by import statements and never read in the module,
    leaving out `__future__` imports and names listed in `__all__`."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_import_scan_finds_them():
    src = ("from __future__ import annotations\n"
           "import os, sys as system\n"
           "from math import pi, tau\n"
           "__all__ = ['tau']\n"
           "print(os.sep)\n")
    assert unused_imports(src) == ["pi", "system"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def warns_or_prints(source):
    """(imports `warnings`, calls `print`) for a module's source."""
    tree = ast.parse(source)
    imports = any(
        (isinstance(node, ast.Import)
         and any(a.name.split(".")[0] == "warnings" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "warnings")
        for node in ast.walk(tree))
    prints = any(isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id == "print" for node in ast.walk(tree))
    return imports, prints


def test_warns_or_prints_scan_finds_them():
    assert warns_or_prints("import warnings.x\nprint(1)\n") == (True, True)
    assert warns_or_prints("from warnings import warn\n") == (True, False)
    assert warns_or_prints("log.print(1)\n") == (False, False)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_library_neither_warns_nor_prints(path):
    """No qcurve module imports `warnings`, and only cli.py prints."""
    imports, prints = warns_or_prints(path.read_text())
    assert not imports
    assert not prints or path.name == "cli.py"


def definitions(source):
    """Top-level functions and classes and the methods of those classes,
    dunder names left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [m.name for m in node.body
                      if isinstance(m, ast.FunctionDef)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def references(source):
    """Every identifier a module names: names, attributes, imported names,
    and identifiers inside string literals (the benchmark's tracer names
    its targets in strings), but not in docstrings or `__all__`."""
    tree = ast.parse(source)
    skip = {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            skip.update(id(c) for c in ast.walk(node.value))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def unreferenced(defined_in, referencing):
    """Names defined in the `defined_in` sources that none of the
    `referencing` sources names."""
    used = set().union(*(references(s) for s in referencing))
    return sorted({name for s in defined_in for name in definitions(s)}
                  - used)


def test_dead_code_scan_finds_them():
    lib = ("__all__ = ['dead']\n"
           "def dead():\n    'docstring naming traced_by_string'\n"
           "def called(): pass\n"
           "class Box:\n    def __len__(self): return 0\n"
           "    def orphan(self): pass\n    def used(self): pass\n"
           "def traced_by_string(): pass\n")
    user = ("from lib import called\n"
            "Box().used()\n"
            "TARGETS = ('lib.traced_by_string',)\n")
    assert unreferenced([lib], [lib, user]) == ["dead", "orphan"]


def test_no_dead_code():
    """Every function, class and method of src/qcurve is named somewhere in
    src/, tests/ or bench/ besides its definition and `__all__`."""
    sources = [p.read_text() for d in ("src", "tests", "bench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced([p.read_text() for p in MODULES], sources) == []


def named_by_tests_only(defined_in, library, tests):
    """Names defined in the `defined_in` sources that the `tests` sources
    name and none of the `library` sources does."""
    return sorted(set(unreferenced(defined_in, library))
                  - set(unreferenced(defined_in, tests)))


def test_test_only_scan_finds_them():
    lib = ("def api(): pass\ndef checked(): pass\ndef dead(): pass\n"
           "class Grid:\n    def refine(self): pass\n"
           "def _helper(): api()\n")
    user = "from lib import Grid\nTARGETS = ('lib._helper',)\n"
    tests = "from lib import checked\nchecked()\nGrid().refine()\n"
    assert named_by_tests_only([lib], [lib, user], [tests]) == [
        "checked", "refine"]


# test-only definitions that stay, each an oracle a test needs
TEST_ONLY = {
    "sigma2_identity_check": "acceptance criterion 10: the sigma_2 "
                             "identity behind the U family",
    "u_linearized_apply": "the linearization criterion: the Frechet "
                          "derivative of the U equation",
    "refine": "RadialGrid.refine: the nested grids of refinement oracles",
}


def test_no_test_only_definitions():
    """Every function, class and method of src/qcurve that tests name is
    also named by src/ (the re-exporting __init__.py left out) or bench/,
    except exactly the TEST_ONLY allow-list."""
    library = [p.read_text() for p in MODULES] + [
        p.read_text() for p in sorted((ROOT / "bench").rglob("*.py"))]
    tests = [p.read_text() for p in TESTS]
    assert named_by_tests_only([p.read_text() for p in MODULES], library,
                               tests) == sorted(TEST_ONLY)

