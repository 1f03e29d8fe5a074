"""Every module of the package and of its tests uses each name it imports,
every private module-level function and class, and every method of a
private class, is referenced by some module of the package, the package
exports exactly what its `__init__.py` imports, and its third-party
imports are exactly its declared runtime dependencies.

No linter ships with the test dependencies, so this parses the sources with
``ast``.  ``__init__.py`` (re-exports) and ``from __future__`` imports are
exempt.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gausshom"
# distribution name -> top-level import name, where they differ
IMPORT_NAMES = {"pyyaml": "yaml"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                            key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_unused_and_accepts_used():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from math import pi as half_turn, tau\n"
              "def f():\n"
              "    from json import dumps\n"
              "    return os.sep, half_turn\n")
    assert unused_imports(source) == ["line 2: sys", "line 3: tau", "line 5: dumps"]


TESTS = ROOT / "tests"


# package modules by file name, test modules by their path from the root
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py")
                         + sorted(f"tests/{p.name}" for p in TESTS.glob("*.py")))
def test_module_has_no_unused_imports(module):
    path = ROOT / module if module.startswith("tests/") else PACKAGE / module
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_helpers(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and classes, and the non-dunder methods
    of private classes, that no source names.

    A function or class counts as referenced where any source loads it,
    reads it as an attribute or imports it; a method, reported as
    ``Class.method``, where any source reads it as an attribute.  A
    definition does not count as its own reference.
    """
    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__")

    helpers, methods, names, attributes = [], [], set(), set()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name)):
                continue
            helpers.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                methods += [(module, f"{node.name}.{item.name}", item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return ([f"{module}: {name}" for module, name in helpers if name not in names | attributes]
            + [f"{module}: {label}" for module, label, name in methods if name not in attributes])


def test_private_checker_flags_helpers_nothing_calls():
    sources = {"a.py": ("def _used():\n    pass\n"
                        "def _bin_blocks(block, n_f):\n    return block\n"
                        "class _Plan:\n    pass\n"
                        "def public():\n    return _used()\n"),
               "b.py": "from .a import _Plan\n"}
    assert unreferenced_private_helpers(sources) == ["a.py: _bin_blocks"]


def test_private_checker_flags_methods_of_private_classes():
    """A method of a private class that no source reads as an attribute is
    flagged, whether public, private or a property, although a variable
    shares its name; dunder methods and the methods of public classes are
    not."""
    sources = {"a.py": ("class _Plan:\n"
                        "    def __init__(self):\n        self.rows = self._rows()\n"
                        "    def _rows(self):\n        return 1\n"
                        "    def state(self):\n        return 2\n"
                        "    def _unused(self):\n        return 3\n"
                        "    @property\n    def figures(self):\n        return 4\n"
                        "class Public:\n"
                        "    def helper(self):\n        return 5\n"
                        "def run(state):\n    return _Plan().rows, state\n"),
               "b.py": "from .a import run\n"}
    assert unreferenced_private_helpers(sources) == ["a.py: _Plan.state", "a.py: _Plan._unused",
                                                     "a.py: _Plan.figures"]


def test_every_private_helper_has_a_caller_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_helpers(sources) == []


def test_init_exports_exactly_what_it_imports():
    """``__all__`` lists each name ``__init__.py`` imports, and each resolves."""
    import gausshom

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(imported) == sorted(gausshom.__all__)
    assert len(set(gausshom.__all__)) == len(gausshom.__all__)
    assert [name for name in gausshom.__all__ if not hasattr(gausshom, name)] == []


def test_package_and_cli_load_no_scipy():
    """scipy is a test dependency only: importing the package must not load it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    code = ("import sys, gausshom, gausshom.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in declared]
    assert sorted(IMPORT_NAMES.get(name, name) for name in names) == sorted(third_party)
