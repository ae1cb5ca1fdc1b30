"""Every name a library module imports is used in that module, and every
private helper is used in the package.

No linter ships with the package, so this walks each module's syntax tree
with the standard library's ``ast``.  ``__init__`` is left out of the import
check: its imports are the package's public re-exports.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "braidrep")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def unused_imports(source):
    """Names bound by the module's imports that no other node refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_library_module_is_checked():
    assert {"hwspace.py", "cli.py", "ring.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module)) as handle:
        assert unused_imports(handle.read()) == []


def test_an_unused_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom math import comb, lcm as least\n"
              "print(comb(4, 2), os.sep)\n")
    assert unused_imports(source) == [(3, "least")]


def unreferenced_private_definitions(sources):
    """Private module-level functions and classes no module refers to.

    ``sources`` maps module names to source text.  A reference is a ``Name``
    or an ``Attribute`` anywhere in those modules, so a helper that only
    tests call is reported.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted((module, node.name) for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and node.name not in used)


def test_every_private_helper_is_used_in_the_package():
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as handle:
                sources[name] = handle.read()
    assert unreferenced_private_definitions(sources) == []


def test_an_unreferenced_private_helper_is_reported():
    sources = {"a.py": "def _kept():\n    pass\n\n\ndef _dead():\n    pass\n\n\n"
                       "class _Gone:\n    pass\n",
               "b.py": "from a import _kept\n\nprint(_kept(), a._dead)\n"}
    assert unreferenced_private_definitions(sources) == [("a.py", "_Gone")]


def mul_add_references(source):
    """Lines on which a module imports, names or reads the attribute ``mul_add``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Name) and node.id == "mul_add"
                  or isinstance(node, ast.Attribute) and node.attr == "mul_add"
                  or isinstance(node, ast.alias) and node.name == "mul_add")


def test_mul_add_is_referenced_only_by_the_ring_and_the_row_product():
    # ``ring.mul_add`` accumulates in place; every other module sums products
    # through ``linalg.row_product``, not through an accumulator of its own
    users = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as handle:
                if mul_add_references(handle.read()):
                    users.append(name)
    assert users == ["linalg.py", "ring.py"]


def test_a_private_accumulator_is_reported():
    source = ("from .ring import LaurentPoly, mul_add\nfrom . import ring\n"
              "acc = mul_add(None, x, y)\nacc = ring.mul_add(acc, x, y)\n"
              "print(LaurentPoly)\n")
    assert mul_add_references(source) == [1, 3, 4]


def row_list_allocations(source):
    """Lines that build a list of empty dicts, ``[{} for _ in ...]``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ListComp)
                  and isinstance(node.elt, ast.Dict) and not node.elt.keys)


def test_only_linalg_allocates_a_row_list():
    # column images become {col: entry} rows through one transposition,
    # ``linalg._rows_of_columns``, not through a hand-written loop that
    # fills empty rows
    users = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as handle:
                if row_list_allocations(handle.read()):
                    users.append(name)
    assert users == ["linalg.py"]


def test_a_planted_row_list_is_reported():
    source = ("rows = [{} for _ in basis]\ncols = [[] for _ in basis]\n"
              "full = [{0: 1} for _ in basis]\n"
              "for c, col in enumerate(cols):\n    out = [{} for r in col]\n")
    assert row_list_allocations(source) == [1, 5]
