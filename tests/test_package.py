"""Static checks of the package source: no unused imports, one export list.

Nothing in the toolchain lints Python, so these walk the modules' syntax
trees with ``ast`` instead.
"""

import ast
import glob
import os

import pytest

import nlqm

SRC_DIR = os.path.dirname(os.path.abspath(nlqm.__file__))
MODULES = sorted(os.path.basename(p)[:-3] for p in glob.glob(os.path.join(SRC_DIR, "*.py"))
                 if not p.endswith("__init__.py"))


def _tree(name):
    with open(os.path.join(SRC_DIR, f"{name}.py")) as fh:
        return ast.parse(fh.read())


def _exported(tree) -> set:
    """The names listed in the module's ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(tree) -> list:
    """Names a module imports and neither uses nor lists in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in _exported(tree))


def test_the_check_finds_an_unused_import():
    tree = ast.parse("from typing import Callable, Optional\nimport os\n"
                     "__all__ = ['f']\n"
                     "from .core import f\n"
                     "def g(x: Callable) -> int:\n    return os.sep\n")
    assert unused_imports(tree) == ["Optional (line 1)"]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_does_not_use(name):
    assert unused_imports(_tree(name)) == []


def test_the_package_reexports_exactly_its_modules_public_names():
    tree = _tree("__init__")
    reexported, sources = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            sources.add(node.module)
            reexported.update(alias.asname or alias.name for alias in node.names)
    # every library module is re-exported; the command line is not
    assert sources == set(MODULES) - {"cli", "__main__"}
    public = set().union(*(_exported(_tree(m)) for m in sources))
    assert reexported == public
    for m in sources:
        module = getattr(nlqm, m)
        for name in _exported(_tree(m)):
            assert getattr(nlqm, name) is getattr(module, name), name
