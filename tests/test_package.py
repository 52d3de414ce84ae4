"""Static checks of the package source: no unused imports, no member that only
tests read, one export list.

Nothing in the toolchain lints Python, so these walk the modules' syntax
trees with ``ast`` instead.
"""

import ast
import glob
import os
import re

import pytest

import nlqm

SRC_DIR = os.path.dirname(os.path.abspath(nlqm.__file__))
ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
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


def _decorator_name(node) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def class_members(tree) -> dict:
    """``Class.member`` -> member name for every method, property and dataclass
    field of the classes in ``tree``; dunder names are exempt."""
    found = {}
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        is_dataclass = any(_decorator_name(d) == "dataclass" for d in cls.decorator_list)
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif (is_dataclass and isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)):
                name = node.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                found[f"{cls.name}.{name}"] = name
    return found


def unread_members(defining, reading, text: str = "") -> list:
    """Members of the classes in the ``defining`` trees that no ``reading``
    tree reads as an attribute and ``text`` never names as ``.member``."""
    reads = {n.attr for tree in reading for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    reads |= set(re.findall(r"\.(\w+)", text))
    return sorted(qual for tree in defining for qual, name in class_members(tree).items()
                  if name not in reads)


def test_the_check_finds_a_member_nothing_reads():
    tree = ast.parse("from dataclasses import dataclass\n"
                     "@dataclass(frozen=True)\n"
                     "class P:\n    kept: int\n    planted: int\n"
                     "    def __post_init__(self):\n        pass\n"
                     "    @property\n    def size(self):\n        return self.kept\n"
                     "    def unused(self):\n        return 0\n"
                     "class Q:\n    label: str\n    def run(self):\n        self.planted = 1\n")
    reader = ast.parse("def f(p, q):\n    return p.size, q.run()\n")
    assert unread_members([tree], [tree, reader]) == ["P.planted", "P.unused"]
    assert unread_members([tree], [tree, reader], "call `p.unused()`") == ["P.planted"]


def test_every_class_member_is_read_outside_the_tests():
    sources = sorted(glob.glob(os.path.join(SRC_DIR, "*.py")))
    scripts = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))
                     + glob.glob(os.path.join(ROOT, "bench", "*.py")))
    assert scripts, "demos/ and bench/ not found beside tests/"
    trees = {}
    for path in sources + scripts:
        with open(path) as fh:
            trees[path] = ast.parse(fh.read())
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    assert unread_members([trees[p] for p in sources], trees.values(), readme) == []


def unnamed_exports(library: dict, reading, text: str = "") -> list:
    """``module.name`` for every name in the ``__all__`` of the ``library`` trees
    (module name -> tree) that no ``reading`` tree loads as a name or an
    attribute and ``text`` never names as a word: its ``def`` and the export
    lists do not count."""
    used = {n.id for tree in reading for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    used |= {n.attr for tree in reading for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    used |= set(re.findall(r"\w+", text))
    return sorted(f"{module}.{name}" for module, tree in library.items()
                  for name in _exported(tree) if name not in used)


def test_the_check_finds_an_export_nothing_calls():
    library = {"m": ast.parse("__all__ = ['kept', 'planted', 'named', 'LIMIT']\n"
                              "LIMIT = 3\n"
                              "def kept():\n    return LIMIT\n"
                              "def planted():\n    return 1\n"
                              "def named():\n    return 0\n")}
    package = ast.parse("from .m import kept, planted, named, LIMIT\n"
                        "__all__ = ['kept', 'planted', 'named', 'LIMIT']\n")
    reader = ast.parse("import m\nm.kept()\n")
    reading = [*library.values(), package, reader]
    assert unnamed_exports(library, reading) == ["m.named", "m.planted"]
    assert unnamed_exports(library, reading, "`named()` runs the ...") == ["m.planted"]


def test_every_public_function_is_named_outside_the_tests():
    reading = {m: _tree(m) for m in MODULES}   # __init__ only re-exports
    library = {m: tree for m, tree in reading.items() if m not in ("cli", "__main__")}
    scripts = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))
                     + glob.glob(os.path.join(ROOT, "bench", "*.py")))
    assert scripts, "demos/ and bench/ not found beside tests/"
    texts = []   # read as words: the benchmark tracer hooks functions by their names
    for path in scripts + [os.path.join(ROOT, "README.md")]:
        with open(path) as fh:
            texts.append(fh.read())
    assert unnamed_exports(library, reading.values(), "\n".join(texts)) == []


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
