"""Every name a library module imports is used in that module, and every
top-level function it defines, public or private, is used somewhere in the
library.

No linter ships with the project, so this reads each module of
src/slncrystals other than the package's __init__.py with the stdlib ast
module.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "slncrystals"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_an_unused_name():
    source = "import os\nfrom a.b import c, d as e\nimport x.y\nprint(c, x)\n"
    assert unused_imports(source) == ["e", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def unreferenced_functions(sources, init_source):
    """The top-level functions of `sources` (module name -> source), public
    or private, that no module reads by name or attribute and `init_source`
    does not re-export, as "module.name"."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for node in ast.walk(ast.parse(init_source)):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.asname or alias.name for alias in node.names)
    return sorted(
        "%s.%s" % (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name not in used
    )


def test_unreferenced_functions_finds_an_unused_function():
    sources = {
        "a": "def kept():\n    pass\ndef lost():\n    pass\ndef _private():\n    pass\n",
        "b": "from . import a\ndef called():\n    a.kept()\ndef exported():\n    pass\n",
        "c": "class C:\n    def method(self):\n        called()\n",
    }
    init = "from .b import exported\n"
    assert unreferenced_functions(sources, init) == ["a._private", "a.lost"]


def test_every_public_function_is_used_or_exported():
    sources = {module[:-3]: (SRC / module).read_text() for module in MODULES}
    init = (SRC / "__init__.py").read_text()
    assert unreferenced_functions(sources, init) == []
