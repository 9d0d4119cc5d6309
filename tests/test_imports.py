"""Every name a library module imports is used in that module, every
top-level function it defines, public or private, is used somewhere in the
library or, if the package re-exports it, read from the package by a
test or benchmark module, no module has an `assert` statement (`python -O`
drops them; an invariant check raises AssertionError explicitly), and
`Partition`, `BeadRow`, `AbacusConfig`, `CylindricPlanePartition`,
`PerfectElem` and `Path` are built unchecked, by `object.__new__` or
`tuple.__new__`, only in their one trusted constructor each, while
`DominantWeight` and `Boundary`, which have none, are never built
unchecked.

No linter ships with the project, so this reads each module of
src/slncrystals with the stdlib ast module; only the assert check and the
re-export rule read the package's __init__.py.
"""

import ast
import pathlib

import pytest

import src_size

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "slncrystals"
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


def package_names_read(source):
    """The names that `source`, a module outside the package, reads from
    it: imported from `slncrystals` or one of its modules, or read as an
    attribute.  A bare name is not counted, since a test helper of the
    same name would hide the package's."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "slncrystals":
                used.update(alias.name for alias in node.names)
    return used


def unreferenced_functions(sources, init_source, outside_sources):
    """The top-level functions of `sources` (module name -> source), public
    or private, that no module of `sources` reads by name or attribute, and
    that are not both re-exported by `init_source` and read from the
    package by one of `outside_sources` (the test and benchmark modules),
    as "module.name".  A re-export alone is no use."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = set()
    for node in ast.walk(ast.parse(init_source)):
        if isinstance(node, ast.ImportFrom):
            exported.update(alias.asname or alias.name for alias in node.names)
    used |= exported & set().union(*map(package_names_read, outside_sources))
    return sorted(
        "%s.%s" % (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name not in used
    )


def test_unreferenced_functions_finds_an_unused_function():
    # b.exported is re-exported and a test reads it; b.dead is re-exported
    # but a test reads only a helper of that name; a._private is read only
    # outside the library
    sources = {
        "a": "def kept():\n    pass\ndef lost():\n    pass\ndef _private():\n    pass\n",
        "b": (
            "from . import a\ndef called():\n    a.kept()\n"
            "def exported():\n    pass\ndef dead():\n    pass\n"
        ),
        "c": "class C:\n    def method(self):\n        called()\n",
    }
    init = "from .b import dead, exported\n"
    outside = [
        "import slncrystals\nfrom slncrystals.a import _private\n"
        "from helpers import dead\nslncrystals.exported()\n_private()\ndead()\n"
    ]
    assert unreferenced_functions(sources, init, outside) == [
        "a._private", "a.lost", "b.dead",
    ]


def test_every_public_function_is_used_or_exported():
    sources = {module[:-3]: (SRC / module).read_text() for module in MODULES}
    init = (SRC / "__init__.py").read_text()
    outside = [
        p.read_text()
        for folder in ("tests", "benchmarks")
        for p in sorted((ROOT / folder).glob("*.py"))
    ]
    assert unreferenced_functions(sources, init, outside) == []


def assert_lines(source):
    """The line numbers of the assert statements in `source`."""
    tree = ast.parse(source)
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_assert_lines_finds_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0\n    raise AssertionError(x)\n"
    assert assert_lines(source) == [3]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_has_no_assert_statement(module):
    assert assert_lines((SRC / module).read_text()) == []


# the one function per type that may build it unchecked
TRUSTED_CONSTRUCTORS = {
    "AbacusConfig": "abacus._config",
    "BeadRow": "partitions._bead_row",
    "CylindricPlanePartition": "cylindric._cpp",
    "Partition": "partitions.Partition._trusted",
    "PerfectElem": "kyoto.PerfectElem._trusted",
    "Path": "kyoto._pruned_path",
}

# the types with no trusted constructor: built only by their own __new__
CHECKED_ONLY = ("DominantWeight", "Boundary")


def unchecked_construction_sites(sources):
    """(type, "module.qualified name") of every `object.__new__(X)` or
    `tuple.__new__(X, ...)` call in `sources` (module name -> source) with X
    one of TRUSTED_CONSTRUCTORS or CHECKED_ONLY; `cls` reads as the class
    that encloses the call.  A call in X's own `__new__`, which validates,
    is not listed."""
    sites = []

    def visit(node, scope, cls):
        if isinstance(node, ast.ClassDef):
            scope, cls = scope + [node.name], node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + [node.name]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("object", "tuple")
        ):
            made = ast.unparse(node.args[0]) if node.args else ""
            made = cls if made == "cls" else made
            checked = made in TRUSTED_CONSTRUCTORS or made in CHECKED_ONLY
            if checked and scope[-2:] != [made, "__new__"]:
                sites.append((made, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, cls)

    for module, source in sources.items():
        visit(ast.parse(source), [module], None)
    return sorted(sites)


def test_unchecked_construction_sites_finds_a_second_site():
    # a DominantWeight or Boundary built anywhere but its own __new__ is
    # listed too, as those types have no trusted constructor
    sources = {
        "partitions": (
            "class Partition(tuple):\n"
            "    def __new__(cls, parts=()):\n"
            "        return tuple.__new__(cls, parts)\n"
            "    @classmethod\n"
            "    def _trusted(cls, parts):\n"
            "        return tuple.__new__(cls, parts)\n"
            "class Other:\n"
            "    def make(cls):\n"
            "        return object.__new__(cls)\n"
            "def _bead_row(charge, partition):\n"
            "    return tuple.__new__(BeadRow, (charge, partition))\n"
            "def shortcut(parts):\n"
            "    return tuple.__new__(Partition, parts)\n"
        ),
        "abacus": (
            "def _config(n, ell, rows):\n"
            "    return object.__new__(AbacusConfig)\n"
            "def shortcut(row):\n"
            "    return object.__new__(BeadRow)\n"
            "class DominantWeight(tuple):\n"
            "    def __new__(cls, coeffs):\n"
            "        return tuple.__new__(cls, coeffs)\n"
            "def _weight(coeffs):\n"
            "    return tuple.__new__(DominantWeight, coeffs)\n"
        ),
        "qseries": (
            "class Boundary(tuple):\n"
            "    def __new__(cls, word):\n"
            "        return tuple.__new__(cls, word)\n"
            "    def flipped(self):\n"
            "        return tuple.__new__(Boundary, self[::-1])\n"
        ),
    }
    assert unchecked_construction_sites(sources) == [
        ("AbacusConfig", "abacus._config"),
        ("BeadRow", "abacus.shortcut"),
        ("BeadRow", "partitions._bead_row"),
        ("Boundary", "qseries.Boundary.flipped"),
        ("DominantWeight", "abacus._weight"),
        ("Partition", "partitions.Partition._trusted"),
        ("Partition", "partitions.shortcut"),
    ]


def test_unchecked_construction_only_in_trusted_constructors():
    sources = {module[:-3]: (SRC / module).read_text() for module in MODULES}
    want = sorted(TRUSTED_CONSTRUCTORS.items())
    assert unchecked_construction_sites(sources) == want


def test_code_lines_skips_blanks_comments_and_docstrings():
    source = (
        '"""Module docstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """A docstring\n'
        '    of two lines."""\n'
        "    y = '''a string\n"
        "\n"
        "# still the string'''\n"
        "    return x, y  # a trailing comment\n"
    )
    # def, the three lines of the string, return
    assert src_size.code_lines(source) == 5
