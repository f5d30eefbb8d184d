"""The library's imports and names: every module-level import of a library
module is used by that module, every module-level function and class, and
every method and property of such a class, is named by the library or the
benchmark harness outside its own body, no library module reads another's
underscore names, no library module names the coface table, only words.py
renames letters, and importing the command line loads no pool module."""

import ast
import subprocess
import sys
from pathlib import Path

import wordcomplex

from conftest import env_importing_the_package

SOURCES = sorted(
    p for p in Path(wordcomplex.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
PERFBENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                yield arg.annotation
            yield args.vararg and args.vararg.annotation
            yield args.kwarg and args.kwarg.annotation
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.AST) -> set[str]:
    """The names a module loads, including those inside string annotations."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for note in _annotations(tree):
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            names |= used_names(ast.parse(note.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = used_names(tree)
    return [name for name in bound if name not in used]


def test_the_checker_sees_an_unused_import():
    source = "import os\nfrom typing import Optional, Set\nx: 'Optional[int]' = os.sep"
    assert unused_imports(source) == ["Set"]


def test_library_modules_use_every_import():
    assert SOURCES
    unused = {p.name: unused_imports(p.read_text()) for p in SOURCES}
    assert not any(unused.values()), unused


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(node: ast.AST) -> set[str]:
    """The names a node loads and the attribute names it reads."""
    return used_names(node) | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def unnamed_definitions(
    sources: dict[str, str], readers: dict[str, str] | None = None
) -> list[str]:
    """The module-level functions and classes, as module.name, and the
    non-dunder methods and properties of those classes, as
    module.Class.name, that no module of sources or readers names outside
    the definition's own body. The readers' own definitions are not checked.

    A name counts when a statement loads it or reads an attribute of that
    name, so the check cannot tell a definition from anything else called
    the same: a function named like a method of another type passes (join,
    as str.join reads), and so does one that shares its name with a local
    variable or a parameter. A method counts as named by the other
    statements of its class, a class by none of its own.
    """
    # (module, statement, member) -> the names it reads; a statement that is
    # no class is its member 0, and a class's header (bases, decorators) -1
    units = {}
    for module, source in {**(readers or {}), **sources}.items():
        for i, node in enumerate(ast.parse(source).body):
            if isinstance(node, ast.ClassDef):
                for j, part in enumerate(node.body):
                    units[module, i, j] = _reads(part)
                header = node.bases + node.keywords + node.decorator_list
                units[module, i, -1] = set().union(*map(_reads, header))
            else:
                units[module, i, 0] = _reads(node)

    def named(name, own) -> bool:
        return any(name in names for key, names in units.items() if not own(key))

    unnamed = []
    for module, source in sources.items():
        for i, node in enumerate(ast.parse(source).body):
            if not isinstance(node, _DEFINITIONS):
                continue
            if not named(node.name, lambda key: key[:2] == (module, i)):
                unnamed.append(f"{module}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for j, part in enumerate(node.body):
                if not isinstance(part, _DEFINITIONS) or part.name.startswith("__"):
                    continue
                if not named(part.name, lambda key: key == (module, i, j)):
                    unnamed.append(f"{module}.{node.name}.{part.name}")
    return unnamed


def test_the_checker_sees_an_unnamed_function():
    sources = {
        "a": "def used():\n    return 1\n\ndef spare():\n    return spare()\n",
        "b": "from a import used, Kept\n\nx = used(), Kept().size\n",
        "c": "def method_named():\n    pass\n\ny = ''.method_named\n",
        "d": "class Kept:\n    @property\n    def size(self):\n"
        "        return self.helper()\n\n    def helper(self):\n        return 1\n\n"
        "    def idle(self):\n        return self.idle()\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "class Spare:\n    def new(self):\n        return Spare()\n",
    }
    assert unnamed_definitions(sources) == [
        "a.spare", "d.Kept.idle", "d.Spare", "d.Spare.new"
    ]
    # a reader names a definition without being checked itself
    readers = {"r": "def unchecked():\n    return Kept().idle\n"}
    assert unnamed_definitions(sources, readers) == ["a.spare", "d.Spare", "d.Spare.new"]


def test_library_names_every_function():
    # a function, class or method only the tests use is a second route; it
    # lives in tests/reference.py, not in the library. The benchmark's
    # harness reads the library too (its tracer reads DeltaComplex.n_cells).
    sources = {p.stem: p.read_text() for p in SOURCES}
    readers = {f"perfbench.{p.stem}": p.read_text() for p in PERFBENCH}
    assert unnamed_definitions(sources, readers) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def foreign_private_names(sources: dict[str, str], package: str) -> list[str]:
    """The underscore names (not dunders) that a module of sources takes
    from another module of sources, imported by name ("m imports o._x") or
    read as an attribute of the imported module ("m reads o._x"), imported
    relatively or from the package by name."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        modules = {}  # local name -> module of sources
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                origin = node.module or ""
            elif node.module == package or node.module.startswith(package + "."):
                origin = node.module[len(package) + 1 :]
            else:
                continue  # a module outside the package
            for a in node.names:
                if not origin and a.name in sources:
                    modules[a.asname or a.name] = a.name
                elif origin in sources and origin != module and _private(a.name):
                    found.append(f"{module} imports {origin}.{a.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and modules.get(node.value.id, module) != module
                and _private(node.attr)
            ):
                found.append(f"{module} reads {modules[node.value.id]}.{node.attr}")
    return found


def test_the_checker_sees_a_foreign_private_name():
    sources = {
        "a": "from . import a\n\ndef _hidden():\n    pass\n\n"
        "def shown():\n    return _hidden(), a._hidden\n",
        "b": "from . import a\nfrom .a import shown, _hidden\n\n"
        "x = a.shown(), a._hidden(), a.__name__\n",
        "c": "from pkg import a as alias\nfrom pkg.a import _hidden as h\n\n"
        "y = alias._hidden\n",
        "d": "import os\nfrom typing import _SpecialForm\nfrom a import _hidden\n\n"
        "z = os._exit\n",
    }
    assert foreign_private_names(sources, "pkg") == [
        "b imports a._hidden", "b reads a._hidden",
        "c imports a._hidden", "c reads a._hidden",
    ]


def test_no_library_module_reads_another_modules_private_name():
    # a module's underscore names are its own to change: a memo, a helper or
    # a formula another module reaches into ties the two together
    modules = Path(wordcomplex.__file__).parent.glob("*.py")
    sources = {p.stem: p.read_text() for p in modules}
    assert foreign_private_names(sources, "wordcomplex") == []


def test_no_library_module_names_the_coface_table():
    # a complex is its face table: the live view, complexes.Collapsing,
    # counts cofaces from it, and the sorted coface table is the tests' own
    # route in tests/reference.py, so the oracles share no incidence state
    # with the view they check
    modules = Path(wordcomplex.__file__).parent.glob("*.py")
    assert [p.name for p in modules if "coface_slots" in p.read_text()] == []


def test_only_the_word_module_renames_letters():
    # every routine takes a word in its own letters; canonical renaming only
    # enumerates the sweep's words, in words.py
    modules = Path(wordcomplex.__file__).parent.glob("*.py")
    others = [p for p in modules if p.name not in ("__init__.py", "words.py")]
    assert [p.name for p in others if "canonicalize" in p.read_text()] == []


def test_importing_the_cli_loads_no_pool_module():
    # only a pooled sweep needs them; every other command would pay their
    # import at start-up
    probe = (
        "import sys, wordcomplex, wordcomplex.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env_importing_the_package(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "[]"
