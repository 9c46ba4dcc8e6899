"""The package is stdlib-only: every absolute import in src/framedbraids
names a standard-library module or the package itself. It also stays light
to import: every `fbk` call pays for the import, so neither the package nor
its CLI loads `dataclasses` or `inspect` (which drags in `dis`, `ast` and
`tokenize`), and the import fills neither letter memo. And its import cycles (moves and plat import each other) hold
whichever submodule is imported first."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "framedbraids"
SOURCES = sorted(PACKAGE.glob("*.py"))
HEAVY = {"dataclasses", "inspect"}


def absolute_imports(source: str) -> list[str]:
    """Module names of the absolute imports, at any depth of the source."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the absolute imports outside the stdlib and the package."""
    allowed = sys.stdlib_module_names | {"framedbraids"}
    return [name for name in absolute_imports(source) if name.split(".")[0] not in allowed]


def heavy_imports(source: str) -> list[str]:
    return [name for name in absolute_imports(source) if name.split(".")[0] in HEAVY]


def test_the_guard_flags_a_third_party_import():
    source = "import os\nfrom . import words\nfrom sympy import Matrix\n"
    source += "def f():\n    import numpy.linalg\n"
    assert sorted(foreign_imports(source)) == ["numpy.linalg", "sympy"]


def test_the_guard_flags_a_heavy_import():
    source = "import operator\nfrom dataclasses import dataclass\n"
    source += "def f():\n    import inspect\n"
    assert sorted(heavy_imports(source)) == ["dataclasses", "inspect"]


def test_package_imports_only_the_standard_library():
    assert len(SOURCES) > 10
    offenders = {path.name: foreign_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_package_imports_neither_dataclasses_nor_inspect():
    offenders = {path.name: heavy_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_a_fresh_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import framedbraids, framedbraids.cli\n"
        f"print(sorted({sorted(HEAVY)!r} & sys.modules.keys()))\n"
        "from framedbraids import parser, words\n"
        "print(parser._term.cache_info().currsize, words._letter.cache_info().currsize)\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    # the letter memos start empty: import builds no letters
    assert done.stdout == "[]\n0 0\n"


SUBMODULES = [path.stem for path in SOURCES if path.stem not in ("__init__", "__main__")]


@pytest.mark.parametrize("first", SUBMODULES)
def test_each_submodule_imports_first(first):
    # A plain `import framedbraids.x` runs __init__ first, which fixes the
    # order; a bare package module lets x start the import chain itself.
    code = (
        "import importlib, sys, types\n"
        "package = types.ModuleType('framedbraids')\n"
        "package.__path__ = [sys.argv[1]]\n"
        "sys.modules['framedbraids'] = package\n"
        "importlib.import_module('framedbraids.' + sys.argv[2])\n"
        "for name in sys.argv[3:]:\n"
        "    importlib.import_module('framedbraids.' + name)\n"
        "print('ok')\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(PACKAGE), first, *SUBMODULES],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


def test_there_are_eleven_submodules():
    assert len(SUBMODULES) == 11
