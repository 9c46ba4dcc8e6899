"""The package is stdlib-only: every absolute import in src/framedbraids
names a standard-library module or the package itself."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "framedbraids").glob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the absolute imports outside the stdlib and the package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    allowed = sys.stdlib_module_names | {"framedbraids"}
    return [name for name in names if name.split(".")[0] not in allowed]


def test_the_guard_flags_a_third_party_import():
    source = "import os\nfrom . import words\nfrom sympy import Matrix\n"
    source += "def f():\n    import numpy.linalg\n"
    assert sorted(foreign_imports(source)) == ["numpy.linalg", "sympy"]


def test_package_imports_only_the_standard_library():
    assert len(SOURCES) > 10
    offenders = {path.name: foreign_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: found for name, found in offenders.items() if found} == {}
