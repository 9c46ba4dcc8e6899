"""No dead private names: every module-level name in src/framedbraids that
starts with a single underscore is referenced somewhere in the package
besides its own definition. Public names are the API and are pinned by
test_public_api, so they are not checked here."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "framedbraids"


def private_definitions(tree: ast.Module) -> list[str]:
    """Single-underscore names that the module's top-level statements bind."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [leaf.id for target in targets for leaf in ast.walk(target)
                      if isinstance(leaf, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def references(tree: ast.Module, module: str, own: bool) -> set[str]:
    """The names of module that tree reads: as bare names when tree is the
    module itself (own), else by `from .module import` or as `module.name`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == module:
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == module and node.level == 1:
            found.update(alias.name for alias in node.names)
    return found


def dead_private_names(sources: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(source) for module, source in sources.items()}
    dead = []
    for module, tree in trees.items():
        used = set().union(*(references(other, module, other is tree) for other in trees.values()))
        dead += [f"{module}.{name}" for name in private_definitions(tree) if name not in used]
    return dead


def test_the_guard_flags_an_unreferenced_private_name():
    sources = {
        "a": "_used = 1\n_dead: int = 2\n_x, _y = 3, 4\n__all__ = []\n"
             "def _gone():\n    return _used\n",
        "b": "from .a import _x\nprint(a._y, _dead, c._gone)\n_dead = 0\n",
    }
    assert dead_private_names(sources) == ["a._dead", "a._gone"]


def test_every_private_module_name_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert len(sources) > 10
    assert dead_private_names(sources) == []
