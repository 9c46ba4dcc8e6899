"""No dead names in src/framedbraids.

- Every module-level name that starts with a single underscore is referenced
  somewhere in the package besides its own definition.
- Every public method or property of a class, and every public module-level
  function that the package does not export, is read in the package or in
  bench/ outside its own definition. A function is read through its module,
  as the guard on private names reads them, or as a string constant
  (bench/tracing.py names the functions it wraps as strings); a method or
  property is read as an attribute or a string constant. Exports are the
  API, pinned by test_public_api. A function counts as exported when the
  package exports that very object, so one that only shares its name with
  an export is still checked.

- Every name a module imports is read in that module, except the package's
  exports, which __init__ imports for its callers, and the REEXPORTS below.

Methods and properties are matched by name alone, so one is hidden from the
check when a member read elsewhere shares its name: a Permutation.inverse
read by nothing would pass because Letter.inverse is read.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import framedbraids

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "framedbraids"

# public names that only an acceptance check reads, with the check
KEEP = {
    "framed.FramedBraid.identity": "check 08 builds the identity element",
    "hilden.GeneratorDictionary.pure": "check 09 builds the pure dictionary",
}

# imported names that a module never reads itself, with the caller that binds them there
REEXPORTS = {
    "plat.with_adjusted_framing": "bench/tracing.py wraps it as a plat name",
    "hilden.plat_trivializes": "check 09 imports it from hilden",
}


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


def references(tree: ast.AST, module: str, own: bool) -> Counter:
    """How often tree reads each name of module: as a bare name when tree is
    the module itself (own), else by `from` import or as `module.name`."""
    imports = ((1, module), (0, f"framedbraids.{module}"))
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own:
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == module:
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom) and (node.level, node.module) in imports:
            found.update(alias.name for alias in node.names)
    return found


def dead_private_names(sources: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(source) for module, source in sources.items()}
    dead = []
    for module, tree in trees.items():
        used = sum((references(other, module, other is tree) for other in trees.values()),
                   Counter())
        dead += [f"{module}.{name}" for name in private_definitions(tree) if name not in used]
    return dead


def public_definitions(module: str, tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """module.function and module.Class.member for every public function of
    the module and every public method or property of its classes."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[f"{module}.{node.name}"] = node
        elif isinstance(node, ast.ClassDef):
            found.update((f"{module}.{node.name}.{member.name}", member) for member in node.body
                         if isinstance(member, ast.FunctionDef))
    return {name: node for name, node in found.items() if not node.name.startswith("_")}


def strings(tree: ast.AST) -> Counter:
    return Counter(node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str))


def attribute_reads(tree: ast.AST) -> Counter:
    """How often tree reads each attribute name or spells it as a string."""
    return strings(tree) + Counter(node.attr for node in ast.walk(tree)
                                   if isinstance(node, ast.Attribute)
                                   and isinstance(node.ctx, ast.Load))


def unread_public_names(sources: dict[str, str], readers: list[str],
                        exported: set[str]) -> list[str]:
    """Public definitions in sources, other than the exported module-level
    functions, that sources and readers read nowhere outside their own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everything = [*trees.values(), *map(ast.parse, readers)]
    members = sum(map(attribute_reads, everything), Counter())
    unread = []
    for module, tree in trees.items():
        functions = sum((references(other, module, other is tree) + strings(other)
                         for other in everything), Counter())
        for name, node in public_definitions(module, tree).items():
            if name in exported:
                continue
            if name.count(".") == 1:
                total, own = functions, references(node, module, True) + strings(node)
            else:
                total, own = members, attribute_reads(node)
            if total[node.name] == own[node.name]:
                unread.append(name)
    return unread


def exported_functions(names: list[str]) -> set[str]:
    """The module.function names among names whose object the package exports."""
    exports = [getattr(framedbraids, name) for name in framedbraids.__all__]
    found = set()
    for name in names:
        module, _, function = name.partition(".")
        value = getattr(importlib.import_module(f"framedbraids.{module}"), function)
        if any(value is export for export in exports):
            found.add(name)
    return found


def unread_imports(sources: dict[str, str]) -> list[str]:
    """module.name for every name a module's import statements bind that the
    module never reads; `from __future__` imports bind nothing."""
    unread = []
    for module, source in sources.items():
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{module}.{name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for name in [alias.asname or alias.name.partition(".")[0]
                                for alias in node.names]
                   if name not in read]
    return unread


def test_the_guard_flags_an_unread_import():
    sources = {
        "a": "from __future__ import annotations\nimport os.path\nimport re as regex\n"
             "from .b import f, g as h, k\ndef run(x: k):\n    import json\n"
             "    return f(os.sep)\n",
    }
    assert unread_imports(sources) == ["a.regex", "a.h", "a.json"]


def test_every_import_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    exports = {f"__init__.{name}" for name in framedbraids.__all__}
    unread = set(unread_imports(sources)) - exports
    assert sorted(unread) == sorted(REEXPORTS)


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


def test_the_guard_flags_an_unread_public_name():
    sources = {
        # dead only calls itself; twin is read as c.twin, never as a.twin
        "a": "def dead():\n    return dead()\ndef twin():\n    pass\ndef exported():\n"
             "    pass\nclass C:\n    def m(self):\n        return self.n\n"
             "    @property\n    def n(self):\n        return 1\n"
             "    def _private(self):\n        pass\n",
        "b": "from .c import twin\n",
        "c": "def twin():\n    pass\nclass D:\n    def m(self):\n        pass\n",
    }
    readers = ["from framedbraids import c\nc.twin()\nTABLE = ('m',)\n"]
    assert unread_public_names(sources, readers, {"a.exported"}) == ["a.dead", "a.twin"]
    # without the string 'm' nothing reads C.m or D.m, which share one name
    assert unread_public_names(sources, [], set()) == [
        "a.dead", "a.twin", "a.exported", "a.C.m", "c.D.m"]


def test_every_public_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    readers = [path.read_text(encoding="utf-8") for path in (ROOT / "bench").glob("*.py")
               if not path.name.startswith("test_")]
    functions = [name for module, source in sources.items()
                 for name in public_definitions(module, ast.parse(source))
                 if name.count(".") == 1]
    unread = unread_public_names(sources, readers, exported_functions(functions))
    assert sorted(set(unread) - set(KEEP)) == []
    assert sorted(set(KEEP) - set(unread)) == []
