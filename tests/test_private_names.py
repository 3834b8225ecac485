"""Every module-level private name of the package is used by the package.

A function, class, constant or import whose name starts with an underscore
is the package's own business: if no module of the package refers to it
besides its definition, it is dead code, such as a helper left behind when
its last caller went.  Tests and tools do not count as users.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "gridstat"


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def module_definitions(tree: ast.Module) -> list[tuple[str, int, bool]]:
    """(name, line, is an import) of every name bound at the module's top level."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, False))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out.extend((n.id, node.lineno, False) for n in ast.walk(target)
                           if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend(((a.asname or a.name).split(".")[0], node.lineno, True)
                       for a in node.names)
    return out


def unreferenced_private_names(package: pathlib.Path) -> list[str]:
    """`module:line name` of every module-level private name of the package
    at `package` that no module of it refers to: as a name read in its own
    module, as an attribute anywhere, or as a name imported from it."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
             for p in sorted(package.glob("*.py"))}
    attributes = set()
    imported = set()  # (module, name) of every `from .module import name`
    loads = {}
    for module, tree in trees.items():
        loads[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                loads[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update((node.module or "__init__", a.name) for a in node.names)
    bad = []
    for module, tree in trees.items():
        for name, line, is_import in module_definitions(tree):
            used = name in loads[module] or name in attributes
            if not is_import:
                used = used or (module, name) in imported
            if is_private(name) and not used:
                bad.append(f"{module}.py:{line} {name}")
    return bad


def test_every_private_name_is_used_by_the_package():
    assert unreferenced_private_names(PACKAGE) == []


def test_an_unused_private_name_is_found(tmp_path):
    # a dead helper, a dead constant and an unused import are caught; a
    # helper another module imports, a constant read in a function and a
    # private name only a test would read through an attribute are not
    (tmp_path / "a.py").write_text(
        "from .b import _used_elsewhere, _imported_unused\n"
        "_LIMIT = 3\n"
        "_DEAD = 4\n"
        "def _dead(x):\n"
        "    return x\n"
        "def public():\n"
        "    return _used_elsewhere(_LIMIT)\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "def _used_elsewhere(x):\n"
        "    return x\n"
        "def _imported_unused():\n"
        "    return 0\n", encoding="utf-8")
    assert unreferenced_private_names(tmp_path) == [
        "a.py:1 _imported_unused", "a.py:3 _DEAD", "a.py:4 _dead"]
