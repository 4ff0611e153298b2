"""Every public function, class and method of the library has a caller in
the library or the benchmark harness.

A name counts as used when it appears anywhere in src/valuata or perfbench
outside its own definition and the package's __init__ re-exports: as a
name, an attribute, an imported name, or a part of a dotted string such as
the tracer's targets.  The check is by name only, so a method shares its
use with every other method of the same name; what it catches is a
definition nothing names at all, such as a reference route only the tests
call.  Those live in tests/routes.py and tests/helpers.py instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "valuata"
HARNESS = ROOT / "perfbench"

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions(tree: ast.Module) -> list[str]:
    """Public module-level functions and classes, and the public methods of
    public classes."""
    out = []
    for node in tree.body:
        if isinstance(node, DEFS) and _public(node.name):
            out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out += [m.name for m in node.body
                        if isinstance(m, DEFS) and _public(m.name)]
    return out


def references(tree: ast.Module) -> set[str]:
    """Every name the module mentions, except inside a definition of that
    same name (a recursive call does not count as a caller)."""
    found = set()

    def visit(node, inside):
        if isinstance(node, DEFS):
            inside = inside | {node.name}
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name.split(".")[-1]]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names = parts
        found.update(n for n in names if n not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def unreferenced(defining: dict[str, str], using: dict[str, str]) -> list[str]:
    """module:name for every public definition in the defining sources that
    no source of either set names; __init__ sources define and use
    nothing."""
    trees = {path: ast.parse(text) for path, text in {**defining, **using}.items()
             if not path.endswith("__init__.py")}
    used = set().union(*(references(t) for t in trees.values()))
    return sorted(f"{Path(path).stem}:{name}"
                  for path, tree in trees.items() if path in defining
                  for name in definitions(tree) if name not in used)


def _sources(root: Path) -> dict[str, str]:
    return {str(p): p.read_text(encoding="utf-8") for p in sorted(root.rglob("*.py"))}


def test_every_public_definition_has_a_caller_outside_the_tests():
    package = _sources(PACKAGE)
    assert len(package) > 10 and f"{PACKAGE / 'as_extension.py'}" in package
    assert unreferenced(package, _sources(HARNESS)) == []


def test_the_check_flags_a_definition_only_its_own_body_names():
    lib = {
        "lib.py": (
            "class Used:\n"
            "    def called(self):\n"
            "        return self.called_only_by_itself()\n"
            "    def called_only_by_itself(self):\n"
            "        return self.called_only_by_itself()\n"
            "def spare(x):\n"
            "    return spare(x - 1)\n"
            "def _private():\n"
            "    pass\n"),
        "__init__.py": "from .lib import spare\n__all__ = ['spare']\n",
    }
    harness = {"bench.py": "TARGETS = ('Used.called',)\n"}
    assert unreferenced(lib, harness) == ["lib:spare"]
