"""Static checks on the package source, with the standard library's ast."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopfglue"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    # Annotations are expressions in the tree, so their names count as uses.
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _private_definitions(tree):
    """Private names a module binds at top level: functions, classes, constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"linalg.py", "gluing.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert unused == [], f"{path.name} imports but never uses {unused}"


def test_every_private_module_level_name_is_used_in_the_package():
    # Only the package source counts: a helper that just the tests call is dead.
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(_referenced_names(tree) for tree in trees.values()))
    defined = [(name, n) for name, tree in trees.items() for n in _private_definitions(tree)]
    assert len(defined) > 40
    dead = [f"{name}: {n}" for name, n in defined if n not in used]
    assert dead == [], f"private names defined but never used: {dead}"


def test_the_cli_imports_no_private_name_from_gluing():
    # The CLI takes its groups from gluing's public functions, so it states
    # no invariant rule of its own.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "gluing"
               and node.level == 1
               for alias in node.names if alias.name.startswith("_")]
    assert private == [], f"cli.py imports private names from .gluing: {private}"
