"""Source hygiene of the `utk` package and its tests."""

import ast
from pathlib import Path

import utk

PACKAGE = Path(utk.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_imported_name_is_used():
    unused = {}
    for root, paths in ((PACKAGE, PACKAGE.rglob("*.py")), (TESTS, TESTS.glob("*.py"))):
        for path in sorted(paths):
            names = _unused_imports(ast.parse(path.read_text(), str(path)))
            if names:
                unused[f"{root.name}/{path.relative_to(root)}"] = names
    assert unused == {}
