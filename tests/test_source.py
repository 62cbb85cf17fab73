"""Rules the library's source keeps."""

import ast
from pathlib import Path

import qhlab

SRC = Path(qhlab.__file__).parent


def test_library_raises_instead_of_asserting():
    """Library invariants raise DomainError: an ``assert`` would vanish
    under ``python -O`` and fail with a bare AssertionError otherwise."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) > 10
    assert not found, found


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads (``__future__`` aside)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}" for name, line in imported.items()
            if name not in read]


def test_library_uses_every_name_it_imports():
    """An import nothing reads is a leftover of a deletion."""
    assert _unused_imports(ast.parse("import os\nfrom a import b as c\n"
                                     "os.sep\n")) == ["c:2"]
    found = [f"{path.name}:{unused}"
             for path in sorted(SRC.glob("*.py"))
             for unused in _unused_imports(ast.parse(path.read_text()))]
    assert not found, found
