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
