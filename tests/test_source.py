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


def _top_level_names(tree: ast.Module) -> dict[str, int]:
    """Functions, classes and constants a module defines at top level,
    dunder names aside."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return {name: line for name, line in names.items()
            if not (name.startswith("__") and name.endswith("__"))}


def _read_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in a module, as names or as attributes."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)
             and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)}
            | {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names})


def _project_trees() -> dict[Path, ast.Module]:
    """Parsed modules of the library, its tests and its benchmark."""
    root = Path(__file__).resolve().parents[1]
    files = [*SRC.glob("*.py"), *(root / "tests").glob("*.py"),
             *(root / "perfbench").glob("*.py")]
    assert len(files) > 30
    return {path: ast.parse(path.read_text()) for path in files}


def test_every_library_name_is_read():
    """A top-level function, class or constant of the library that no
    module of the library, its tests or its benchmark reads is a leftover
    of a deletion."""
    tree = ast.parse("A = 1\n__all__ = []\ndef f(): A\n")
    assert _top_level_names(tree) == {"A": 1, "f": 3}
    assert _read_names(tree) == {"A"}
    trees = _project_trees()
    read = set().union(*map(_read_names, trees.values()))
    found = [f"{path.name}:{name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for name, line in _top_level_names(trees[path]).items()
             if name not in read]
    assert not found, found


def _class_members(tree: ast.Module) -> dict[str, int]:
    """Methods and properties of a module's top-level classes, as
    ``Class.name``, dunder names aside."""
    return {f"{cls.name}.{node.name}": node.lineno
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _read_attributes(tree: ast.Module) -> set[str]:
    """Attribute names a module reads."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and not isinstance(node.ctx, ast.Store)}


def test_every_library_method_is_read():
    """A method or property of a library class that no module of the
    library, its tests or its benchmark reads as an attribute is a leftover
    of a deletion."""
    tree = ast.parse("class C:\n    def __init__(self): self.f = self.g\n"
                     "    def f(self): pass\n    def g(self): pass\n")
    assert _class_members(tree) == {"C.f": 3, "C.g": 4}
    assert _read_attributes(tree) == {"g"}
    trees = _project_trees()
    read = set().union(*map(_read_attributes, trees.values()))
    found = [f"{path.name}:{member}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for member, line in _class_members(trees[path]).items()
             if member.split(".")[1] not in read]
    assert not found, found
