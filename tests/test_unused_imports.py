"""Every name a module of the package imports is read somewhere in it,
and every private module-level name is read somewhere in the package.

``__init__.py`` is exempt from the first check, since its imports are the
package's re-exports, and so is ``from __future__ import annotations``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "circlewalk"


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in imported if name not in read)


def read_names(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def private_definitions(tree: ast.Module) -> set[str]:
    """The ``_name``s that ``tree`` defines at module level by ``def``,
    ``class`` or assignment; dunders such as ``__all__`` are not private."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level name of ``sources``,
    a map from module name to source, that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in private_definitions(tree) if name not in read)


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom a import b as c, d\n"
              "print(os.path.sep, d)\n")
    assert unused_imports(source) == ["c", "math"]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda path: path.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports {unused} and never reads them"


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a": ("_TILE = 128\n_USED: int = 2\n__all__ = []\n"
              "def _helper():\n    return _USED\n"
              "class _Gone:\n    pass\n"),
        "b": "from .a import _helper\nprint(_helper())\n",
        "c": "import a\nprint(a._Gone)\n",
    }
    assert unread_private_names(sources) == ["a._TILE"]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py")}
    unread = unread_private_names(sources)
    assert not unread, f"{unread} are defined and never read"
