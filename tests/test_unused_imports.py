"""No module in ``src/rulewatch`` (bar the package's re-exports) or ``scripts/``
imports a name it never reads, and no private module-level name in
``src/rulewatch`` goes unread.

A stdlib-only stand-in for a linter's unused-import and dead-code rules: a
name counts as read when it is loaded anywhere in the module (for a private
name, anywhere in the package), including inside a string annotation.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rulewatch").glob("*.py"))
SOURCES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"] + list((ROOT / "scripts").glob("*.py"))
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation such as "DataTable"
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    read = _read_names(tree)
    return [f"line {line}: {name}" for name, line in _imported(tree).items() if name not in read]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private module-level function, class or constant, with its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        private = [n for n in names if n.startswith("_") and not n.startswith("__")]
        defined.update(dict.fromkeys(private, node.lineno))
    return defined


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module line N: name`` for each private definition no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_read_names, trees.values()))
    return [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    ]


def test_every_private_name_is_read():
    assert unread_private_names({p.name: p.read_text() for p in PACKAGE}) == []


def test_the_check_sees_an_unread_private_name():
    sources = {
        "metrics.py": (
            "_EPS, _TINY = 1e-12, 1e-300\n"
            "def _reduce(d):\n    return d + _EPS\n"
            "def _information(d):\n    return _reduce(d)\n"
        ),
        "detection.py": "from .metrics import _reduce\nclass _Unused:\n    pass\n",
    }
    assert unread_private_names(sources) == [
        "metrics.py line 1: _TINY",
        "metrics.py line 4: _information",
        "detection.py line 2: _Unused",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom csv import reader, writer\n"
        "def f(x: 'np.ndarray'):\n    return os.getcwd(), reader\n"
    )
    assert unused_imports(source) == ["line 4: writer"]
