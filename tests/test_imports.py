"""Every name a package module imports at module level is used in it.

The package has no linter, so this parses each ``src/apscast`` module
with ``ast``.  An imported name passes when the module reads it or lists
it in ``__all__``.  ``__future__`` imports and names marked
``# noqa: F401`` (kept for ``bench/tracing.py`` to wrap) are skipped.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "apscast"


def _module_imports(body: list[ast.stmt]):
    """The alias of each name imported at module level, including
    those under a module-level ``if`` such as ``if TYPE_CHECKING:``."""
    for node in body:
        if isinstance(node, ast.If):
            yield from _module_imports(node.body + node.orelse)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            yield from node.names


def _exported(tree: ast.Module) -> set[str]:
    """The string literals in the module's ``__all__`` assignment."""
    return {c.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for c in ast.walk(node.value)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)}


def unused_imports(path: Path) -> list[str]:
    """``module:line: name`` for each unused module-level import in ``path``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    found = []
    for alias in _module_imports(tree.body):
        name = alias.asname or alias.name.split(".")[0]
        if name != "*" and name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
            found.append(f"{path.stem}:{alias.lineno}: {name}")
    return found


def test_checker_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\n"
                   "import os\n"
                   "from typing import TYPE_CHECKING\n"
                   "if TYPE_CHECKING:\n"
                   "    import numpy as np\n"
                   "from json import dumps, loads  # noqa: F401\n"
                   "from csv import writer\n"
                   "__all__ = ['writer']\n"
                   "def f(x: np.ndarray) -> None:\n"
                   "    return os\n", encoding="utf-8")
    assert unused_imports(mod) == []
    mod.write_text("import os\nif True:\n    import sys\n", encoding="utf-8")
    assert unused_imports(mod) == ["mod:1: os", "mod:3: sys"]


def test_package_modules_have_no_unused_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [line for path in modules for line in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def _module_level_names(tree: ast.Module) -> set[str]:
    """The names a module's own statements define at module level: its
    functions, classes and assigned names (not the names it imports)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_every_exported_name_lives_in_its_home_module():
    """Each ``apscast._HOME`` entry names a module that defines the name and,
    when the module has an ``__all__``, lists it there."""
    import apscast

    wrong = []
    for name, home in sorted(apscast._HOME.items()):
        tree = ast.parse((SRC / f"{home}.py").read_text(encoding="utf-8"))
        if name not in _module_level_names(tree):
            wrong.append(f"{home}: {name} is not defined there")
        exported = _exported(tree)
        if exported and name not in exported:
            wrong.append(f"{home}: {name} is missing from __all__")
    assert not wrong, "\n".join(wrong)


def test_every_all_entry_resolves():
    import importlib

    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "apscast" if path.stem == "__init__" else f"apscast.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{entry}" for entry in getattr(module, "__all__", ())
                    if not hasattr(module, entry)]
    assert not missing, "unresolved __all__ entries:\n" + "\n".join(missing)
