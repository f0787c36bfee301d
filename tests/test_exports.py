"""Every public name has a caller in the program.

A name exported by ``ssdiag/__init__.py`` stays only while the pipeline uses
it: some module under ``src/`` reads it outside its own definition, or a
script under ``scripts/`` does.  A name that only tests use belongs in
``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ssdiag"


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _read_names(path: Path) -> set[str]:
    """Names a file reads: loaded variables and attributes, not imports or definitions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_export_is_used_by_the_pipeline():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    used = set().union(*(_read_names(p) for p in files))
    assert sorted(_exported() - used) == []
