"""Structural rules the package source keeps."""

import ast
from pathlib import Path

import passagerank

SRC = Path(passagerank.__file__).parent


def test_no_function_body_imports():
    """Imports sit at module level, so no import cycle hides behind a
    deferred import."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []
