"""Structural rules the package source keeps."""

import ast
import importlib.util
import inspect
from pathlib import Path

import passagerank
from passagerank import msp_rank

SRC = Path(passagerank.__file__).parent
TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


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


def test_benchmark_tracer_targets_resolve():
    """The benchmark's tracer patches package functions by module and
    name and reads msp_rank's arguments by position; a rename fails
    here, not only in the benchmark's own suite."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, module, attribute, _, _ in tracer.TARGETS:
        assert callable(tracer.resolve(module, attribute)[2]), (module, attribute)
    params = list(inspect.signature(msp_rank).parameters)
    assert (params[1], params[4]) == ("candidates", "homogeneity")
