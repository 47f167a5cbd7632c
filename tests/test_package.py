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


def package_imports() -> dict[str, set[str]]:
    """Each module's package imports: the modules its module-level
    ``from .x import`` and ``from . import x`` statements name. Imports
    inside ``if TYPE_CHECKING:`` (or any other block) are not module-level
    statements, so they are not counted."""
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        graph[path.stem] = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                graph[path.stem] |= ({node.module} if node.module
                                     else {alias.name for alias in node.names})
    return graph


def test_import_graph_is_acyclic_and_layered():
    """The query-likelihood model sits below the passage scorers:
    retrieval imports nothing from passages, and no module reaches
    itself through its imports."""
    graph = package_imports()
    assert "corpus" in graph["retrieval"]
    assert "passages" not in graph["retrieval"]

    done, on_path = set(), []

    def visit(module):
        assert module not in on_path, " -> ".join(on_path + [module])
        if module in done:
            return
        on_path.append(module)
        for dep in sorted(graph[module]):
            visit(dep)
        on_path.pop()
        done.add(module)

    for module in graph:
        visit(module)


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
