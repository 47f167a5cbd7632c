"""Structural rules the package source keeps."""

import ast
import contextlib
import dataclasses
import importlib.util
import inspect
import io
import re
import sys
from pathlib import Path

import passagerank
from passagerank import ExperimentConfig, msp_rank
from passagerank.cli import _FLAG_DEFS

SRC = Path(passagerank.__file__).parent
ROOT = Path(__file__).parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
GENERATE = ROOT / "perfbench" / "generate.py"


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


def test_no_type_checking_imports():
    """No package import hides under ``if TYPE_CHECKING:``, where it
    would close an import cycle that only type checkers see."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for block in ast.walk(tree):
            if isinstance(block, ast.If) and "TYPE_CHECKING" in ast.unparse(block.test):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(block)
                          if isinstance(node, ast.ImportFrom) and node.level >= 1]
    assert found == []


def test_only_accel_names_the_lm_span_kernel():
    """Span scores are computed in one place: only ``_accel`` names the
    span scorers and the window-count helpers they share, and only
    ``passages.score_tokens`` calls ``kernel_filter_scores``. Eq. 1 has
    one owner, ``lm_scores``, which only the span scorer and
    ``retrieval.ql_scores`` call. No module names ``bias_coeff``, the
    log-kernel form's bias that only the tests' oracle keeps.
    ``lm_span_scores`` stays in ``_accel`` for the tests, and because the
    benchmark's tracer patches it by name until the benchmark drops it
    (ROADMAP item 7)."""
    owners = {"_span_scores": {"_accel.py"}, "lm_span_scores": {"_accel.py"},
              "lm_scores": {"_accel.py", "retrieval.py"},
              "window_counts": {"_accel.py"}, "match_positions": {"_accel.py"},
              "kernel_filter_scores": {"_accel.py", "passages.py"},
              "bias_coeff": set()}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            for name in {getattr(node, key, None) for key in ("id", "attr", "name",
                                                              "arg", "value")}:
                if name in owners and path.name not in owners[name]:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
    assert callable(importlib.import_module("passagerank._accel").lm_span_scores)


def test_only_corpus_sets_the_unseen_term_count():
    """An unseen query term counts ``corpus.OOV_COUNT`` in every scorer
    and query feature: no module other than ``corpus`` names that
    constant, every ``corpus_freq``/``doc_freq`` call passes the term
    alone, and no module names ``oov_floor``, the setting the count once
    was (model files that recorded it are version 1, refused whole)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "attr", None) in ("corpus_freq", "doc_freq"):
                if len(node.args) != 1 or node.keywords:
                    found.append(f"{path.name}:{node.lineno}")
            elif "OOV_COUNT" in (getattr(node, "id", None), getattr(node, "attr", None)):
                if path.name != "corpus.py":
                    found.append(f"{path.name}:{node.lineno}")
        found += [f"{path.name}:{i}" for i, line in enumerate(text.splitlines(), 1)
                  if re.search("oov[_-]floor", line)]
    assert found == []


def hashlib_imports(sources: dict[str, str]) -> list[str]:
    """The modules of {file name: source} that import ``hashlib``, in any
    form and at any depth, as "file:line" entries."""
    found = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text, filename=name)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "hashlib" for m in modules):
                found.append(f"{name}:{node.lineno}")
    return found


def test_three_modules_hash():
    """Each hash names one thing, so only its owner imports ``hashlib``:
    ``config`` (the config fingerprint of ``ql`` and msp run tags),
    ``corpus`` (the index checksums) and ``npm`` (the model identity of
    npm run tags). The check itself finds each import form in a module
    that holds them."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    importers = {entry.split(":")[0] for entry in hashlib_imports(sources)}
    assert importers == {"config.py", "corpus.py", "npm.py"}
    planted = {"fusion.py": "import json\nimport hashlib\n",
               "features.py": "from hashlib import sha1\n",
               "cli.py": "def tag():\n    import hashlib as h\n    return h\n",
               "passages.py": "import numpy as np\n"}
    assert hashlib_imports(planted) == ["fusion.py:2", "features.py:1", "cli.py:2"]


def settings_sources(sources: dict[str, str]) -> list[str]:
    """Where a module of {file name: source} other than ``config`` and
    ``fusion`` calls ``ScoreSettings(...)``, or ``features`` imports
    ``fusion`` in any form: "file:line" entries."""
    found = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text, filename=name)):
            if isinstance(node, ast.Call):
                hit = name not in ("config.py", "fusion.py") and "ScoreSettings" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [getattr(node, "module", None) or "",
                           *(alias.name for alias in node.names)]
                hit = name == "features.py" and any(
                    m.split(".")[-1] == "fusion" for m in modules)
            else:
                continue
            if hit:
                found.append(f"{name}:{node.lineno}")
    return found


def test_only_config_and_fusion_build_score_settings():
    """Scoring settings come from two places: ``config`` builds them from
    a configuration and ``fusion`` from a model file, which stores them
    with the model. ``features``, which defines them, imports nothing
    from ``fusion``, so the settings' rules have one owner. The check
    itself finds each kind of violation in a package that holds them."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert settings_sources(sources) == []
    planted = {
        "config.py": "def settings(f):\n    return ScoreSettings(f, None, 'query', 1)\n",
        "npm.py": "from .features import ScoreSettings\nS = ScoreSettings((), None, 'query', 1)\n",
        "cli.py": "from . import features as f\n\nS = f.ScoreSettings((), None, 'query', 1)\n",
        "features.py": ("from .fusion import json_numbers\nfrom . import fusion\n"
                        "import passagerank.fusion\n"),
    }
    assert settings_sources(planted) == ["npm.py:2", "cli.py:3", "features.py:1",
                                         "features.py:2", "features.py:3"]


def dead_code(sources: dict[str, str], exported: set[str]) -> list[str]:
    """The unused imports and the unreferenced private module-level names
    of a package given as {file name: source}. A name is referenced when
    some module loads it, reads it as an attribute or imports it; an
    ``__init__.py`` import is used when ``exported`` (``__all__``) holds
    it."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    loads = {name: {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
             for name, tree in trees.items()}
    referenced = set().union(*loads.values())
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    found = []
    for name, tree in trees.items():
        used = loads[name] | (exported if name == "__init__.py" else set())
        for node in tree.body:
            defined = []
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                    found += [f"{name}:{node.lineno} import {b}" for b in bound
                              if b not in used]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            found += [f"{name}:{node.lineno} {d}" for d in defined
                      if d.startswith("_") and not d.startswith("__")
                      and d not in referenced]
    return found


def test_no_unused_imports_or_private_names():
    """Every import in the package is used and every private module-level
    name is referenced, so a helper that lost its last caller, or an
    import that lost its last use, cannot linger. The check itself finds
    both in a package that holds them."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert dead_code(sources, set(passagerank.__all__)) == []
    leftovers = {
        "__init__.py": "from .a import used, unexported\n__all__ = ['used']\n",
        "a.py": ("import numpy as np\nfrom .b import parse, _helper\n"
                 "_TABLE = {}\n_KEPT = 1\n\n"
                 "def _sum_terms(x):\n    return x\n\n"
                 "def used(x):\n    return _helper(x) + _KEPT\n"),
        "b.py": "def parse(x):\n    return x\n\ndef _helper(x):\n    return x\n",
    }
    assert dead_code(leftovers, {"used"}) == [
        "__init__.py:1 import unexported", "a.py:1 import np", "a.py:2 import parse",
        "a.py:3 _TABLE", "a.py:6 _sum_terms"]


def randomness(source: str, allowed: set[str]) -> list[str]:
    """Where a module names ``np.random`` or takes an ``rng`` parameter
    outside the functions in ``allowed``: "line name" entries."""
    tree = ast.parse(source)
    fns = [fn for fn in ast.walk(tree)
           if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    inside = {line for fn in fns if getattr(fn, "name", None) in allowed
              for line in range(fn.lineno, fn.end_lineno + 1)}
    found = [f"{node.lineno} np.random" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "random"
             and isinstance(node.value, ast.Name) and node.value.id == "np"
             and node.lineno not in inside]
    for fn in fns:
        params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if fn.lineno not in inside and "rng" in [a.arg for a in params]:
            found.append(f"{fn.lineno} rng")
    return found


def test_training_draws_no_random_number():
    """Training is deterministic: in ``training.py`` only ``deal_folds``,
    which shuffles queries into folds, names ``np.random``, and no
    function takes an ``rng``. ``sample_triples`` is exempt: training
    never calls it, and it stays only because the benchmark's tracer
    patches it by name (ROADMAP item 7 deletes it). The check itself
    finds each kind of draw in a module that holds them."""
    source = (SRC / "training.py").read_text(encoding="utf-8")
    assert randomness(source, {"deal_folds", "sample_triples"}) == []
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and "sample_triples" in
             (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert calls == []
    planted = ("import numpy as np\n_RNG = np.random.default_rng(0)\n\n"
               "def deal_folds(seed):\n    return np.random.default_rng(seed)\n\n"
               "def train_fold(x, rng):\n    return x\n\n"
               "def step(x):\n    return x + np.random.normal()\n")
    assert randomness(planted, {"deal_folds"}) == ["2 np.random", "11 np.random", "7 rng"]


def package_imports() -> dict[str, set[str]]:
    """Each module's package imports: the modules its ``from .x import``
    and ``from . import x`` statements name, inside any block too."""
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        graph[path.stem] = set()
        for node in ast.walk(tree):
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


def test_cli_does_not_train():
    """The CLI only plumbs arguments: training goes through
    ``npm.npm_train``, not through the training module."""
    assert "npm" in package_imports()["cli"]
    assert "training" not in package_imports()["cli"]


def test_cli_loads_models_through_npm():
    """``rerank`` and ``weights`` read a model through ``NpmModel.load``,
    which owns the model file's settings and fingerprint."""
    cli = importlib.import_module("passagerank.cli")
    assert not hasattr(cli, "FusionModel")
    assert not hasattr(cli, "ScoreSettings")


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


def test_benchmark_generator_imports_only_stdlib_and_numpy():
    """The tests build their planted corpus with the benchmark's
    generator, which the benchmark also runs where the package is not
    installed: it imports the standard library and numpy, nothing else."""
    tree = ast.parse(GENERATE.read_text(encoding="utf-8"), filename=str(GENERATE))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." if node.level else node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == {"numpy"}


def test_readme_library_example_runs():
    """The README's Library example runs as written and prints what the
    README says it prints."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    assert out.getvalue().split("\n") == ["ql 0.5", "msp 1.0", "npm 1.0", ""]
    for line in out.getvalue().splitlines():
        assert f"`{line}`" in section


def test_readme_config_table_lists_every_key():
    """README's Configuration table names every config key but the five
    storage paths, each once, and every key has one flag definition; a
    deleted key cannot keep its row."""
    keys = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert list(_FLAG_DEFS) == keys
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    assert rows, "no Configuration table in README.md"
    named = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    storage = {"corpus", "index", "topics", "qrels", "stoplist"}
    assert sorted(named) == sorted(set(keys) - storage)
