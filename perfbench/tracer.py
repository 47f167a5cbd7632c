"""Traced launcher: wrap the package's layer functions, then run the CLI.

Usage: python3 perfbench/tracer.py SPANS_JSON STAGE WORKLOAD -- CLI_ARGS...

Each function in ``TARGETS`` is replaced, in every ``passagerank``
module that holds it under the same name (``from .x import y`` copies
included), by a wrapper that records a span - name, start, end, parent -
and bumps the target's counters. Spans stay in memory and are written
to SPANS_JSON, together with the counters and the time spent in
``cli.main``, when the command ends. The package itself is not changed.

``layer_metrics`` turns the span files of one traced pipeline pass into
the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("corpus", "retrieval", "passages", "accel", "features", "fusion",
          "training", "evaluation")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _calls(metric):
    def count(counts, args, kwargs, result):
        counts[metric] += 1
    return count


def _count_build_index(counts, args, kwargs, result):
    counts["corpus.tokens"] += int(result.total_len)


def _count_rank_documents(counts, args, kwargs, result):
    counts["retrieval.queries"] += 1
    counts["retrieval.docs_scored"] += int(_arg(args, kwargs, 1, "index").num_docs)


def _count_msp_rank(counts, args, kwargs, result):
    counts["passages.msp_rank_calls"] += 1
    kind = args[4] if len(args) > 4 else kwargs.get("homogeneity", "none")
    override = args[8] if len(args) > 8 else kwargs.get("homogeneity_override")
    if kind != "none" and override is None:
        counts["features.homogeneity_lookups"] += len(_arg(args, kwargs, 1, "candidates"))


def _count_kernel_filter_scores(counts, args, kwargs, result):
    n_d = int(args[0].shape[0])
    spans = 0
    for m, tau in zip(args[3].tolist(), args[4].tolist()):
        spans += 1 if m <= 0 else -(-n_d // tau)
    counts["accel.kernel_filter_scores_calls"] += 1
    counts["accel.spans_scored"] += spans
    counts["accel.token_bytes_read"] += 4 * n_d


def _count_lm_span_scores(counts, args, kwargs, result):
    counts["accel.lm_span_scores_calls"] += 1
    counts["accel.spans_scored"] += int(result.shape[0])
    counts["accel.token_bytes_read"] += 4 * int(args[0].shape[0])


def _count_train_fold(counts, args, kwargs, result):
    model, rows = result
    counts["training.folds"] += 1
    counts["training.epochs_run"] += len(rows) - 1
    counts["training.folds_best_epoch0"] += int(model.meta["best_epoch"] == 0)


def _count_triples(counts, args, kwargs, result):
    counts["training.triples"] += len(result)


# (layer, module, attribute, counter, timed). A dotted attribute is a
# method patched on its class; an untimed target only counts.
TARGETS = (
    ("corpus", "corpus", "build_index", _count_build_index, True),
    ("corpus", "corpus", "tokenize", None, True),
    ("corpus", "corpus", "save_index", None, True),
    ("corpus", "corpus", "load_index", _calls("corpus.load_index_calls"), True),
    ("corpus", "corpus", "CorpusIndex.postings", None, True),
    ("retrieval", "retrieval", "rank_documents", _count_rank_documents, True),
    ("passages", "passages", "score_tokens", _calls("passages.score_tokens_calls"), True),
    ("passages", "passages", "msp_rank", _count_msp_rank, True),
    ("accel", "_accel", "kernel_filter_scores", _count_kernel_filter_scores, True),
    ("accel", "_accel", "lm_span_scores", _count_lm_span_scores, True),
    ("features", "features", "homogeneity", _calls("features.homogeneity_calls"), True),
    ("features", "features", "FeatureExtractor.doc_block",
     _calls("features.homogeneity_lookups"), False),
    ("features", "features", "query_features", None, True),
    ("fusion", "fusion", "FusionModel.linear_many", None, True),
    ("fusion", "fusion", "forward_parts", _calls("fusion.forward_parts_calls"), True),
    ("training", "training", "train_fold", _count_train_fold, True),
    ("training", "training", "sample_triples", _count_triples, False),
    ("evaluation", "evaluation", "read_run", None, True),
    ("evaluation", "evaluation", "write_run", None, True),
    ("evaluation", "evaluation", "evaluate_run", None, True),
    ("evaluation", "evaluation", "fisher_randomization", None, True),
)

COUNT_METRICS = (
    "corpus.tokens", "corpus.load_index_calls", "retrieval.queries",
    "retrieval.docs_scored", "passages.score_tokens_calls",
    "passages.msp_rank_calls", "accel.kernel_filter_scores_calls",
    "accel.lm_span_scores_calls", "accel.spans_scored",
    "accel.token_bytes_read", "features.homogeneity_calls",
    "features.homogeneity_lookups", "fusion.forward_parts_calls",
    "training.folds", "training.epochs_run", "training.triples",
    "training.folds_best_epoch0",
)


def span_name(layer: str, attribute: str) -> str:
    return f"{layer}.{attribute.rsplit('.', 1)[-1]}"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the benchmark reports, with its unit."""
    units = {f"{span_name(layer, attr)}_s": "s"
             for layer, _, attr, _, timed in TARGETS if timed}
    units.update({name: "count" for name in COUNT_METRICS})
    units["features.hom_hit_ratio"] = "ratio"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["cli.startup_s"] = "s"
    units["cli.self_s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


def resolve(module: str, attribute: str):
    """(owner, name, function) for a target; fails loudly if it moved."""
    owner = importlib.import_module(f"passagerank.{module}")
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def wrap(self, name, fn, count, timed):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if timed:
                result = self.call(name, fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "passagerank" or key.startswith("passagerank.")]
        for layer, module, attribute, count, timed in TARGETS:
            owner, name, fn = resolve(module, attribute)
            wrapper = self.wrap(span_name(layer, attribute), fn, count, timed)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
                continue
            for mod in modules:
                if getattr(mod, name, None) is fn:
                    setattr(mod, name, wrapper)


def layer_metrics(span_files: list[Path], stage_walls: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its per-stage span files.

    A span's self time is its duration minus that of its direct
    children; a layer's self time sums its spans' self times. cli.self_s
    is the part of ``cli.main`` no wrapped call covers, cli.startup_s
    the part of the stage's wall time outside ``cli.main``.
    """
    out = {name: 0.0 for name in per_layer_units()}
    counts: Counter = Counter()
    for path in span_files:
        rec = json.loads(path.read_text(encoding="utf-8"))
        counts.update(rec["counts"])
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in rec["spans"]:
            child_time[parent] += end - start
        for span_id, name, start, end, _ in rec["spans"]:
            out[f"{name}_s"] += end - start
            out[f"{name.split('.')[0]}.self_s"] += end - start - child_time[span_id]
        out["cli.self_s"] += rec["main_s"] - child_time[-1]
        out["cli.startup_s"] += stage_walls[rec["stage"]] - rec["main_s"]
    for name in COUNT_METRICS:
        out[name] = float(counts[name])
    lookups = counts["features.homogeneity_lookups"]
    if lookups:
        out["features.hom_hit_ratio"] = 1.0 - counts["features.homogeneity_calls"] / lookups
    return out


def main(argv: list[str]) -> int:
    spans_path, stage, workload, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON STAGE WORKLOAD -- CLI_ARGS...")
    from passagerank import cli

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - start
        record = {"stage": stage, "workload": workload, "main_s": main_s,
                  "spans": [list(s) for s in tracer.spans],
                  "counts": dict(tracer.counts)}
        Path(spans_path).write_text(json.dumps(record), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
