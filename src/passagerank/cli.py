"""Command-line interface tying the modules into an experiment workflow.

Commands: ``index`` (build the corpus index), ``retrieve`` (initial
whole-document QL run), ``rerank`` (max-scoring-passage baselines or the
trained neural model), ``train`` (cross-validated fusion training),
``eval`` (metrics and paired significance), ``weights`` (fusion gate
report). Tables go to stdout, diagnostics to stderr, artifacts to
files. --seed draws the fold split and the randomization test's sign
patterns; nothing else is random.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import (ExperimentConfig, build_config, format_value, parse_value,
                     require, require_set)
from .corpus import (Query, build_index, iter_trectext, load_index, read_stoplist,
                     read_topics, save_index)
from .evaluation import (METRIC_NAMES, evaluate_run, fisher_randomization,
                         format_eval_table, p_value_text, qid_sort_key, read_qrels,
                         read_run, write_eval_csv, write_run, write_table)
from .features import (FEATURE_SETS, HOMOGENEITY_KINDS, FeatureExtractor,
                       write_feature_matrix)
from .fusion import report_weights
from .npm import NpmModel, npm_rank, npm_train, save_training
from .passages import msp_rank
from .retrieval import rank_documents

log = logging.getLogger(__name__)

RERANK_MODES = ("msp", *(f"msp-{kind}" for kind in HOMOGENEITY_KINDS), "npm")


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

# flag values are text, typed by config.parse_value like config-file values
_FLAG_DEFS: dict[str, dict] = {
    "corpus": dict(metavar="PATH", help="trectext file or directory"),
    "index": dict(metavar="DIR", help="index directory"),
    "topics": dict(metavar="FILE", help="TREC topics file"),
    "qrels": dict(metavar="FILE", help="TREC qrels file"),
    "stoplist": dict(metavar="FILE", help="stopword list, one term per line"),
    "text_tags": dict(metavar="TAGS", help="comma-separated text-bearing tags"),
    "filters": dict(metavar="LIST", help="window filters, e.g. 50,150,inf or 50:25,inf"),
    "lambda_c": dict(metavar="F", help="smoothing weight in (0,1)"),
    "top_k": dict(metavar="N", help="initial retrieval depth"),
    "feature_set": dict(metavar="|".join(FEATURE_SETS), help="fusion feature toggles"),
    "passage_size": dict(metavar="M", help="window size for msp modes"),
    "max_epochs": dict(metavar="N", help="limit on descent steps, one per epoch"),
    "patience": dict(metavar="N", help="epochs without a validation gain before stopping"),
    "folds": dict(metavar="K", help="cross-validation folds, at least 3"),
    "permutations": dict(metavar="N", help="randomization test samples; all 2^n sign "
                                            "patterns of n queries when 2^n <= N"),
    "seed": dict(metavar="N", help="seed of the fold split and the randomization test"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str, note: str = "") -> None:
    defaults = ExperimentConfig()
    for name in names:
        spec = dict(_FLAG_DEFS[name])
        if note:
            spec["help"] = f"{spec['help']}; {note}"
        default = getattr(defaults, name)
        if default is not None:
            spec["help"] = (f"{spec.get('help', '')} "
                            f"(default {format_value(name, default)})").lstrip()
        parser.add_argument(_flag(name), **spec)


def _flag(name: str) -> str:
    return f"--{name.replace('_', '-')}"


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {key: parse_value(key, getattr(args, key))
                 for key in _FLAG_DEFS if getattr(args, key, None) is not None}
    return build_config(args.config, overrides)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passagerank",
        description="Passage-based document retrieval and reranking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE", help="key=value config file")
        _add_flags(p, "seed")
        p.add_argument("-v", "--verbose", action="store_true")
        return p

    p = command("index", "build and persist the corpus index")
    _add_flags(p, "corpus", "index", "stoplist", "text_tags")
    p.set_defaults(handler=cmd_index)

    p = command("retrieve", "initial whole-document query-likelihood run")
    _add_flags(p, "index", "topics", "stoplist", "top_k", "lambda_c")
    p.add_argument("--output", required=True, metavar="RUN")
    p.set_defaults(handler=cmd_retrieve)

    p = command("rerank", "re-score an initial run's candidates")
    # npm reads every scoring setting from the model and is tagged with
    # its fingerprint; --filters and --top-k only enter the msp run tags
    _add_flags(p, "index", "topics", "stoplist")
    _add_flags(p, "passage_size", note="npm has no passage size and rejects the flag")
    _add_flags(p, "lambda_c", note="npm takes it from the model and rejects the flag")
    _add_flags(p, "filters", "top_k", note="enters only the msp run tag; npm ignores it")
    p.add_argument("--run", required=True, metavar="RUN", help="input run file")
    p.add_argument("--output", required=True, metavar="RUN")
    p.add_argument("--mode", required=True, choices=RERANK_MODES)
    p.add_argument("--model", metavar="PATH",
                   help="fusion model file, or a train output directory for "
                        "per-fold held-out reranking (npm mode)")
    p.add_argument("--dump-features", metavar="FILE",
                   help="also export the npm feature matrix as TSV")
    p.set_defaults(handler=cmd_rerank)

    p = command("train", "cross-validated training of the fusion model")
    _add_flags(p, "index", "topics", "qrels", "stoplist", "filters",
               "lambda_c", "feature_set", "top_k", "max_epochs", "patience", "folds")
    p.add_argument("--run", required=True, metavar="RUN",
                   help="initial run supplying candidates and the list feature")
    p.add_argument("--output-dir", required=True, metavar="DIR")
    p.set_defaults(handler=cmd_train)

    p = command("eval", "metrics for a run, optionally paired against a baseline")
    _add_flags(p, "qrels", "permutations")
    p.add_argument("--run", required=True, metavar="RUN")
    p.add_argument("--baseline", metavar="RUN",
                   help="second run for paired significance testing")
    p.add_argument("--csv", metavar="FILE", help="also write per-query CSV")
    p.set_defaults(handler=cmd_eval)

    p = command("weights", "per-filter fusion weight report for a model")
    _add_flags(p, "index", "topics", "stoplist")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--run", required=True, metavar="RUN",
                   help="run file defining the (query, doc) pairs")
    p.add_argument("--csv", metavar="FILE")
    p.set_defaults(handler=cmd_weights)

    return parser


# ---------------------------------------------------------------------------
# shared pipeline helpers
# ---------------------------------------------------------------------------


def _stopwords(cfg: ExperimentConfig) -> frozenset[str]:
    """The stopwords that documents and topics drop."""
    return frozenset() if cfg.stoplist is None else read_stoplist(cfg.stoplist)


def _queries_in_run(cfg: ExperimentConfig, run: dict) -> list[Query]:
    queries = read_topics(cfg.topics, _stopwords(cfg))
    kept = [q for q in queries if q.query_id in run]
    for q in queries:
        if q.query_id not in run:
            log.warning("query %s has no candidates in the run, skipped", q.query_id)
    # a topic that read_topics skipped, its title emptied, is such a query too
    for qid in sorted(set(run) - {q.query_id for q in queries}):
        log.warning("run query %s has no usable topic, skipped", qid)
    if not kept:
        raise ValueError("no topic query has candidates in the run file")
    return kept


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_index(args) -> int:
    cfg = _config_from_args(args)
    require(cfg, "corpus")
    require_set(cfg, "index")
    docs = iter_trectext(cfg.corpus, _stopwords(cfg), cfg.text_tags)
    index = build_index(docs)
    save_index(index, cfg.index)
    print(f"documents  : {index.num_docs}")
    print(f"vocabulary : {len(index.vocab)}")
    print(f"tokens     : {index.total_len}")
    print(f"index      : {cfg.index}")
    return 0


def cmd_retrieve(args) -> int:
    cfg = _config_from_args(args)
    require(cfg, "index", "topics")
    index = load_index(cfg.index)
    queries = read_topics(cfg.topics, _stopwords(cfg))
    run = {q.query_id: rank_documents(q, index, cfg.smoothing(), cfg.top_k)
           for q in queries}
    write_run(args.output, run, cfg.run_tag("ql"))
    log.info("wrote %d queries to %s", len(run), args.output)
    return 0


def cmd_rerank(args) -> int:
    cfg = _config_from_args(args)
    for flag in ("model", "dump_features"):
        if getattr(args, flag) and args.mode != "npm":
            raise ValueError(f"{_flag(flag)} requires --mode npm")
    if args.mode == "npm":
        if not args.model:
            raise ValueError("npm mode requires --model")
        # a config file may serve train and rerank alike, so only a flag
        # given here for npm is an error
        if args.passage_size is not None:
            raise ValueError("npm mode has no passage size; drop --passage-size")
        if args.lambda_c is not None:
            raise ValueError("npm mode takes --lambda-c from the model, not from "
                             "the command line")
    require(cfg, "index", "topics")
    index = load_index(cfg.index)
    run_in = read_run(args.run)
    queries = _queries_in_run(cfg, run_in)

    if args.mode == "npm":
        model = NpmModel.load(args.model)
        model.check_queries(q.query_id for q in queries)
        log.info("npm rerank with model fingerprint %s", model.fingerprint)
        out = {q.query_id: npm_rank(q, *zip(*run_in[q.query_id]), index, model)
               for q in queries}
        if args.dump_features:
            extractor, rows = FeatureExtractor(index, model.settings), []
            for q in sorted(queries, key=lambda q: qid_sort_key(q.query_id)):
                doc_ids, scores = zip(*run_in[q.query_id])
                H = extractor.matrix(q, doc_ids, scores)
                rows.extend((q.query_id, d, h) for d, h in zip(doc_ids, H))
            write_feature_matrix(args.dump_features, extractor.names, rows)
        tag = f"npm-{model.fingerprint}"
    else:
        kind = "none" if args.mode == "msp" else args.mode.split("-", 1)[1]
        out = {
            q.query_id: msp_rank(q, [d for d, _ in run_in[q.query_id]], index,
                                 cfg.passage_size, kind, s=cfg.smoothing())
            for q in queries
        }
        tag = cfg.run_tag(args.mode)

    write_run(args.output, out, tag)
    log.info("wrote %d queries to %s", len(out), args.output)
    return 0


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    settings = cfg.score_settings()
    require(cfg, "index", "topics", "qrels")
    index = load_index(cfg.index)
    qrels = read_qrels(cfg.qrels)
    run_in = read_run(args.run)
    queries = _queries_in_run(cfg, run_in)
    results = npm_train(queries, run_in, qrels, index, settings,
                        cfg.train_config(), {"config_fingerprint": cfg.fingerprint()})
    save_training(args.output_dir, results)

    print(f"{'fold':>4}  {'train':>5}  {'val':>4}  {'test':>4}  "
          f"{'best_epoch':>10}  {'val_map':>8}")
    for res in results:
        print(f"{res.fold:>4}  {len(res.train_qids):>5}  {len(res.val_qids):>4}  "
              f"{len(res.test_qids):>4}  {res.model.meta['best_epoch']:>10}  "
              f"{res.model.meta['best_val_map']:>8.4f}")
    log.info("wrote %d fold models to %s", len(results), args.output_dir)
    return 0


def cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    require(cfg, "qrels")
    qrels = read_qrels(cfg.qrels)
    report_a = evaluate_run(read_run(args.run), qrels)
    if not args.baseline:
        print(format_eval_table(report_a))
        if args.csv:
            write_eval_csv(args.csv, {"run": report_a})
        return 0

    report_b = evaluate_run(read_run(args.baseline), qrels)
    p_values = fisher_randomization(report_a, report_b, permutations=cfg.permutations,
                                    seed=cfg.seed)
    name_a = Path(args.run).stem[:14]
    name_b = Path(args.baseline).stem[:14]
    if name_a == name_b:  # same stem, or the same first 14 characters
        name_a, name_b = "run", "baseline"
    print(f"{'metric':>8}  {name_a:>14}  {name_b:>14}  {'diff':>8}  {'p-value':>8}")
    for m in METRIC_NAMES:
        diff = report_a.means[m] - report_b.means[m]
        mark = " *" if p_values[m] < 0.05 else ""
        print(f"{m:>8}  {report_a.means[m]:>14.4f}  {report_b.means[m]:>14.4f}  "
              f"{diff:>+8.4f}  {p_value_text(p_values[m], 4):>8}{mark}")
    if args.csv:
        write_eval_csv(args.csv, {name_a: report_a, name_b: report_b}, p_values)
    return 0


def cmd_weights(args) -> int:
    cfg = _config_from_args(args)
    require(cfg, "index", "topics")
    if Path(args.model).is_dir():
        raise ValueError("weights needs a single model file; pick one fold_*.json")
    model = NpmModel.load(args.model)
    index = load_index(cfg.index)
    run_in = read_run(args.run)
    queries = _queries_in_run(cfg, run_in)
    extractor = FeatureExtractor(index, model.settings)
    H_all = np.vstack([extractor.matrix(q, *zip(*run_in[q.query_id]))
                       for q in queries])
    fusion = model.models[0]
    means, stds = report_weights(fusion, H_all)
    log.info("weight report over %d pairs, model fingerprint %s",
             H_all.shape[0], model.fingerprint)
    print(f"{'filter':>8}  {'mean_phi':>9}  {'std_phi':>9}")
    for f, mean, std in zip(fusion.filters, means, stds):
        print(f"{f.label:>8}  {mean:>9.4f}  {std:>9.4f}")
    if args.csv:
        write_table(args.csv, ["filter", "mean_phi", "std_phi"],
                    [[f.label, f"{mean:.6f}", f"{std:.6f}"]
                     for f, mean, std in zip(fusion.filters, means, stds)])
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        level=logging.INFO if args.verbose else logging.WARNING,
    )
    try:
        return args.handler(args)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
