"""Passage-based document retrieval with learned score fusion.

Documents are scored through fixed-size sliding passage windows; a small
neural model fuses the per-window-size scores with document and query
features to re-rank an initial query-likelihood run.
"""

from ._accel import FilterSpec, backend_name, parse_filters
from .config import ExperimentConfig, build_config, read_config_file
from .corpus import (
    CorpusError,
    CorpusIndex,
    Document,
    Query,
    build_index,
    iter_trectext,
    load_index,
    read_stoplist,
    read_topics,
    save_index,
    tokenize,
)
from .evaluation import (
    EvalReport,
    average_precision,
    evaluate_run,
    fisher_randomization,
    ndcg_at_k,
    precision_at_k,
    read_qrels,
    read_run,
    write_run,
)
from .features import (
    FeatureExtractor,
    ScoreSettings,
    feature_names,
    homogeneity,
    query_features,
    summary_stats,
)
from .fusion import AffineNorm, FusionModel, report_weights, softmax_rows
from .npm import NpmModel, candidate_matrices, npm_rank, npm_train, save_training
from .passages import msp_rank
from .retrieval import SmoothingConfig, ql_scores, rank_documents
from .training import CandidateSet, TrainConfig, make_folds, sample_triples, train

__version__ = "0.1.0"

__all__ = [
    "AffineNorm",
    "CandidateSet",
    "CorpusError",
    "CorpusIndex",
    "Document",
    "EvalReport",
    "ExperimentConfig",
    "FeatureExtractor",
    "FilterSpec",
    "FusionModel",
    "NpmModel",
    "Query",
    "ScoreSettings",
    "SmoothingConfig",
    "TrainConfig",
    "average_precision",
    "backend_name",
    "build_config",
    "build_index",
    "candidate_matrices",
    "evaluate_run",
    "feature_names",
    "fisher_randomization",
    "homogeneity",
    "iter_trectext",
    "load_index",
    "make_folds",
    "msp_rank",
    "ndcg_at_k",
    "npm_rank",
    "npm_train",
    "parse_filters",
    "precision_at_k",
    "ql_scores",
    "query_features",
    "rank_documents",
    "read_config_file",
    "read_qrels",
    "read_run",
    "read_stoplist",
    "read_topics",
    "report_weights",
    "sample_triples",
    "save_index",
    "save_training",
    "softmax_rows",
    "summary_stats",
    "tokenize",
    "train",
    "write_run",
    "__version__",
]
