"""The collection language model and whole-document query likelihood.

Every scorer smooths with one Jelinek-Mercer model: ``SmoothingConfig``
holds its weight lambda_c and the corpus-frequency floor of unseen
terms, ``QueryContext`` each query term's id and background probability.
``ql_scores`` scores every document in the index against a query, and
``rank_documents`` returns the top-k ranking that the passage rerankers
consume as their candidate pool. Scoring is postings-based and
vectorized over the whole corpus, one query term at a time, which keeps
the arithmetic order fixed and the output deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CorpusIndex, Query


@dataclass(frozen=True)
class SmoothingConfig:
    """Collection-interpolation weight for the unigram model, and the
    corpus frequency that an unseen query term counts with."""

    lambda_c: float = 0.5
    oov_floor: int = 1

    def __post_init__(self):
        if not 0.0 < self.lambda_c < 1.0:
            raise ValueError(f"lambda_c must be in (0, 1), got {self.lambda_c}")
        if self.oov_floor < 0:
            raise ValueError(f"oov_floor must be >= 0, got {self.oov_floor}")


class QueryContext:
    """Per-query arrays reused across candidate documents."""

    def __init__(self, query: Query, index: CorpusIndex, s: SmoothingConfig):
        if query.n_q < 1:
            raise ValueError(f"query {query.query_id!r} has no terms")
        lam = s.lambda_c
        cf = np.array(
            [index.corpus_freq(t, s.oov_floor) for t in query.terms],
            dtype=np.float64,
        )
        if np.any(cf <= 0):
            raise ValueError(
                f"query {query.query_id!r} has a zero-frequency term under "
                f"OOV floor {s.oov_floor}; scores would be -inf"
            )
        self.query = query
        self.smoothing = s
        self.ids = index.term_ids(query.terms)
        self.bias_coeff = lam * cf / ((1.0 - lam) * index.total_len)
        self.background = lam * cf / index.total_len


def ql_scores(
    query: Query, index: CorpusIndex, s: SmoothingConfig | None = None
) -> np.ndarray:
    """Whole-document query log-likelihood for every document, index order."""
    ctx = QueryContext(query, index, s or SmoothingConfig())
    one_minus_lam = 1.0 - ctx.smoothing.lambda_c
    doc_len = index.doc_len.astype(np.float64)
    scores = np.zeros(index.num_docs, dtype=np.float64)
    for tid, background in zip(ctx.ids.tolist(), ctx.background.tolist()):
        tf = np.zeros(index.num_docs, dtype=np.float64)
        if tid >= 0:
            docs, counts = index.postings(tid)
            tf[docs] = counts
        scores += np.log(one_minus_lam * tf / doc_len + background)
    return scores


def rank_documents(
    query: Query,
    index: CorpusIndex,
    s: SmoothingConfig | None = None,
    top_k: int = 2000,
) -> list[tuple[str, float]]:
    """Top-k documents by whole-document QL, ties broken by doc_id
    ascending: ``evaluation.rank_by_score``'s order, over the corpus."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    scores = ql_scores(query, index, s)
    order = np.lexsort((index.doc_sort_rank(), -scores))[:top_k]
    return [(index.doc_ids[i], float(scores[i])) for i in order]
