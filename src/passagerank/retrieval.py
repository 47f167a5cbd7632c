"""Initial retrieval: whole-document smoothed query likelihood.

Scores every document in the index against a query with the
Jelinek-Mercer smoothed unigram model and returns the top-k ranking
that the passage rerankers consume as their candidate pool. Scoring is
postings-based and vectorized over the whole corpus, one query term at
a time, which keeps the arithmetic order fixed and the output
deterministic.
"""

from __future__ import annotations

import numpy as np

from .corpus import CorpusIndex, Query
from .passages import SmoothingConfig


def ql_scores(
    query: Query,
    index: CorpusIndex,
    s: SmoothingConfig | None = None,
    floor: int = 1,
) -> np.ndarray:
    """Whole-document query log-likelihood for every document, index order."""
    s = s or SmoothingConfig()
    lam = s.lambda_c
    doc_len = index.doc_len.astype(np.float64)
    scores = np.zeros(index.num_docs, dtype=np.float64)
    for t in query.terms:
        cf_t = index.corpus_freq(t, floor)
        if cf_t <= 0:
            raise ValueError(
                f"term {t!r} has zero collection frequency under OOV floor "
                f"{floor}; scores would be -inf"
            )
        tf = np.zeros(index.num_docs, dtype=np.float64)
        tid = index.term_to_id.get(t)
        if tid is not None:
            docs, counts = index.postings(tid)
            tf[docs] = counts
        scores += np.log((1.0 - lam) * tf / doc_len + lam * cf_t / index.total_len)
    return scores


def rank_documents(
    query: Query,
    index: CorpusIndex,
    s: SmoothingConfig | None = None,
    top_k: int = 2000,
    floor: int = 1,
) -> list[tuple[str, float]]:
    """Top-k documents by whole-document QL, ties broken by doc_id ascending."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    scores = ql_scores(query, index, s, floor)
    order = np.lexsort((index.doc_sort_rank(), -scores))[:top_k]
    return [(index.doc_ids[i], float(scores[i])) for i in order]
