"""The collection language model and whole-document query likelihood.

Every scorer smooths with one Jelinek-Mercer model: ``SmoothingConfig``
holds its weight lambda_c, ``QueryContext`` each query term's id and
background probability. A term the corpus never saw counts
``corpus.OOV_COUNT`` through ``CorpusIndex.corpus_freq``, so its
background probability, and every score, stays finite; a lambda_c so
small that a background probability underflows to 0 is refused.
``ql_scores`` scores every document in the index against a query, and
``rank_documents`` returns the top-k ranking that the passage rerankers
consume as their candidate pool, in ``evaluation.rank_by_score``'s order
like every run the package writes. Scoring gathers each query term's
postings into one row of term counts per document and evaluates eq. 1
through ``_accel.lm_scores``, the function that scores every passage
too, so a document's score is its whole-document passage score bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _accel
from .corpus import CorpusIndex, Query
from .evaluation import rank_by_score


@dataclass(frozen=True)
class SmoothingConfig:
    """Collection-interpolation weight for the unigram model."""

    lambda_c: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.lambda_c < 1.0:
            raise ValueError(f"lambda_c must be in (0, 1), got {self.lambda_c}")


class QueryContext:
    """Per-query arrays reused across candidate documents."""

    def __init__(self, query: Query, index: CorpusIndex, s: SmoothingConfig):
        if query.n_q < 1:
            raise ValueError(f"query {query.query_id!r} has no terms")
        lam = s.lambda_c
        cf = np.array([index.corpus_freq(t) for t in query.terms], dtype=np.float64)
        self.query = query
        self.smoothing = s
        self.ids = index.term_ids(query.terms)
        self.background = lam * cf / index.total_len
        if not self.background.all():  # a subnormal lambda_c underflows to 0
            term = query.terms[int(np.argmin(self.background))]
            raise ValueError(f"lambda_c {lam!r} gives query term {term!r} a background "
                             f"probability of 0; use a larger lambda_c")


def ql_scores(
    query: Query, index: CorpusIndex, s: SmoothingConfig | None = None
) -> np.ndarray:
    """Whole-document query log-likelihood for every document, index order."""
    ctx = QueryContext(query, index, s or SmoothingConfig())
    tf = np.zeros((query.n_q, index.num_docs), dtype=np.int32)
    for row, tid in zip(tf, ctx.ids.tolist()):
        if tid >= 0:
            docs, counts = index.postings(tid)
            row[docs] = counts
    return _accel.lm_scores(tf, index.doc_len.astype(np.float64), ctx.background,
                            1.0 - ctx.smoothing.lambda_c)


def rank_documents(
    query: Query,
    index: CorpusIndex,
    s: SmoothingConfig | None = None,
    top_k: int = 2000,
) -> list[tuple[str, float]]:
    """The first ``top_k`` of ``rank_by_score`` over the corpus by QL.
    Only the documents scoring at least the k-th best score, a tie group
    that straddles rank k included, are sorted."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    scores = ql_scores(query, index, s)
    k = min(top_k, index.num_docs)
    band = np.flatnonzero(scores >= np.partition(scores, -k)[-k])
    return rank_by_score([index.doc_ids[i] for i in band], scores[band])[:top_k]
