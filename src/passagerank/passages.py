"""Window passages, their LM scores, and passage rankers.

A window filter (m, tau) slides over a document of length L and yields
overlapping spans of length min(m, L), the last one ending the document
(``_accel.span_layout``). The whole-document filter ``inf`` is the
window m = tau = 2**62, so each document is its one span. The rankers
score every span n tokens long by its smoothed unigram LM (eq. 1)

    sum_t log((1 - lambda_c) * tf_{t,g} / n  +  lambda_c * cf_t / |C|)

A document scores its best span under each filter; ``score_tokens``
stacks these per-filter scores, one column per filter; eq. 1 has one
owner, ``_accel.lm_scores``, so the whole-document column is
``retrieval.ql_scores`` bitwise. ``msp_rank`` ranks by the column of
one window, optionally mixed by homogeneity with the whole-document
column.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import _accel, features
from ._accel import FilterSpec
from .corpus import CorpusIndex, Query
from .evaluation import rank_by_score
from .retrieval import QueryContext, SmoothingConfig

HOMOGENEITY_KINDS = ("none", *features.HOMOGENEITY_KINDS)


# ---------------------------------------------------------------------------
# fast batched scoring
# ---------------------------------------------------------------------------


def score_tokens(
    ctx: QueryContext,
    tokens: np.ndarray,
    filters: Sequence[FilterSpec],
    lengths: np.ndarray,
) -> np.ndarray:
    """Per-filter best-span LM scores of a batch: ``tokens`` holds the
    documents concatenated in order, ``lengths`` their lengths, and the
    result has one row per document and one column per filter. The
    whole-document column is each document's ``retrieval.ql_scores``
    bitwise: both evaluate eq. 1 through ``_accel.lm_scores``.
    """
    ms, taus = np.array([(f.m, f.tau) for f in filters], dtype=np.int64).reshape(-1, 2).T
    return _accel.kernel_filter_scores(tokens, ctx.ids, ctx.background, ms, taus,
                                       1.0 - ctx.smoothing.lambda_c, lengths)


# ---------------------------------------------------------------------------
# max-scoring-passage ranking
# ---------------------------------------------------------------------------


def combine_homogeneous(
    h: Sequence[float], lm_doc: np.ndarray, lm_psg: np.ndarray
) -> np.ndarray:
    """log(h * P(q|d) + (1-h) * max_g P(q|g)) for each document of a
    batch, log-space safe.

    log(h) and log1p(-h) come from ``math`` one document at a time, as
    numpy's array forms differ from them in the last bit on some
    inputs; only ``np.logaddexp`` runs over the batch. The h = 0 and
    h = 1 collapses are exact by construction, not a floating-point
    coincidence.
    """
    h = np.asarray(h, dtype=np.float64)
    bad = ~((h >= 0.0) & (h <= 1.0))  # NaN included
    if bad.any():
        raise ValueError(f"homogeneity must be in [0, 1], got {h[bad][0]}")
    lm_doc = np.asarray(lm_doc, dtype=np.float64)
    out = np.array(lm_psg, dtype=np.float64)
    mix = (h > 0.0) & (h < 1.0)
    hs = h[mix].tolist()
    out[mix] = np.logaddexp(np.array([math.log(x) for x in hs]) + lm_doc[mix],
                            np.array([math.log1p(-x) for x in hs]) + out[mix])
    out[h == 1.0] = lm_doc[h == 1.0]
    return out


def msp_rank(
    query: Query,
    candidates: Sequence[str],
    index: CorpusIndex,
    passage_size: int,
    homogeneity: str = "none",
    s: SmoothingConfig | None = None,
) -> list[tuple[str, float]]:
    """Rank candidate doc_ids by their best passage's LM score, window
    ``passage_size`` with stride half of it.

    With a homogeneity kind other than "none", the score becomes the
    homogeneity-weighted probability mix of the whole-document model and
    the best passage, both columns of one ``score_tokens`` call; each
    document's homogeneity comes from the index's cache. Ties break by
    doc_id ascending.
    """
    if homogeneity not in HOMOGENEITY_KINDS:
        raise ValueError(f"unknown homogeneity kind {homogeneity!r}")
    s = s or SmoothingConfig()
    f = FilterSpec.window(passage_size)
    filters = (f,) if homogeneity == "none" else (f, FilterSpec.whole_document())
    tokens, lengths = index.batch_tokens(candidates)
    columns = score_tokens(QueryContext(query, index, s), tokens, filters, lengths)
    scores = columns[:, 0]
    if homogeneity != "none":
        h = [features.cached_homogeneity(d, index, f, (homogeneity,))[0]
             for d in candidates]
        scores = combine_homogeneous(h, columns[:, 1], scores)
    return rank_by_score(candidates, scores.tolist())
