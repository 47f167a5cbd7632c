"""Window passages, the logarithm scoring kernel, and passage rankers.

A window filter (m, tau) slides over a document of length L and yields
overlapping spans of length min(m, L), the last one ending the document
(``_accel.span_layout``). Each span is scored either by the smoothed
unigram language model

    sum_t log((1 - lambda_c) * tf_{t,g} / n  +  lambda_c * cf_t / |C|)

or by the logarithm kernel

    sum_t log(window_tf + b_t),   b_t = lambda_c * n * cf_t
                                        / ((1 - lambda_c) * |C|)

which equals the LM score plus n_q * log(n / (1 - lambda_c)) on every
span of length n. Per-filter document scores come from pooling span
scores (max, or log-mean-exp for the probability mean), and
``score_tokens`` stacks one pooled score per configured filter for each
document of a batch. ``msp_rank`` is the standalone max-scoring-passage
ranker with optional homogeneity mixing against the whole-document
query likelihood of ``retrieval.ql_scores``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _accel, features
from .corpus import CorpusIndex, Query
from .evaluation import rank_by_score
from .retrieval import QueryContext, SmoothingConfig, ql_scores

POOL_MAX = "max"
POOL_MEAN = "mean"
POOLINGS = (POOL_MAX, POOL_MEAN)

HOMOGENEITY_KINDS = ("none", *features.HOMOGENEITY_KINDS)
WHOLE = 2**62  # m = tau of the whole-document filter: no document outgrows it


@dataclass(frozen=True)
class FilterSpec:
    """A window filter: length m in tokens (None = whole document), stride tau."""

    m: int | None
    tau: int = 0

    def __post_init__(self):
        if self.m is None:
            if self.tau != 0:
                object.__setattr__(self, "tau", 0)  # canonical form
            return
        if self.m < 1:
            raise ValueError(f"window length must be >= 1, got {self.m}")
        if self.m >= WHOLE:
            raise ValueError(f"window length must be < 2**62, got {self.m}; "
                             f"use inf for the whole document")
        if not 1 <= self.tau <= self.m:
            raise ValueError(
                f"stride must be in [1, {self.m}], got {self.tau}"
            )

    @classmethod
    def window(cls, m: int, tau: int | None = None) -> "FilterSpec":
        """Finite window; stride defaults to half the window length."""
        return cls(m, max(1, m // 2) if tau is None else tau)

    @classmethod
    def whole_document(cls) -> "FilterSpec":
        return cls(None, 0)

    @property
    def is_infinite(self) -> bool:
        return self.m is None

    @property
    def label(self) -> str:
        return "inf" if self.m is None else f"{self.m}:{self.tau}"


def serialize_filters(filters: Sequence[FilterSpec]) -> list[str]:
    return [f.label for f in filters]


def parse_filter_label(label: str) -> FilterSpec:
    text = str(label).strip().lower()
    if text in ("inf", "infinite", "whole"):
        return FilterSpec.whole_document()
    m_s, colon, tau_s = text.partition(":")
    try:
        m, tau = int(m_s), int(tau_s) if colon else None
    except ValueError:
        raise ValueError(f"bad filter label {label!r}: expected m, m:tau "
                         f"or inf") from None
    return FilterSpec.window(m, tau)


def parse_filters(text: str) -> tuple[FilterSpec, ...]:
    """Parse `50,150,inf` or `50:25,150:75,inf` into filter specs."""
    parts = [p for p in (s.strip() for s in text.split(",")) if p]
    if not parts:
        raise ValueError("filter list is empty")
    return tuple(parse_filter_label(p) for p in parts)


# ---------------------------------------------------------------------------
# fast batched scoring
# ---------------------------------------------------------------------------


def check_pooling(pooling: str) -> None:
    if pooling not in POOLINGS:
        raise ValueError(f"pooling must be 'max' or 'mean', got {pooling!r}")


def _filter_arrays(filters: Sequence[FilterSpec]):
    windows = [(WHOLE, WHOLE) if f.is_infinite else (f.m, f.tau) for f in filters]
    return np.array(windows, dtype=np.int64).reshape(-1, 2).T


def score_tokens(
    ctx: QueryContext,
    tokens: np.ndarray,
    filters: Sequence[FilterSpec],
    pooling: str,
    lengths: np.ndarray,
) -> np.ndarray:
    """Per-filter pooled scores of a batch on the log-likelihood scale:
    ``tokens`` holds the documents concatenated in order, ``lengths``
    their lengths, and the result has one row per document and one
    column per filter.

    Each column is the pooled kernel score minus the kernel-vs-LM shift
    at the span length min(L, m), so every span scores its LM value up to
    rounding, and the whole-document column is the document's smoothed
    query log-likelihood.
    """
    check_pooling(pooling)
    ms, taus = _filter_arrays(filters)
    raw = _accel.kernel_filter_scores(
        tokens, ctx.ids, ctx.bias_coeff, ms, taus, pooling == POOL_MEAN, lengths,
    )
    n = np.minimum(lengths[:, np.newaxis], ms).astype(np.float64)
    return raw - ctx.query.n_q * np.log(n / (1.0 - ctx.smoothing.lambda_c))


def max_passage_lm(
    ctx: QueryContext,
    tokens: np.ndarray,
    m: int,
    tau: int,
    lengths: np.ndarray,
) -> np.ndarray:
    """Best span LM score of each document of a batch (see
    ``score_tokens``) for a finite window (m, tau)."""
    spans = _accel.lm_span_scores(
        tokens, ctx.ids, ctx.background, 1.0 - ctx.smoothing.lambda_c, m, tau,
        lengths,
    )
    _, offsets = _accel.span_layout(lengths, m, tau)
    return np.maximum.reduceat(spans, offsets)


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
    homogeneity-weighted probability mix of the whole-document model
    (``ql_scores``) and the best passage; each document's homogeneity
    comes from the index's cache. Ties break by doc_id ascending.
    """
    if homogeneity not in HOMOGENEITY_KINDS:
        raise ValueError(f"unknown homogeneity kind {homogeneity!r}")
    s = s or SmoothingConfig()
    f = FilterSpec.window(passage_size)
    ctx = QueryContext(query, index, s)
    tokens, lengths = index.batch_tokens(candidates)
    scores = max_passage_lm(ctx, tokens, f.m, f.tau, lengths)
    if homogeneity != "none":
        h = [features.cached_homogeneity(d, index, f, (homogeneity,))[0]
             for d in candidates]
        rows = [index.doc_index(d) for d in candidates]
        scores = combine_homogeneous(h, ql_scores(query, index, s)[rows], scores)
    return rank_by_score(candidates, scores.tolist())
