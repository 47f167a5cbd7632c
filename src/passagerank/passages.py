"""Window passages, the logarithm scoring kernel, and passage rankers.

A window filter (m, tau) slides over a document and yields overlapping
spans starting at 0, tau, 2*tau, ... (the last ones truncated at the
document end). Each span is scored either by the smoothed unigram
language model

    sum_t log((1 - lambda_c) * tf_{t,g} / n  +  lambda_c * cf_t / |C|)

or by the logarithm kernel

    sum_t log(window_tf + b_t),   b_t = lambda_c * m_eff * cf_t
                                        / ((1 - lambda_c) * |C|)

which equals the LM score plus the constant n_q * log(m_eff /
(1 - lambda_c)) on full-length spans. Per-filter document scores come
from pooling span scores (max, or log-mean-exp for the probability
mean), and ``score_vector`` stacks one pooled score per configured
filter. ``msp_rank`` is the standalone max-scoring-passage ranker with
optional homogeneity mixing against the whole-document model.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _accel
from .corpus import CorpusIndex, Document, Query

POOL_MAX = "max"
POOL_MEAN = "mean"

SCALE_KERNEL = "kernel"
SCALE_LM = "lm"

HOMOGENEITY_KINDS = ("none", "length", "ent", "intpsg", "docpsg")


@dataclass(frozen=True)
class SmoothingConfig:
    """Collection-interpolation weight for the unigram model."""

    lambda_c: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.lambda_c < 1.0:
            raise ValueError(f"lambda_c must be in (0, 1), got {self.lambda_c}")


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


@dataclass(frozen=True)
class PassageSpan:
    """A span [start, start+length) within one document."""

    start: int
    length: int

    def __post_init__(self):
        if self.start < 0 or self.length < 1:
            raise ValueError(f"invalid span ({self.start}, {self.length})")


def extract_passages(n_d: int, f: FilterSpec) -> list[PassageSpan]:
    """All spans of filter ``f`` over a document of length ``n_d``.

    Starts are i*tau for every i*tau < n_d; the final spans truncate at
    the document end; a start exactly at n_d would be an empty passage
    and is not produced. The whole-document filter yields (0, n_d).
    """
    if n_d < 1:
        raise ValueError(f"document length must be >= 1, got {n_d}")
    if f.is_infinite:
        return [PassageSpan(0, n_d)]
    return [
        PassageSpan(start, min(f.m, n_d - start))
        for start in range(0, n_d, f.tau)
    ]


# ---------------------------------------------------------------------------
# reference scorers (readable, per-span; the hot paths live in _accel)
# ---------------------------------------------------------------------------


def kernel_bias(cf_t: int, m_eff: int, s: SmoothingConfig, total_len: int) -> float:
    """b_t: the additive bias folding the collection model into the kernel."""
    return s.lambda_c * m_eff * cf_t / ((1.0 - s.lambda_c) * total_len)


def kernel_lm_shift(n_q: int, m_eff: int, s: SmoothingConfig) -> float:
    """The constant separating kernel and LM scores on full-length spans."""
    return n_q * math.log(m_eff / (1.0 - s.lambda_c))


def lm_score(
    query: Query,
    span: PassageSpan,
    doc: Document,
    index: CorpusIndex,
    s: SmoothingConfig,
    floor: int = 1,
) -> float:
    """Smoothed log-likelihood of the query under the span's unigram model.

    Uses the span's actual length as n, so truncated final spans are
    scored over what they contain.
    """
    if span.start >= doc.n_d or span.start + span.length > doc.n_d:
        raise ValueError(f"span {span} does not fit document of length {doc.n_d}")
    window = doc.terms[span.start : span.start + span.length]
    counts = Counter(window)
    lam = s.lambda_c
    total = 0.0
    for t in query.terms:
        p = (1.0 - lam) * counts.get(t, 0) / span.length + lam * index.corpus_freq(
            t, floor
        ) / index.total_len
        if p <= 0.0:
            raise ValueError(
                f"zero probability for term {t!r} (OOV floor {floor})"
            )
        total += math.log(p)
    return total


def kernel_score(
    query: Query,
    span: PassageSpan,
    matrix,
    index: CorpusIndex,
    s: SmoothingConfig,
    m_eff: int,
    floor: int = 1,
) -> float:
    """Logarithm-kernel span score: sum_t log(window_tf + b_t).

    ``m_eff`` is the nominal filter length for finite filters (even on a
    truncated final span) and the document length for the
    whole-document filter.
    """
    total = 0.0
    for i, t in enumerate(query.terms):
        wc = matrix.window_tf(i, span.start, span.length)
        b = kernel_bias(index.corpus_freq(t, floor), m_eff, s, index.total_len)
        if wc + b <= 0.0:
            raise ValueError(f"non-positive kernel argument for term {t!r}")
        total += math.log(wc + b)
    return total


def pool_document(scores: Sequence[float], strategy: str) -> float:
    """Pool per-passage scores to one document score.

    MAX is winner-take-all; MEAN is the log of the arithmetic mean of
    exponentiated scores (log-sum-exp based, safe for large-magnitude
    log-likelihoods).
    """
    if len(scores) == 0:
        raise ValueError("cannot pool an empty score list")
    arr = np.asarray(scores, dtype=np.float64)
    kind = strategy.lower()
    if kind == POOL_MAX:
        return float(arr.max())
    if kind == POOL_MEAN:
        mx = arr.max()
        return float(mx + np.log(np.exp(arr - mx).mean()))
    raise ValueError(f"unknown pooling strategy {strategy!r}")


# ---------------------------------------------------------------------------
# fast batched scoring
# ---------------------------------------------------------------------------


class QueryContext:
    """Per-query arrays reused across candidate documents."""

    def __init__(
        self,
        query: Query,
        index: CorpusIndex,
        s: SmoothingConfig,
        floor: int = 1,
    ):
        if query.n_q < 1:
            raise ValueError(f"query {query.query_id!r} has no terms")
        lam = s.lambda_c
        cf = np.array(
            [index.corpus_freq(t, floor) for t in query.terms], dtype=np.float64
        )
        if np.any(cf <= 0):
            raise ValueError(
                f"query {query.query_id!r} has a zero-frequency term under "
                f"OOV floor {floor}; scores would be -inf"
            )
        self.query = query
        self.smoothing = s
        self.ids = index.term_ids(query.terms)
        self.bias_coeff = lam * cf / ((1.0 - lam) * index.total_len)
        self.background = lam * cf / index.total_len


def _filter_arrays(filters: Sequence[FilterSpec]):
    ms = np.array([-1 if f.is_infinite else f.m for f in filters], dtype=np.int64)
    taus = np.array([0 if f.is_infinite else f.tau for f in filters], dtype=np.int64)
    return ms, taus


def score_vector(
    query: Query,
    doc: Document | str,
    filters: Sequence[FilterSpec],
    index: CorpusIndex,
    s: SmoothingConfig | None = None,
    pooling: str = POOL_MAX,
    scale: str = SCALE_KERNEL,
    floor: int = 1,
) -> np.ndarray:
    """Per-filter pooled kernel scores for one candidate document.

    ``scale="kernel"`` returns raw pooled kernel scores. ``scale="lm"``
    subtracts each filter's kernel-vs-LM shift, putting every component
    on the log-likelihood scale; on that scale the whole-document filter
    is exactly the document's smoothed query log-likelihood. The shift
    is constant per (query, filter) for finite filters, so it never
    changes orderings there; for the whole-document filter it varies
    with document length, which is the point.
    """
    s = s or SmoothingConfig()
    if len(filters) == 0:
        raise ValueError("at least one filter is required")
    if pooling.lower() not in (POOL_MAX, POOL_MEAN):
        raise ValueError(f"unknown pooling strategy {pooling!r}")
    if scale not in (SCALE_KERNEL, SCALE_LM):
        raise ValueError(f"unknown score scale {scale!r}")
    ctx = QueryContext(query, index, s, floor)
    doc_id = doc if isinstance(doc, str) else doc.doc_id
    tokens = index.doc_tokens(index.doc_index(doc_id))
    return score_tokens(ctx, tokens, filters, pooling, scale)


def score_tokens(
    ctx: QueryContext,
    tokens: np.ndarray,
    filters: Sequence[FilterSpec],
    pooling: str,
    scale: str,
    lengths: np.ndarray | None = None,
) -> np.ndarray:
    """Per-filter pooled scores of one document, or of a batch.

    Without ``lengths``, ``tokens`` is one document and the result a
    vector with one score per filter. With ``lengths``, ``tokens`` holds
    the documents of a batch concatenated in order and the result has
    one row per document.
    """
    ms, taus = _filter_arrays(filters)
    raw = _accel.kernel_filter_scores(
        tokens, ctx.ids, ctx.bias_coeff, ms, taus, pooling.lower() == POOL_MEAN,
        lengths,
    )
    if scale == SCALE_LM:
        n_d = np.array([tokens.shape[0]]) if lengths is None else lengths
        m_eff = np.where(ms <= 0, n_d[:, np.newaxis], ms).astype(np.float64)
        raw = raw - ctx.query.n_q * np.log(m_eff / (1.0 - ctx.smoothing.lambda_c))
    return raw[0] if lengths is None else raw


def max_passage_lm(
    ctx: QueryContext,
    tokens: np.ndarray,
    m: int,
    tau: int,
    lengths: np.ndarray | None = None,
):
    """Best span LM score for a finite window (m, tau): a float for one
    document, one value per document for a batch (see ``score_tokens``)."""
    spans = _accel.lm_span_scores(
        tokens, ctx.ids, ctx.background, 1.0 - ctx.smoothing.lambda_c, m, tau,
        lengths,
    )
    if lengths is None:
        return float(spans.max())
    _, offsets = _accel.span_layout(lengths, m, tau)
    return np.maximum.reduceat(spans, offsets)


def whole_doc_lm(
    ctx: QueryContext, tokens: np.ndarray, lengths: np.ndarray | None = None
):
    """Whole-document smoothed query log-likelihood: a float for one
    document, one value per document for a batch."""
    spans = _accel.lm_span_scores(
        tokens, ctx.ids, ctx.background, 1.0 - ctx.smoothing.lambda_c, -1, 0,
        lengths,
    )
    return float(spans[0]) if lengths is None else spans


# ---------------------------------------------------------------------------
# max-scoring-passage ranking
# ---------------------------------------------------------------------------


def combine_homogeneous(h: float, lm_doc: float, lm_psg: float) -> float:
    """log(h * P(q|d) + (1-h) * max_g P(q|g)), log-space safe.

    The h = 0 and h = 1 collapses are exact by construction, not a
    floating-point coincidence.
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"homogeneity must be in [0, 1], got {h}")
    if h == 0.0:
        return lm_psg
    if h == 1.0:
        return lm_doc
    return float(np.logaddexp(math.log(h) + lm_doc, math.log1p(-h) + lm_psg))


def msp_rank(
    query: Query,
    candidates: Sequence[str],
    index: CorpusIndex,
    passage_size: int,
    homogeneity: str = "none",
    tau: int | None = None,
    s: SmoothingConfig | None = None,
    floor: int = 1,
    homogeneity_override: float | Mapping[str, float] | None = None,
    hom_cache: dict | None = None,
) -> list[tuple[str, float]]:
    """Rank candidate doc_ids by their best passage's LM score.

    With a homogeneity kind other than "none", the score becomes the
    homogeneity-weighted probability mix of the whole-document model and
    the best passage. ``homogeneity_override`` (a constant or a per-doc
    mapping) substitutes the h values; it exists for the collapse tests
    and diagnostics. ``hom_cache`` may be shared across queries to avoid
    recomputing per-document homogeneity. Ties break by doc_id
    ascending.
    """
    from . import features  # deferred: features imports this module

    if homogeneity not in HOMOGENEITY_KINDS:
        raise ValueError(f"unknown homogeneity kind {homogeneity!r}")
    s = s or SmoothingConfig()
    f = FilterSpec.window(passage_size, tau)
    ctx = QueryContext(query, index, s, floor)
    tokens, lengths = index.batch_tokens(candidates)
    scores = max_passage_lm(ctx, tokens, f.m, f.tau, lengths).tolist()
    if homogeneity != "none":
        lm_doc = whole_doc_lm(ctx, tokens, lengths).tolist()
        for k, doc_id in enumerate(candidates):
            if homogeneity_override is None:
                key = (doc_id, f.m, f.tau, homogeneity)
                h = hom_cache.get(key) if hom_cache is not None else None
                if h is None:
                    h = features.homogeneity(doc_id, index, f).by_kind(homogeneity)
                    if hom_cache is not None:
                        hom_cache[key] = h
            elif isinstance(homogeneity_override, Mapping):
                h = float(homogeneity_override[doc_id])
            else:
                h = float(homogeneity_override)
            scores[k] = combine_homogeneous(h, lm_doc[k], scores[k])
    return sorted(zip(candidates, scores), key=lambda kv: (-kv[1], kv[0]))
