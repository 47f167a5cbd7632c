"""Window filters and the hot scoring kernels, batched per query.

One kernel carries nearly all of the reranking cost: per-filter pooled
window scores, the inner loop of every passage ranker. Each call scores
one query's candidates at once: their token ids concatenated into
``tokens`` and their lengths in ``lengths`` (the CSR layout of the
stored postings). ``lm_span_scores``, the per-span LM form of the same
scores, has no production caller (see its docstring).

A window's matches of a query term are counted from the term's sorted
match positions, with two ``searchsorted`` calls over the spans of every
document, and span scores are pooled per document with ``reduceat``.
Per-term logs are summed in query-term order, so a batch gives bitwise
the same scores as one call per document.

A window filter is a ``FilterSpec`` (m, tau), and the kernels take its
two ints. The whole document, label ``inf``, is the window m = tau =
``WHOLE`` = 2**62: no document outgrows it, so it is each document's
one span. A pooling (``POOLINGS``) is how a document's span scores
become one: their MAX, or their probability MEAN.

Conventions: document and query tokens are int32 vocabulary ids, and
out-of-vocabulary query tokens are -1 (they never match a position).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WHOLE = 2**62  # m = tau of the whole-document filter: no document outgrows it

POOL_MAX = "max"
POOL_MEAN = "mean"
POOLINGS = (POOL_MAX, POOL_MEAN)


def check_pooling(pooling: str) -> None:
    if pooling not in POOLINGS:
        raise ValueError(f"pooling must be 'max' or 'mean', got {pooling!r}")


@dataclass(frozen=True)
class FilterSpec:
    """A window filter: length m in tokens and stride tau; the whole
    document is the window (WHOLE, WHOLE)."""

    m: int
    tau: int

    def __post_init__(self):
        if (self.m, self.tau) == (WHOLE, WHOLE):
            return
        if self.m < 1:
            raise ValueError(f"window length must be >= 1, got {self.m}")
        if self.m >= WHOLE:
            raise ValueError(f"window length must be < 2**62, got {self.m}")
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
        return cls(WHOLE, WHOLE)

    @property
    def is_infinite(self) -> bool:
        return self.m == WHOLE

    @property
    def label(self) -> str:
        return "inf" if self.is_infinite else f"{self.m}:{self.tau}"


def parse_filter_label(label: str) -> FilterSpec:
    # a model file's JSON number is no label: "" fails the parse below
    text = label.strip().lower() if isinstance(label, str) else ""
    if text == "inf":
        return FilterSpec.whole_document()
    m_s, colon, tau_s = text.partition(":")
    try:
        m, tau = int(m_s), int(tau_s) if colon else None
    except ValueError:
        raise ValueError(f"bad filter label {label!r}: expected m, m:tau "
                         f"or inf") from None
    try:
        return FilterSpec.window(m, tau)
    except ValueError as e:
        if m < WHOLE:
            raise
        raise ValueError(f"{e}; use inf for the whole document") from None


def parse_filters(text: str) -> tuple[FilterSpec, ...]:
    """Parse `50,150,inf` or `50:25,150:75,inf` into filter specs."""
    parts = [p for p in (s.strip() for s in text.split(",")) if p]
    if not parts:
        raise ValueError("filter list is empty")
    specs = tuple(parse_filter_label(p) for p in parts)
    for i, f in enumerate(specs):
        if f in specs[:i]:
            raise ValueError(f"filter {f.label} is listed twice")
    return specs


def span_layout(lengths, m: int, tau: int):
    """Span count of each document of a batch for window (m, tau), and the
    index of each document's first span among the batch's span scores.
    Spans, each min(L, m) long, start at 0, tau, 2*tau, ... while
    start + m < L; the last, [max(L - m, 0), L), ends the document."""
    counts = (np.maximum(lengths - m, 0) + tau - 1) // tau + 1
    return counts, np.cumsum(counts) - counts


def span_grid(lengths, m: int, tau: int):
    """Spans of every document in a batch, as [start, end) positions in
    the concatenated tokens, plus the batch's ``span_layout``."""
    doc_ends = np.cumsum(lengths)
    counts, offsets = span_layout(lengths, m, tau)
    # span j of the batch is span k = j - offsets[d] of its document d
    k = np.arange(counts.sum(), dtype=np.int64) - np.repeat(offsets, counts)
    last = np.repeat(np.maximum(lengths - m, 0), counts)
    starts = np.repeat(doc_ends - lengths, counts) + np.minimum(k * tau, last)
    ends = np.minimum(starts + m, np.repeat(doc_ends, counts))
    return starts, ends, counts, offsets


def match_positions(tokens, query_ids) -> list[np.ndarray]:
    """Sorted positions of each query term's matches in ``tokens``."""
    return [np.flatnonzero(tokens == q) for q in query_ids.tolist()]


def window_counts(positions, starts, ends):
    """(n_q, S) matches of each query term inside each span [start, end)."""
    out = np.empty((len(positions), starts.shape[0]), dtype=np.int64)
    for i, pos in enumerate(positions):
        out[i] = np.searchsorted(pos, ends) - np.searchsorted(pos, starts)
    return out


def _sum_terms(logs):
    """Column sums accumulated in query-term order."""
    acc = np.zeros(logs.shape[1], dtype=np.float64)
    for row in logs:
        acc += row
    return acc


def _pool(spans, counts, offsets, mean_pool):
    """Per-document MAX, or log-mean-exp, of a batch's span scores."""
    mx = np.maximum.reduceat(spans, offsets)
    if not mean_pool:
        return mx
    scaled = np.exp(spans - np.repeat(mx, counts))
    return mx + np.log(np.add.reduceat(scaled, offsets) / counts)


def _batch_lengths(tokens, lengths):
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or np.any(lengths < 1) or lengths.sum() != tokens.shape[0]:
        raise ValueError(
            "document lengths must be >= 1 and sum to the number of tokens"
        )
    return lengths


def kernel_filter_scores(tokens, query_ids, bias_coeff, ms, taus, mean_pool, lengths):
    """(D, F) pooled log-kernel scores: one row per document of the batch,
    one column per window filter (ms[f], taus[f]).

    Span score: sum_i log(window_count_i + bias_coeff[i] * n) with n the
    span's length; pooling is MAX, or MEAN as log-mean-exp over span
    scores.
    """
    lengths = _batch_lengths(tokens, lengths)
    positions = match_positions(tokens, query_ids)
    out = np.empty((lengths.shape[0], ms.shape[0]), dtype=np.float64)
    for f in range(ms.shape[0]):
        starts, ends, counts, offsets = span_grid(lengths, int(ms[f]), int(taus[f]))
        n = (ends - starts).astype(np.float64)
        wc = window_counts(positions, starts, ends)
        spans = _sum_terms(np.log(wc + bias_coeff[:, np.newaxis] * n))
        out[:, f] = _pool(spans, counts, offsets, mean_pool)
    return out


def lm_span_scores(tokens, query_ids, background, one_minus_lam, m, tau, lengths):
    """Span LM scores of every document of the batch, concatenated in
    document order; ``span_layout`` gives where each document's spans
    start.

    Span score: sum_i log(one_minus_lam * window_count_i / n + background[i])
    with n the span's length; background[i] already folds the smoothing
    weight into the collection probability.

    No ranker calls it. It stays as the tests' independent LM oracle and
    as a target the benchmark's tracer patches by name.
    """
    starts, ends, _, _ = span_grid(_batch_lengths(tokens, lengths), m, tau)
    wc = window_counts(match_positions(tokens, query_ids), starts, ends)
    n = (ends - starts).astype(np.float64)
    return _sum_terms(np.log(one_minus_lam * wc / n + background[:, np.newaxis]))


def backend_name() -> str:
    """Name of the kernel implementation, as run records report it."""
    return "numpy"
