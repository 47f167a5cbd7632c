"""Hot scoring kernels, batched per query.

Two kernels carry nearly all of the reranking cost: per-filter pooled
window scores (the fused scorer's inner loop) and per-span smoothed
language-model log-likelihoods. Each call scores one query's candidates
at once: their token ids concatenated into ``tokens`` and their lengths
in ``lengths`` (the CSR layout of the stored postings).

A window's matches of a query term are counted from the term's sorted
match positions, with two ``searchsorted`` calls over the spans of every
document, and span scores are pooled per document with ``reduceat``.
Per-term logs are summed in query-term order, so a batch gives bitwise
the same scores as one call per document.

Conventions: document and query tokens are int32 vocabulary ids, and
out-of-vocabulary query tokens are -1 (they never match a position).
"""

from __future__ import annotations

import numpy as np


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
    """
    starts, ends, _, _ = span_grid(_batch_lengths(tokens, lengths), m, tau)
    wc = window_counts(match_positions(tokens, query_ids), starts, ends)
    n = (ends - starts).astype(np.float64)
    return _sum_terms(np.log(one_minus_lam * wc / n + background[:, np.newaxis]))


def backend_name() -> str:
    """Name of the kernel implementation, as run records report it."""
    return "numpy"
