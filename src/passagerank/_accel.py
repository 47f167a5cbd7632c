"""Hot scoring kernels, batched per query, with numba-jitted loop twins.

Two kernels carry nearly all of the reranking cost: per-filter pooled
window scores (the fused scorer's inner loop) and per-span smoothed
language-model log-likelihoods. Each call scores one query's candidates
at once: their token ids concatenated into ``tokens`` and their lengths
in ``lengths`` (the CSR layout of the stored postings). A call without
``lengths`` scores ``tokens`` as a single document.

Each kernel exists twice with identical semantics: a plain loop version
that scores one document at a time from prefix-sum match counts, and a
vectorized numpy version over the whole batch. The numpy version counts
a window's matches of a query term from the term's sorted match
positions, with two ``searchsorted`` calls over the spans of every
document, and pools per document with ``reduceat``. Selection happens
once at import time:

* default: numba-compiled loops when numba is importable, numpy
  otherwise (logged warning);
* ``PASSAGERANK_NO_NUMBA=1`` forces the numpy path.

Both versions sum the per-term logs in query-term order, so they agree
to float-rounding level (tested against the uncompiled loops at 1e-12),
and a batch gives bitwise the same scores as one call per document.
``fastmath`` stays off for exactly that reason.

Conventions shared by both paths: document and query tokens are int32
vocabulary ids, out-of-vocabulary query tokens are -1 (they never match
a position), and window size ``m <= 0`` means the whole document as a
single span.
"""

from __future__ import annotations

import logging
import os

import numpy as np

log = logging.getLogger(__name__)

_ENV_FLAG = "PASSAGERANK_NO_NUMBA"


def _numba_disabled() -> bool:
    return os.environ.get(_ENV_FLAG, "").strip().lower() in {"1", "true", "yes", "on"}


# ---------------------------------------------------------------------------
# loop implementations (jitted in dependency order when numba is available)
# ---------------------------------------------------------------------------


def _match_counts(doc_tokens, query_ids):
    """Prefix-sum match counts: out[i, j] = #{p < j : d[p] == q[i]}."""
    n_d = doc_tokens.shape[0]
    n_q = query_ids.shape[0]
    out = np.zeros((n_q, n_d + 1), dtype=np.int64)
    for i in range(n_q):
        q = query_ids[i]
        c = 0
        for j in range(n_d):
            if doc_tokens[j] == q:
                c += 1
            out[i, j + 1] = c
    return out


def _pool(scores, mean_pool):
    """MAX pooling, or MEAN pooling as log-mean-exp over span scores."""
    mx = scores[0]
    for k in range(1, scores.shape[0]):
        if scores[k] > mx:
            mx = scores[k]
    if not mean_pool:
        return mx
    acc = 0.0
    for k in range(scores.shape[0]):
        acc += np.exp(scores[k] - mx)
    return mx + np.log(acc / scores.shape[0])


def _doc_filter_scores(doc_tokens, query_ids, bias_coeff, ms, taus, mean_pool):
    """Pooled log-kernel score per window filter, for one document.

    Span score: sum_i log(window_count_i + bias_coeff[i] * m_eff) with
    m_eff the nominal window size (the document length when m <= 0).
    """
    n_d = doc_tokens.shape[0]
    n_q = query_ids.shape[0]
    n_f = ms.shape[0]
    cum = _match_counts(doc_tokens, query_ids)
    out = np.empty(n_f, dtype=np.float64)
    for f in range(n_f):
        m = ms[f]
        if m <= 0:
            width = n_d
            step = n_d
            m_eff = float(n_d)
            n_spans = 1
        else:
            width = m
            step = taus[f]
            m_eff = float(m)
            n_spans = (n_d + step - 1) // step
        spans = np.empty(n_spans, dtype=np.float64)
        start = 0
        s = 0
        while start < n_d:
            end = start + width
            if end > n_d:
                end = n_d
            acc = 0.0
            for i in range(n_q):
                wc = cum[i, end] - cum[i, start]
                acc += np.log(wc + bias_coeff[i] * m_eff)
            spans[s] = acc
            s += 1
            start += step
        out[f] = _pool(spans, mean_pool)
    return out


def _doc_lm_span_scores(doc_tokens, query_ids, background, one_minus_lam, m, tau):
    """Smoothed LM log-likelihood per span of one document, actual span
    length as n.

    Span score: sum_i log(one_minus_lam * window_count_i / n + background[i]);
    background[i] already folds the smoothing weight into the collection
    probability.
    """
    n_d = doc_tokens.shape[0]
    n_q = query_ids.shape[0]
    cum = _match_counts(doc_tokens, query_ids)
    if m <= 0:
        width = n_d
        step = n_d
        n_spans = 1
    else:
        width = m
        step = tau
        n_spans = (n_d + step - 1) // step
    out = np.empty(n_spans, dtype=np.float64)
    start = 0
    s = 0
    while start < n_d:
        end = start + width
        if end > n_d:
            end = n_d
        n = float(end - start)
        acc = 0.0
        for i in range(n_q):
            wc = cum[i, end] - cum[i, start]
            acc += np.log(one_minus_lam * wc / n + background[i])
        out[s] = acc
        s += 1
        start += step
    return out


def _kernel_filter_scores(tokens, query_ids, bias_coeff, ms, taus, mean_pool, lengths):
    """(D, F) pooled scores of a batch, one document at a time."""
    out = np.empty((lengths.shape[0], ms.shape[0]), dtype=np.float64)
    start = 0
    for d in range(lengths.shape[0]):
        end = start + lengths[d]
        out[d] = _doc_filter_scores(
            tokens[start:end], query_ids, bias_coeff, ms, taus, mean_pool
        )
        start = end
    return out


def _lm_span_scores(tokens, query_ids, background, one_minus_lam, m, tau, lengths):
    """Span scores of a batch, concatenated, one document at a time."""
    n_spans = 0
    for d in range(lengths.shape[0]):
        n_spans += 1 if m <= 0 else (lengths[d] + tau - 1) // tau
    out = np.empty(n_spans, dtype=np.float64)
    start = 0
    s = 0
    for d in range(lengths.shape[0]):
        end = start + lengths[d]
        spans = _doc_lm_span_scores(
            tokens[start:end], query_ids, background, one_minus_lam, m, tau
        )
        out[s : s + spans.shape[0]] = spans
        s += spans.shape[0]
        start = end
    return out


# ---------------------------------------------------------------------------
# numpy twins
# ---------------------------------------------------------------------------


def span_layout(lengths, m: int, tau: int):
    """Span count of each document of a batch for window (m, tau), and the
    index of each document's first span among the batch's span scores."""
    counts = np.ones_like(lengths) if m <= 0 else (lengths + tau - 1) // tau
    return counts, np.cumsum(counts) - counts


def span_grid(lengths, m: int, tau: int):
    """Spans of every document in a batch, as [start, end) positions in
    the concatenated tokens, plus the batch's ``span_layout``."""
    doc_ends = np.cumsum(lengths)
    doc_starts = doc_ends - lengths
    counts, offsets = span_layout(lengths, m, tau)
    if m <= 0:
        return doc_starts, doc_ends, counts, offsets
    # span j of the batch is span j - offsets[d] of its document d
    starts = np.repeat(doc_starts - offsets * tau, counts)
    starts += np.arange(starts.shape[0], dtype=np.int64) * tau
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
    """Column sums accumulated in query-term order, as the loops do."""
    acc = np.zeros(logs.shape[1], dtype=np.float64)
    for row in logs:
        acc += row
    return acc


def _pool_np(spans, counts, offsets, mean_pool):
    """Per-document MAX, or log-mean-exp, of a batch's span scores."""
    mx = np.maximum.reduceat(spans, offsets)
    if not mean_pool:
        return mx
    scaled = np.exp(spans - np.repeat(mx, counts))
    return mx + np.log(np.add.reduceat(scaled, offsets) / counts)


def kernel_filter_scores_np(tokens, query_ids, bias_coeff, ms, taus, mean_pool, lengths):
    positions = match_positions(tokens, query_ids)
    out = np.empty((lengths.shape[0], ms.shape[0]), dtype=np.float64)
    for f in range(ms.shape[0]):
        m = int(ms[f])
        starts, ends, counts, offsets = span_grid(lengths, m, int(taus[f]))
        m_eff = lengths.astype(np.float64) if m <= 0 else float(m)
        wc = window_counts(positions, starts, ends)
        spans = _sum_terms(np.log(wc + bias_coeff[:, np.newaxis] * m_eff))
        out[:, f] = _pool_np(spans, counts, offsets, mean_pool)
    return out


def lm_span_scores_np(tokens, query_ids, background, one_minus_lam, m, tau, lengths):
    starts, ends, _, _ = span_grid(lengths, m, tau)
    wc = window_counts(match_positions(tokens, query_ids), starts, ends)
    n = (ends - starts).astype(np.float64)
    return _sum_terms(np.log(one_minus_lam * wc / n + background[:, np.newaxis]))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

USING_NUMBA = False

if not _numba_disabled():
    try:
        import numba
    except ImportError:  # pragma: no cover - environment without numba
        log.warning("numba unavailable, using the numpy kernel path")
    else:
        _jit = numba.njit(cache=True, nogil=True)
        # rebind in dependency order so lazy compilation sees jitted callees
        _match_counts = _jit(_match_counts)
        _pool = _jit(_pool)
        _doc_filter_scores = _jit(_doc_filter_scores)
        _doc_lm_span_scores = _jit(_doc_lm_span_scores)
        _kernel_filter_scores = _jit(_kernel_filter_scores)
        _lm_span_scores = _jit(_lm_span_scores)
        USING_NUMBA = True

if USING_NUMBA:
    _filter_impl = _kernel_filter_scores
    _lm_impl = _lm_span_scores
else:
    _filter_impl = kernel_filter_scores_np
    _lm_impl = lm_span_scores_np


def _batch_lengths(tokens, lengths):
    if lengths is None:
        lengths = np.array([tokens.shape[0]], dtype=np.int64)
    else:
        lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or np.any(lengths < 1) or lengths.sum() != tokens.shape[0]:
        raise ValueError(
            "document lengths must be >= 1 and sum to the number of tokens"
        )
    return lengths


def kernel_filter_scores(tokens, query_ids, bias_coeff, ms, taus, mean_pool, lengths=None):
    """(D, F) pooled log-kernel scores: one row per document of the batch,
    one column per window filter (ms[f], taus[f])."""
    return _filter_impl(tokens, query_ids, bias_coeff, ms, taus, mean_pool,
                        _batch_lengths(tokens, lengths))


def lm_span_scores(tokens, query_ids, background, one_minus_lam, m, tau, lengths=None):
    """Span LM scores of every document of the batch, concatenated in
    document order; ``span_layout`` gives where each document's spans
    start."""
    return _lm_impl(tokens, query_ids, background, one_minus_lam, m, tau,
                    _batch_lengths(tokens, lengths))


def backend_name() -> str:
    return "numba" if USING_NUMBA else "numpy"
