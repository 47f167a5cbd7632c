"""Window filters and the hot scoring kernel, batched per query.

One computation carries nearly all of the reranking cost: every span's
smoothed unigram LM score (eq. 1), the inner loop of every passage
ranker. ``kernel_filter_scores`` max-pools them per filter and
``lm_span_scores`` returns them unpooled. Each call scores one query's
candidates at once: their token ids concatenated into ``tokens`` and
their lengths in ``lengths`` (the CSR layout of the stored postings).

A window's matches of a query term are counted from the term's sorted
match positions, with two ``searchsorted`` calls over the spans of every
document, and each document keeps its best span score with ``reduceat``.
Every score, a span's here and a document's in ``retrieval.ql_scores``,
is eq. 1 through ``lm_scores``, per-term logs summed in query-term order:
a batch scores bitwise as one call per document does.

A window filter is a ``FilterSpec`` (m, tau), and the kernels take its
two ints. The whole document, label ``inf``, is the window m = tau =
``WHOLE`` = 2**62: no document outgrows it, so it is each document's
one span. A document's score under a filter is the MAX of its span
scores: its best passage.

Conventions: document and query tokens are int32 vocabulary ids, and
out-of-vocabulary query tokens are -1 (they never match a position).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WHOLE = 2**62  # m = tau of the whole-document filter: no document outgrows it

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
    return distinct_filters(parse_filter_label(p) for p in parts)


def distinct_filters(specs) -> tuple[FilterSpec, ...]:
    """``specs`` as a tuple; a filter listed twice is refused."""
    specs = tuple(specs)
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


def lm_scores(counts, n, background, one_minus_lam):
    """Eq. 1 of S texts: sum_i log(one_minus_lam * counts[i] / n +
    background[i]) over the (n_q, S) query-term counts, accumulated in
    query-term order; n holds the texts' lengths and background[i] folds
    the smoothing weight in."""
    acc = np.zeros(counts.shape[1], dtype=np.float64)
    for row, bg in zip(counts, background.tolist()):
        acc += np.log(one_minus_lam * row / n + bg)
    return acc


def _batch_lengths(tokens, lengths):
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or np.any(lengths < 1) or lengths.sum() != tokens.shape[0]:
        raise ValueError(
            "document lengths must be >= 1 and sum to the number of tokens"
        )
    return lengths


def _span_scores(positions, background, one_minus_lam, lengths, m, tau):
    """Span scores (``lm_scores`` of the window counts) of window (m, tau)
    over a batch, and each document's first span among them."""
    starts, ends, _, offsets = span_grid(lengths, m, tau)
    n = (ends - starts).astype(np.float64)
    return lm_scores(window_counts(positions, starts, ends), n, background,
                     one_minus_lam), offsets


def kernel_filter_scores(tokens, query_ids, background, ms, taus, one_minus_lam,
                         lengths):
    """(D, F) best-span scores: one row per document of the batch, one
    column per window filter (ms[f], taus[f])."""
    lengths = _batch_lengths(tokens, lengths)
    positions = match_positions(tokens, query_ids)
    out = np.empty((lengths.shape[0], ms.shape[0]), dtype=np.float64)
    for f in range(ms.shape[0]):
        spans, offsets = _span_scores(positions, background, one_minus_lam, lengths,
                                      int(ms[f]), int(taus[f]))
        out[:, f] = np.maximum.reduceat(spans, offsets)
    return out


def lm_span_scores(tokens, query_ids, background, one_minus_lam, m, tau, lengths):
    """Span scores of every document of the batch, concatenated in
    document order; ``span_layout`` gives where each document's spans
    start. No ranker calls it: it stays for the tests, and as a target
    the benchmark's tracer patches by name."""
    lengths = _batch_lengths(tokens, lengths)
    return _span_scores(match_positions(tokens, query_ids), background,
                        one_minus_lam, lengths, m, tau)[0]


def backend_name() -> str:
    """Name of the kernel implementation, as run records report it."""
    return "numpy"
