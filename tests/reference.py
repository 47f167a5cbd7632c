"""Readable reference implementations that only the tests call.

Each function here computes a quantity the package computes on a faster
path, written the direct way so the two can be compared: per-span LM
and kernel scorers over a query/document matching matrix, plain-Python
loop twins of the batched window kernels, single-document forms of the
batch scorers and of the homogeneity mix, and the pairwise homogeneity,
postings and Fisher references. It also holds the index helpers that
only tests need: a document rebuilt from the token store, and index
equality for the round-trip tests; and the regex tokenizer and
TRECTEXT reader that the find and translate ingest path must agree
with.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from passagerank import _accel
from passagerank.corpus import CorpusIndex, Document, Query, TokenizeConfig
from passagerank.evaluation import evaluate_run
from passagerank.features import FeatureExtractor, mean_top_scores
from passagerank.passages import (
    POOL_MAX,
    POOL_MEAN,
    WHOLE,
    FilterSpec,
    _filter_arrays,
    max_passage_lm,
    score_tokens,
)
from passagerank.retrieval import QueryContext, SmoothingConfig, rank_documents


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def tokenize_reference(raw_text: str, config: TokenizeConfig | None = None) -> list[str]:
    """Runs of ``[a-z0-9]`` in the lowercased text, stopwords dropped."""
    tokens = re.findall(r"[a-z0-9]+", raw_text.lower())
    stopwords = config.stopwords if config is not None else frozenset()
    return [t for t in tokens if t not in stopwords]


def trectext_reference(blob: bytes, config: TokenizeConfig | None = None,
                       text_tags: Sequence[str] = ("TEXT",)) -> list[Document]:
    """The documents of one TRECTEXT file, read by lazy regexes: a record
    is ``<DOC>...</DOC>`` (case-sensitive), its id the first
    ``<DOCNO>...</DOCNO>``, and its text every case-insensitive match of
    each tag in ``text_tags`` order, joined by spaces with markup
    replaced by a space."""
    docs = []
    for m in re.finditer(rb"<DOC>(.*?)</DOC>", blob, re.S):
        record = m.group(1).decode("utf-8")
        doc_id = re.search(r"<DOCNO>(.*?)</DOCNO>", record, re.S).group(1).strip()
        parts = []
        for tag in text_tags:
            t = re.escape(tag)
            parts.extend(re.findall(rf"<{t}>(.*?)</{t}>", record, re.S | re.I))
        raw = re.sub(r"<[^>]+>", " ", " ".join(parts))
        docs.append(Document(doc_id, tuple(tokenize_reference(raw, config))))
    return docs


# ---------------------------------------------------------------------------
# passages and the matching matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PassageSpan:
    """A span [start, start+length) within one document."""

    start: int
    length: int

    def __post_init__(self):
        if self.start < 0 or self.length < 1:
            raise ValueError(f"invalid span ({self.start}, {self.length})")


def window_of(f: FilterSpec) -> tuple[int, int]:
    """The (m, tau) that encode filter ``f`` in the kernels."""
    ms, taus = _filter_arrays([f])
    return int(ms[0]), int(taus[0])


def span_starts(n_d: int, m: int, tau: int) -> list[int]:
    """Starts of the spans of window (m, tau) over a document of length
    ``n_d``: i*tau while i*tau + m < n_d, then n_d - m; a document no
    longer than m is the one span from 0."""
    if n_d <= m:
        return [0]
    return [*range(0, n_d - m, tau), n_d - m]


def extract_passages(n_d: int, f: FilterSpec) -> list[PassageSpan]:
    """All spans of filter ``f`` over a document of length ``n_d``, each
    of length min(n_d, m); the whole-document filter yields (0, n_d)."""
    if n_d < 1:
        raise ValueError(f"document length must be >= 1, got {n_d}")
    m, tau = window_of(f)
    return [PassageSpan(start, min(n_d, m)) for start in span_starts(n_d, m, tau)]


class MatchingMatrix:
    """Binary query-term / document-position match matrix: entry (i, j) is
    1 iff query term i equals document term j. Stored as per-row sorted
    position lists, so a windowed row sum is a binary search."""

    def __init__(self, n_q: int, n_d: int, positions: list[np.ndarray]):
        self.n_q = n_q
        self.n_d = n_d
        self.positions = positions

    def row_tf(self, row: int) -> int:
        """Full-row sum: tf of query term ``row`` in the document."""
        return int(self.positions[self._check_row(row)].shape[0])

    def window_tf(self, row: int, start: int, length: int) -> int:
        """Number of matches in columns [start, min(start+length, n_d))."""
        pos = self.positions[self._check_row(row)]
        if not 0 <= start < self.n_d:
            raise ValueError(f"window start {start} outside document [0, {self.n_d})")
        if length < 1:
            raise ValueError(f"window length must be >= 1, got {length}")
        end = min(start + length, self.n_d)
        lo = np.searchsorted(pos, start, side="left")
        hi = np.searchsorted(pos, end, side="left")
        return int(hi - lo)

    def dense(self) -> np.ndarray:
        """Materialized (n_q, n_d) uint8 matrix."""
        out = np.zeros((self.n_q, self.n_d), dtype=np.uint8)
        for i, pos in enumerate(self.positions):
            out[i, pos] = 1
        return out

    def dump(self) -> str:
        """One line of 0/1 characters per query term."""
        return "\n".join("".join(str(v) for v in row) for row in self.dense())

    def _check_row(self, row: int) -> int:
        if not 0 <= row < self.n_q:
            raise IndexError(f"row {row} outside [0, {self.n_q})")
        return row


def build_matrix(q, d) -> MatchingMatrix:
    """The matching matrix of a (query, document) pair, given as the
    Query/Document dataclasses or as plain term sequences."""
    q_terms = getattr(q, "terms", q)
    d_terms = getattr(d, "terms", d)
    if len(q_terms) == 0:
        raise ValueError("query has no terms")
    if len(d_terms) == 0:
        raise ValueError("document has no terms")
    by_term: dict[str, list[int]] = {}
    for j, t in enumerate(d_terms):
        by_term.setdefault(t, []).append(j)
    positions = [
        np.array(by_term.get(t, ()), dtype=np.int64) for t in q_terms
    ]
    return MatchingMatrix(len(q_terms), len(d_terms), positions)


# ---------------------------------------------------------------------------
# per-span scorers
# ---------------------------------------------------------------------------


def kernel_bias(cf_t: int, m_eff: int, s: SmoothingConfig, total_len: int) -> float:
    """b_t: the additive bias folding the collection model into the kernel."""
    return s.lambda_c * m_eff * cf_t / ((1.0 - s.lambda_c) * total_len)


def kernel_lm_shift(n_q: int, m_eff: int, s: SmoothingConfig) -> float:
    """The constant separating kernel and LM scores on a span of length
    ``m_eff``."""
    return n_q * math.log(m_eff / (1.0 - s.lambda_c))


def lm_score(
    query: Query,
    span: PassageSpan,
    doc: Document,
    index: CorpusIndex,
    s: SmoothingConfig,
    floor: int = 1,
) -> float:
    """Smoothed log-likelihood of the query under the span's unigram
    model, with the span's actual length as n."""
    if span.start >= doc.n_d or span.start + span.length > doc.n_d:
        raise ValueError(f"span {span} does not fit document of length {doc.n_d}")
    counts = Counter(doc.terms[span.start : span.start + span.length])
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
    matrix: MatchingMatrix,
    index: CorpusIndex,
    s: SmoothingConfig,
    m_eff: int,
    floor: int = 1,
) -> float:
    """Logarithm-kernel span score: sum_t log(window_tf + b_t), with the
    bias b_t at window size ``m_eff`` (the span's length, for the
    identity with ``lm_score``)."""
    total = 0.0
    for i, t in enumerate(query.terms):
        wc = matrix.window_tf(i, span.start, span.length)
        b = kernel_bias(index.corpus_freq(t, floor), m_eff, s, index.total_len)
        if wc + b <= 0.0:
            raise ValueError(f"non-positive kernel argument for term {t!r}")
        total += math.log(wc + b)
    return total


def pool_document(scores: Sequence[float], strategy: str) -> float:
    """MAX, or MEAN as the log of the mean of exponentiated scores."""
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
# single-document forms of the batch scorers
# ---------------------------------------------------------------------------


def _one(tokens: np.ndarray) -> np.ndarray:
    return np.array([tokens.shape[0]], dtype=np.int64)


def score_batch(ctx: QueryContext, tokens: np.ndarray, filters, pooling: str,
                scale: str, lengths: np.ndarray) -> np.ndarray:
    """``score_tokens`` on the "lm" scale; on the "kernel" scale the raw
    pooled kernel scores it shifts."""
    if scale == "lm":
        return score_tokens(ctx, tokens, filters, pooling, lengths)
    ms, taus = _filter_arrays(filters)
    return _accel.kernel_filter_scores(tokens, ctx.ids, ctx.bias_coeff, ms, taus,
                                       pooling == POOL_MEAN, lengths)


def score_tokens_one(ctx: QueryContext, tokens: np.ndarray, filters, pooling: str,
                     scale: str) -> np.ndarray:
    """``score_batch`` of one document: one score per filter."""
    return score_batch(ctx, tokens, filters, pooling, scale, _one(tokens))[0]


def max_passage_lm_one(ctx: QueryContext, tokens: np.ndarray, m: int, tau: int) -> float:
    """``max_passage_lm`` of one document."""
    return float(max_passage_lm(ctx, tokens, m, tau, _one(tokens))[0])


def whole_doc_lm_one(ctx: QueryContext, tokens: np.ndarray) -> float:
    """Whole-document LM score of one document from the span kernel (a
    single span of the document's length), not from ``ql_scores``."""
    return float(_accel.lm_span_scores(
        tokens, ctx.ids, ctx.background, 1.0 - ctx.smoothing.lambda_c, WHOLE,
        WHOLE, _one(tokens),
    )[0])


def combine_homogeneous_one(h: float, lm_doc: float, lm_psg: float) -> float:
    """``combine_homogeneous`` of one document: log(h * P(q|d) +
    (1-h) * max_g P(q|g)), with exact h = 0 and h = 1 collapses."""
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"homogeneity must be in [0, 1], got {h}")
    if h == 0.0:
        return lm_psg
    if h == 1.0:
        return lm_doc
    return float(np.logaddexp(math.log(h) + lm_doc, math.log1p(-h) + lm_psg))


def score_vector(
    query: Query,
    doc: Document | str,
    filters: Sequence[FilterSpec],
    index: CorpusIndex,
    s: SmoothingConfig | None = None,
    pooling: str = POOL_MAX,
    scale: str = "kernel",
) -> np.ndarray:
    """Per-filter pooled scores of one candidate document, by id or
    Document, on the kernel or the LM scale."""
    s = s or SmoothingConfig()
    if len(filters) == 0:
        raise ValueError("at least one filter is required")
    if pooling not in (POOL_MAX, POOL_MEAN):
        raise ValueError(f"unknown pooling strategy {pooling!r}")
    if scale not in ("kernel", "lm"):
        raise ValueError(f"unknown score scale {scale!r}")
    ctx = QueryContext(query, index, s)
    doc_id = doc if isinstance(doc, str) else doc.doc_id
    tokens = index.doc_tokens(index.doc_index(doc_id))
    return score_tokens_one(ctx, tokens, filters, pooling, scale)


# ---------------------------------------------------------------------------
# loop twins of the batched window kernels
# ---------------------------------------------------------------------------


def match_counts(doc_tokens, query_ids):
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


def pool_loop(scores, mean_pool):
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


def doc_filter_scores(doc_tokens, query_ids, bias_coeff, ms, taus, mean_pool):
    """Pooled log-kernel score per window filter, for one document.

    Span score: sum_i log(window_count_i + bias_coeff[i] * n) with n the
    span's length.
    """
    n_d = doc_tokens.shape[0]
    n_q = query_ids.shape[0]
    cum = match_counts(doc_tokens, query_ids)
    out = np.empty(ms.shape[0], dtype=np.float64)
    for f in range(ms.shape[0]):
        width = min(n_d, int(ms[f]))
        starts = span_starts(n_d, int(ms[f]), int(taus[f]))
        spans = np.empty(len(starts), dtype=np.float64)
        for s, start in enumerate(starts):
            acc = 0.0
            for i in range(n_q):
                wc = cum[i, start + width] - cum[i, start]
                acc += np.log(wc + bias_coeff[i] * float(width))
            spans[s] = acc
        out[f] = pool_loop(spans, mean_pool)
    return out


def doc_lm_span_scores(doc_tokens, query_ids, background, one_minus_lam, m, tau):
    """Smoothed LM log-likelihood per span of one document, the span's
    length as n.

    Span score: sum_i log(one_minus_lam * window_count_i / n + background[i]);
    background[i] already folds the smoothing weight into the collection
    probability.
    """
    n_d = doc_tokens.shape[0]
    n_q = query_ids.shape[0]
    cum = match_counts(doc_tokens, query_ids)
    width = min(n_d, m)
    starts = span_starts(n_d, m, tau)
    out = np.empty(len(starts), dtype=np.float64)
    for s, start in enumerate(starts):
        acc = 0.0
        for i in range(n_q):
            wc = cum[i, start + width] - cum[i, start]
            acc += np.log(one_minus_lam * wc / float(width) + background[i])
        out[s] = acc
    return out


def kernel_filter_scores_loop(tokens, query_ids, bias_coeff, ms, taus, mean_pool,
                              lengths):
    """(D, F) pooled scores of a batch, one document at a time."""
    out = np.empty((lengths.shape[0], ms.shape[0]), dtype=np.float64)
    start = 0
    for d in range(lengths.shape[0]):
        end = start + lengths[d]
        out[d] = doc_filter_scores(
            tokens[start:end], query_ids, bias_coeff, ms, taus, mean_pool
        )
        start = end
    return out


def lm_span_scores_loop(tokens, query_ids, background, one_minus_lam, m, tau, lengths):
    """Span scores of a batch, concatenated, one document at a time."""
    out = []
    start = 0
    for d in range(lengths.shape[0]):
        end = start + lengths[d]
        out.append(doc_lm_span_scores(
            tokens[start:end], query_ids, background, one_minus_lam, m, tau
        ))
        start = end
    return np.concatenate(out) if out else np.empty(0, dtype=np.float64)


# ---------------------------------------------------------------------------
# features and training
# ---------------------------------------------------------------------------


def list_feature(
    query: Query,
    index: CorpusIndex,
    k: int = 2000,
    s: SmoothingConfig | None = None,
) -> float:
    """Mean whole-document QL log score of the top-min(k, |D|) documents."""
    ranked = rank_documents(query, index, s, top_k=k)
    return mean_top_scores([score for _, score in ranked], k)


def fuse_features(
    query: Query,
    doc: Document | str,
    index: CorpusIndex,
    hom_filter: FilterSpec | None = None,
    feature_set: str = "doc+query",
    list_score: float | None = None,
    floor: int = 1,
) -> np.ndarray:
    """One (query, document) fusion feature vector in documented order;
    ``list_score`` is required when query features are enabled."""
    extractor = FeatureExtractor(index, feature_set, hom_filter, floor)
    if extractor.with_query:
        if list_score is None:
            raise ValueError("query features need the query's list score")
    else:
        list_score = 0.0
    doc_id = doc if isinstance(doc, str) else doc.doc_id
    return extractor.matrix(query, [doc_id], list_score)[0]


def hinge_loss(s_pos: float, s_neg: float) -> float:
    """max(0, 1 - s_pos + s_neg)."""
    return max(0.0, 1.0 - s_pos + s_neg)


# ---------------------------------------------------------------------------
# homogeneity, postings, significance
# ---------------------------------------------------------------------------


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine with the zero-vector conventions: cos(0,0)=1, cos(0,x)=0."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return _clamp01(float(np.dot(a, b)) / (na * nb))


def homogeneity_pairwise(doc_id: str, index: CorpusIndex, f: FilterSpec) -> np.ndarray:
    """The four homogeneity scores (``HOMOGENEITY_KINDS`` order), with
    h_intpsg averaged over every pair of dense span vectors and h_docpsg
    over every span."""
    if f.is_infinite:
        raise ValueError("homogeneity needs a finite passage filter")
    tokens = index.doc_tokens(index.doc_index(doc_id))
    n_d = int(tokens.shape[0])

    if index.max_log_len == index.min_log_len:
        h_length = 1.0
    else:
        h_length = 1.0 - (math.log(n_d) - index.min_log_len) / (
            index.max_log_len - index.min_log_len
        )
    h_length = _clamp01(h_length)

    uniq, inv, counts = np.unique(tokens, return_inverse=True, return_counts=True)
    if n_d == 1:
        h_ent = 1.0
    else:
        p = counts / n_d
        entropy = float(-(p * np.log(p)).sum())
        h_ent = _clamp01(1.0 - entropy / math.log(n_d))

    idf = np.log(index.num_docs / index.df[uniq])
    doc_vec = counts * idf
    spans = extract_passages(n_d, f)
    span_vecs = np.empty((len(spans), uniq.shape[0]), dtype=np.float64)
    for k, sp in enumerate(spans):
        tf = np.bincount(
            inv[sp.start : sp.start + sp.length], minlength=uniq.shape[0]
        )
        span_vecs[k] = tf * idf

    if len(spans) < 2:
        h_intpsg = 1.0
    else:
        total = 0.0
        pairs = 0
        for i in range(len(spans)):
            for j in range(i + 1, len(spans)):
                total += _cosine(span_vecs[i], span_vecs[j])
                pairs += 1
        h_intpsg = _clamp01(total / pairs)

    h_docpsg = _clamp01(
        sum(_cosine(doc_vec, span_vecs[k]) for k in range(len(spans))) / len(spans)
    )
    return np.array([h_length, h_ent, h_intpsg, h_docpsg], dtype=np.float64)


def index_document(index: CorpusIndex, doc_id: str) -> Document:
    """Document ``doc_id`` rebuilt from the index's token store."""
    tokens = index.doc_tokens(index.doc_index(doc_id))
    return Document(doc_id, tuple(index.vocab[t] for t in tokens))


def same_index(a: CorpusIndex, b: CorpusIndex) -> bool:
    """Whether two indexes hold the same vocabulary, documents, statistics,
    tokens and postings."""
    return (
        a.vocab == b.vocab
        and a.doc_ids == b.doc_ids
        and all(np.array_equal(getattr(a, name), getattr(b, name))
                for name in ("cf", "df", "doc_len", "tokens", "postings_docs",
                             "postings_tf"))
    )


def postings_reference(index: CorpusIndex) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per term id: (document indices, within-document tf), collected by
    walking every document's distinct terms in index order."""
    entries: list[tuple[list[int], list[int]]] = [([], []) for _ in index.vocab]
    for i in range(index.num_docs):
        ids, counts = np.unique(index.doc_tokens(i), return_counts=True)
        for tid, c in zip(ids.tolist(), counts.tolist()):
            entries[tid][0].append(i)
            entries[tid][1].append(c)
    return [(np.array(d, dtype=np.int64), np.array(c, dtype=np.int64))
            for d, c in entries]


def fisher_sampled_reference(run_a, run_b, qrels, metric: str, permutations: int,
                             seed: int) -> float:
    """Sampled paired randomization p-value, drawing the sign patterns in
    chunks of 65536 rows."""
    ma = evaluate_run(run_a, qrels).per_query
    mb = evaluate_run(run_b, qrels).per_query
    diffs = np.array([ma[q][metric] - mb[q][metric] for q in sorted(set(ma) & set(mb))])
    observed = abs(diffs.mean())
    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, permutations, 65536):
        chunk = min(permutations - start, 65536)
        signs = rng.integers(0, 2, size=(chunk, diffs.size)) * 2 - 1
        hits += int((np.abs((signs * diffs).mean(axis=1)) >= observed).sum())
    return (1 + hits) / (1 + permutations)


def fisher_exhaustive_reference(run_a, run_b, qrels, metric: str) -> float:
    """Exhaustive paired randomization p-value, one sign pattern at a time
    from ``itertools.product``. Each pattern's mean is ``np.mean`` of a
    1-D array, the summation the package applies to each row, so a
    statistic tied with the observed one compares equal in both."""
    ma = evaluate_run(run_a, qrels).per_query
    mb = evaluate_run(run_b, qrels).per_query
    diffs = [ma[q][metric] - mb[q][metric] for q in sorted(set(ma) & set(mb))]
    observed = abs(np.mean(diffs))
    hits = sum(abs(np.mean([s * d for s, d in zip(signs, diffs)])) >= observed
               for signs in itertools.product((1, -1), repeat=len(diffs)))
    return (1 + hits) / (1 + 2 ** len(diffs))
