"""Fusion features: document homogeneity, query statistics, list feature.

Three groups feed the fusion layer:

* four document-homogeneity scores in [0,1]: a length score normalized
  by the corpus log-length extrema, a term-entropy score, and two
  tf-idf cosine scores (mean pairwise passage similarity, mean
  document-passage similarity);
* eight summary statistics (sum, population std, max/min ratio, max,
  arithmetic/geometric/harmonic means, coefficient of variation) over
  each of three per-term bases: IDF, the negated ICF magnitude, and
  SCQ - 24 values;
* the list feature: mean whole-document query likelihood of the top
  retrieved documents.

Column order is fixed and documented by ``feature_names``; exports and
model files carry the names so a vector is never interpreted against
the wrong layout.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._accel import span_grid
from .corpus import CorpusIndex, Query
from .evaluation import write_table

if TYPE_CHECKING:  # passages imports this module
    from .passages import FilterSpec

HOMOGENEITY_KINDS = ("length", "ent", "intpsg", "docpsg")
HOMOGENEITY_NAMES = tuple(f"h_{kind}" for kind in HOMOGENEITY_KINDS)
QUERY_STAT_NAMES = ("sum", "std", "max_min_ratio", "max", "amean", "gmean", "hmean", "cv")
QUERY_BASE_NAMES = ("idf", "nicf", "scq")
LIST_FEATURE_NAME = "list_mean"
FEATURE_SETS = ("doc", "query", "doc+query")

_POSITIVE_FLOOR = 1e-12


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def homogeneity(doc_id: str, index: CorpusIndex, f: FilterSpec,
                kinds: tuple[str, ...] = HOMOGENEITY_KINDS) -> np.ndarray:
    """The homogeneity scores ``kinds`` of one indexed document, a
    float64 row in ``kinds`` order; ``cached_homogeneity`` keeps one row
    per (document, filter, kinds).

    A kind costs only its own work: length is closed-form in the length
    n_d, ent takes one ``np.unique`` of the tokens, and only intpsg and
    docpsg build the tf-idf span vectors (docpsg also the document
    vector). The passage-based scores use filter ``f``'s spans
    (``_accel.span_grid``); tf-idf weights are tf * ln(|D| / D_t).
    Degenerate cases: a corpus where every document has the same length
    gives h_length = 1; a single-token document gives h_ent = 1; fewer
    than two passages give h_intpsg = 1; cosines follow cos(0,0)=1,
    cos(0,x)=0. Span vectors are non-negative, so for the unit vectors
    u_k of the n non-zero spans and z zero spans the pairwise cosines
    sum to (||sum_k u_k||^2 - n)/2 + z(z-1)/2: O(n_d * m / tau) work.
    """
    if f.is_infinite:
        raise ValueError("homogeneity needs a finite passage filter")
    if not kinds or not set(kinds) <= set(HOMOGENEITY_KINDS):
        raise ValueError(f"homogeneity kinds must be drawn from "
                         f"{HOMOGENEITY_KINDS}, got {kinds!r}")
    tokens = index.doc_tokens(index.doc_index(doc_id))
    n_d = int(tokens.shape[0])
    h: dict[str, float] = {}

    if "length" in kinds:
        lo, hi = index.min_log_len, index.max_log_len
        h["length"] = 1.0 if hi == lo else _clamp01(1.0 - (math.log(n_d) - lo) / (hi - lo))

    with_spans = "intpsg" in kinds or "docpsg" in kinds
    if with_spans:
        uniq, inv, counts = np.unique(tokens, return_inverse=True, return_counts=True)
    elif "ent" in kinds:
        uniq, counts = np.unique(tokens, return_counts=True)

    if "ent" in kinds:
        p = counts / n_d
        entropy = float(-(p * np.log(p)).sum())
        h["ent"] = 1.0 if n_d == 1 else _clamp01(1.0 - entropy / math.log(n_d))

    if with_spans:
        idf = np.log(index.num_docs / index.df[uniq])
        starts = span_grid(np.array([n_d]), f.m, f.tau)[0]
        n_spans, width = starts.shape[0], min(n_d, f.m)
        # the (span, term) key of every token of every span
        keys = (np.repeat(np.arange(n_spans), width) * len(uniq)
                + inv[(starts[:, np.newaxis] + np.arange(width)).ravel()])
        keys, tf = np.unique(keys, return_counts=True)
        span_of, term_of = np.divmod(keys, len(uniq))
        w = tf * idf[term_of]
        norm = np.sqrt(np.bincount(span_of, w * w, n_spans))
        nonzero = norm > 0.0
        norm[~nonzero] = 1.0
        z = n_spans - int(nonzero.sum())

    if "intpsg" in kinds:
        if n_spans < 2:
            h["intpsg"] = 1.0
        else:
            u_sum = np.bincount(term_of, w / norm[span_of], len(uniq))
            pair_sum = (float(u_sum @ u_sum) - (n_spans - z)) / 2 + z * (z - 1) / 2
            h["intpsg"] = _clamp01(pair_sum / (n_spans * (n_spans - 1) / 2))

    if "docpsg" in kinds:
        doc_vec = counts * idf
        dot = np.bincount(span_of, w * doc_vec[term_of], n_spans)
        doc_norm = float(np.linalg.norm(doc_vec)) or 1.0  # zero only with all spans zero
        cos = np.where(nonzero, np.clip(dot / (doc_norm * norm), 0.0, 1.0),
                       float(z == n_spans))
        h["docpsg"] = _clamp01(float(cos.sum()) / n_spans)
    return np.array([h[kind] for kind in kinds], dtype=np.float64)


def cached_homogeneity(doc_id: str, index: CorpusIndex, f: FilterSpec,
                       kinds: tuple[str, ...] = HOMOGENEITY_KINDS) -> np.ndarray:
    """``homogeneity``, computed once per (document, filter, kinds) for
    the lifetime of ``index``; do not mutate the returned row. The key
    holds the filter's window and stride, not the dataclass, whose hash
    runs Python code on every lookup."""
    key = (doc_id, f.m, f.tau, kinds)
    row = index.homogeneity_rows.get(key)
    if row is None:
        row = index.homogeneity_rows[key] = homogeneity(doc_id, index, f, kinds)
    return row


# ---------------------------------------------------------------------------
# query-side features
# ---------------------------------------------------------------------------


def summary_stats(values: Sequence[float]) -> np.ndarray:
    """The eight summary statistics over a non-empty value list.

    Values are expected non-negative; the ratio, geometric, and harmonic
    statistics are computed on values floored at 1e-12 so an all-zero
    base (possible only in a degenerate single-term corpus) stays
    finite.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot summarize an empty value list")
    amean = float(v.mean())
    std = float(v.std())
    pos = np.maximum(v, _POSITIVE_FLOOR)
    return np.array(
        [
            float(v.sum()),
            std,
            float(pos.max() / pos.min()),
            float(v.max()),
            amean,
            float(np.exp(np.log(pos).mean())),
            float(pos.size / (1.0 / pos).sum()),
            std / amean if amean != 0.0 else 0.0,
        ],
        dtype=np.float64,
    )


def query_features(query: Query, index: CorpusIndex, floor: int = 1) -> np.ndarray:
    """24-value block: summary stats of IDF, -ICF, and SCQ per query term.

    Statistics run over the query's token sequence (duplicates counted).
    cf and D_t are floored at max(floor, 1): these formulas need strictly
    positive counts regardless of the scoring-time OOV policy.
    """
    eff_floor = max(int(floor), 1)
    n_docs = index.num_docs
    idf = np.empty(query.n_q, dtype=np.float64)
    nicf = np.empty(query.n_q, dtype=np.float64)
    scq = np.empty(query.n_q, dtype=np.float64)
    for i, t in enumerate(query.terms):
        cf_t = index.corpus_freq(t, eff_floor)
        df_t = index.doc_freq(t, eff_floor)
        idf[i] = math.log((n_docs + 0.5) / df_t) / (n_docs + 1)
        nicf[i] = -math.log(cf_t / index.total_len)
        scq[i] = (1.0 + math.log(cf_t)) * math.log(1.0 + n_docs / df_t)
    return np.concatenate([summary_stats(idf), summary_stats(nicf), summary_stats(scq)])


def mean_top_scores(scores: Sequence[float], k: int = 2000) -> float:
    """Mean of the top-min(k, len) values; the list feature over a run."""
    if len(scores) == 0:
        raise ValueError("list feature needs at least one retrieved document")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    arr = np.sort(np.asarray(scores, dtype=np.float64))[::-1][: min(k, len(scores))]
    return float(arr.mean())


# ---------------------------------------------------------------------------
# fusion feature vectors
# ---------------------------------------------------------------------------


def feature_names(feature_set: str) -> tuple[str, ...]:
    """The documented column order for a feature-set toggle."""
    if feature_set not in FEATURE_SETS:
        raise ValueError(f"unknown feature set {feature_set!r}")
    names: list[str] = []
    if feature_set in ("doc", "doc+query"):
        names.extend(HOMOGENEITY_NAMES)
    if feature_set in ("query", "doc+query"):
        names.extend(
            f"{base}_{stat}" for base in QUERY_BASE_NAMES for stat in QUERY_STAT_NAMES
        )
        names.append(LIST_FEATURE_NAME)
    return tuple(names)


class FeatureExtractor:
    """Assembles fusion feature vectors.

    Homogeneity scores depend only on the document and come from the
    index's cache (``cached_homogeneity``); the query block and list
    feature are computed once per query and broadcast over its
    candidates.
    """

    def __init__(
        self,
        index: CorpusIndex,
        feature_set: str = "doc+query",
        hom_filter: FilterSpec | None = None,
        floor: int = 1,
    ):
        self.names = feature_names(feature_set)  # rejects an unknown set
        self.index = index
        self.feature_set = feature_set
        self.with_doc = feature_set in ("doc", "doc+query")
        self.with_query = feature_set in ("query", "doc+query")
        if self.with_doc:
            if hom_filter is None or hom_filter.is_infinite:
                raise ValueError(
                    "document homogeneity features need a finite passage filter"
                )
        self.hom_filter = hom_filter
        self.floor = floor

    def doc_block(self, doc_id: str) -> np.ndarray:
        return cached_homogeneity(doc_id, self.index, self.hom_filter)

    def query_block(self, query: Query, list_score: float) -> np.ndarray:
        block = query_features(query, self.index, self.floor)
        return np.concatenate([block, [float(list_score)]])

    def matrix(
        self, query: Query, doc_ids: Sequence[str], list_score: float
    ) -> np.ndarray:
        """Feature matrix for one query's candidate list, rows per doc."""
        n = len(doc_ids)
        cols: list[np.ndarray] = []
        if self.with_doc:
            doc_part = np.empty((n, len(HOMOGENEITY_NAMES)), dtype=np.float64)
            for r, doc_id in enumerate(doc_ids):
                doc_part[r] = self.doc_block(doc_id)
            cols.append(doc_part)
        if self.with_query:
            qb = self.query_block(query, list_score)
            cols.append(np.broadcast_to(qb, (n, qb.shape[0])))
        return np.hstack(cols) if len(cols) > 1 else np.array(cols[0], dtype=np.float64)


def write_feature_matrix(
    path,
    names: Sequence[str],
    rows: Sequence[tuple[str, str, np.ndarray]],
) -> None:
    """Export feature vectors as a TSV matrix (documented column order)."""
    for qid, doc_id, vec in rows:
        if len(vec) != len(names):
            raise ValueError(
                f"feature vector for ({qid}, {doc_id}) has {len(vec)} "
                f"dimensions, expected {len(names)}"
            )
    write_table(path, ["query_id", "doc_id", *names],
                ([qid, doc_id, *(format(float(x), ".12g") for x in vec)]
                 for qid, doc_id, vec in rows),
                delimiter="\t")
