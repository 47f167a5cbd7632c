"""Readable reference implementations that only the tests call.

Each function here computes a quantity the package computes on a faster
path, written the direct way so the two can be compared.
"""

from __future__ import annotations

import math

import numpy as np

from passagerank.corpus import CorpusIndex, Document
from passagerank.evaluation import evaluate_run
from passagerank.features import HomogeneityScores
from passagerank.passages import FilterSpec, extract_passages


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


def homogeneity_pairwise(
    doc: Document | str, index: CorpusIndex, f: FilterSpec
) -> HomogeneityScores:
    """The four homogeneity scores, with h_intpsg averaged over every
    pair of dense span vectors and h_docpsg over every span."""
    if f.is_infinite:
        raise ValueError("homogeneity needs a finite passage filter")
    doc_id = doc if isinstance(doc, str) else doc.doc_id
    idx = index.doc_index(doc_id)
    tokens = index.doc_tokens(idx)
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
    return HomogeneityScores(h_length, h_ent, h_intpsg, h_docpsg)


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
