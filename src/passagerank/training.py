"""Pairwise hinge training of the fusion layer, with cross-validation.

The per-filter kernels are fixed, so candidate score vectors r and
feature vectors h are precomputed once; training only fits the fusion
parameters (W, b), by full-batch descent from W = 0, the uniform gate,
on the pairwise hinge max(0, 1 - s_pos + s_neg) over every (relevant,
non-relevant) pair (Joachims, KDD 2002), counted by sorting (Joachims,
KDD 2006). One epoch is one backtracking (Armijo) step; early stopping
keeps the epoch with the best (validation MAP, -validation hinge).
Nothing is random but the fold split, so a rerun is bit-for-bit.

Fold protocol: queries are shuffled once and split into k near-equal
folds; fold i is the test set, fold (i+1) mod k the validation set for
early stopping, and the rest train. A query that cannot train (no
relevant or no non-relevant candidate) is in no training or validation
set; a shuffle of those queries alone deals each a test fold, so the
split of the others does not depend on them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Query
from .evaluation import average_precision, rank_by_score
from .features import ScoreSettings
from .fusion import AffineNorm, FusionModel, forward_parts, linear_rows

log = logging.getLogger(__name__)


# a step is accepted when the loss falls by _ARMIJO x step x |gradient|^2
_FIRST_STEP, _ARMIJO, _MAX_HALVINGS = 1.0, 0.5, 30


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    folds: int = 5

    def __post_init__(self):
        for name in ("max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.folds < 3:
            raise ValueError("folds must be >= 3: every fold needs a test, "
                             "a validation and a training fold")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class CandidateSet:
    """One query's candidate pool with precomputed scores and features."""

    query: Query
    doc_ids: list[str]
    R: np.ndarray  # (n, alpha) raw per-filter scores
    H: np.ndarray  # (n, beta) raw feature vectors
    rel: np.ndarray  # (n,) bool, judged relevant

    def __post_init__(self):
        n, qid = len(self.doc_ids), self.query.query_id
        if self.R.shape[0] != n or self.H.shape[0] != n or self.rel.shape[0] != n:
            raise ValueError(f"candidate arrays for query {qid!r} disagree on length")
        if self.rel.all() or not self.rel.any():
            raise ValueError(f"query {qid!r} has no "
                             f"{'non-relevant' if self.rel.any() else 'relevant'} "
                             f"candidates; its pool cannot train or validate")


@dataclass
class FoldResult:
    fold: int
    model: FusionModel
    log_rows: list[tuple[int, float, float]]  # (epoch, mean_loss, val_map)
    train_qids: list[str]
    val_qids: list[str]
    test_qids: list[str]


def deal_folds(query_ids: Sequence[str], k: int, seed: int,
               stream: int = 0x0F01D5) -> dict[str, int]:
    """Shuffle the sorted queries under (seed, stream) and deal them to
    folds 0..k-1 in turn."""
    qids = sorted(query_ids)
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    return {qids[idx]: pos % k for pos, idx in enumerate(rng.permutation(len(qids)))}


def make_folds(query_ids: Sequence[str], k: int = 5, seed: int = 0) -> dict[str, int]:
    """Shuffle queries under the seed and split into k near-equal folds."""
    if len(query_ids) != len(set(query_ids)):
        raise ValueError("duplicate query ids in fold assignment")
    if len(query_ids) < k:
        raise ValueError(f"need at least {k} queries for {k}-fold splits, "
                         f"got {len(query_ids)}")
    return deal_folds(query_ids, k, seed)


def sample_triples(
    candidates: Mapping[str, CandidateSet],
    qids: Sequence[str],
    negatives_per_positive: int,
    rng: np.random.Generator,
) -> list[tuple[str, int, int]]:
    """(query_id, pos_index, neg_index) triples over the given queries.

    Training calls no sampler; the benchmark's tracer still counts this
    one by name. For each relevant candidate, negatives are drawn
    uniformly without replacement (all of them when fewer than requested
    exist). Every query yields triples: a ``CandidateSet`` holds both
    kinds.
    """
    triples: list[tuple[str, int, int]] = []
    for qid in sorted(qids):
        cs = candidates[qid]
        neg_idx = np.flatnonzero(~cs.rel)
        take = min(negatives_per_positive, neg_idx.size)
        for p in np.flatnonzero(cs.rel):
            negs = rng.choice(neg_idx, size=take, replace=False)
            for n in negs:
                triples.append((qid, int(p), int(n)))
    return triples


def pair_hinge(s: np.ndarray, groups) -> tuple[float, np.ndarray]:
    """The pairwise hinge over ``groups``, one (relevant rows, non-relevant
    rows, weight) per query, and its gradient in each score of ``s``: each
    query adds ``weight`` times 1 - s[p] + s[n] over its active pairs,
    those with s[n] > s[p] - 1, which one sort and one ``searchsorted``
    per class count for every score."""
    loss, grad = 0.0, np.zeros_like(s)
    for pos, neg, weight in groups:
        limit, sn = s[pos] - 1.0, s[neg]
        # per relevant row, its non-relevant rows above the limit;
        # per non-relevant row, the relevant rows whose limit it exceeds
        above = sn.size - np.searchsorted(np.sort(sn), limit, side="right")
        below = np.searchsorted(np.sort(limit), sn, side="left")
        loss += weight * float(below @ sn - above @ limit)
        grad[pos] = -weight * above
        grad[neg] = weight * below
    return loss, grad


def _stack(candidates: Mapping[str, CandidateSet], qids: Sequence[str]):
    """The sorted queries' raw R and H rows, stacked, and each query's
    rows as ``pair_hinge`` groups."""
    order = sorted(qids)
    groups, start = [], 0
    for q in order:
        rel = candidates[q].rel
        pos, neg = np.flatnonzero(rel) + start, np.flatnonzero(~rel) + start
        groups.append((pos, neg, 1.0 / (len(order) * pos.size * neg.size)))
        start += rel.size
    return (order, np.vstack([candidates[q].R for q in order]),
            np.vstack([candidates[q].H for q in order]), groups)


def train_fold(
    candidates: Mapping[str, CandidateSet],
    train_qids: Sequence[str],
    val_qids: Sequence[str],
    config: TrainConfig,
    model_meta: dict,
    settings: ScoreSettings,
) -> tuple[FusionModel, list[tuple[int, float, float]]]:
    """Full-batch descent with early stopping on one train/validation split.

    Returns the best-epoch model over ``settings`` and the per-epoch log
    rows (epoch, train pair hinge, validation MAP); epoch 0 is the uniform
    gate W = 0, b = 0, which best-epoch restoration also considers.
    """
    if not train_qids or not val_qids:
        raise ValueError("train_fold needs training and validation queries")
    _, train_R, train_H, groups = _stack(candidates, train_qids)
    score_norm = AffineNorm.fit(train_R)
    feature_norm = AffineNorm.fit(train_H)
    R, H = score_norm.apply(train_R), feature_norm.apply(train_H)
    log.info("fold training on %d pairs from %d queries",
             sum(pos.size * neg.size for pos, neg, _ in groups), len(groups))

    # the validation rows are normalized and their judgments built once;
    # the linear score orders as tanh does but never saturates
    val_order, val_R, val_H, val_groups = _stack(candidates, val_qids)
    val_R, val_H = score_norm.apply(val_R), feature_norm.apply(val_H)
    val_docs = [(candidates[q].doc_ids, {d: 1 for d, r in zip(candidates[q].doc_ids,
                                                              candidates[q].rel) if r})
                for q in val_order]
    ends = np.cumsum([len(docs) for docs, _ in val_docs]).tolist()

    def validate(W_, b_) -> tuple[float, float]:
        """(validation MAP, -validation pair hinge): higher is better."""
        lin = linear_rows(W_, b_, val_R, val_H)
        aps = [average_precision([d for d, _ in rank_by_score(docs, lin[e - len(docs):e])],
                                 grades)
               for (docs, grades), e in zip(val_docs, ends)]
        return float(np.mean(aps)), -pair_hinge(np.tanh(lin), val_groups)[0]

    def at(W_, b_):
        """The train pair hinge at (W_, b_), its gradient in each score, and
        the coefficients that turn that into the gradient in W and b."""
        s, _, C, dB = forward_parts(W_, b_, R, H)
        return (*pair_hinge(s, groups), C, dB)

    W, b, step = np.zeros((R.shape[1], H.shape[1])), 0.0, _FIRST_STEP
    point, score = at(W, b), validate(W, b)
    rows, best = [(0, point[0], score[0])], (score, 0, W, b)
    for epoch in range(1, config.max_epochs + 1):
        loss, grad, C, dB = point
        dW, db = (C * grad[:, np.newaxis]).T @ H, float(grad @ dB)
        norm2 = float((dW * dW).sum()) + db * db
        if norm2 == 0.0:
            log.info("zero gradient at epoch %d", epoch)
            break
        # a trial is one forward pass; only an accepted one gets dW and db
        for _ in range(_MAX_HALVINGS):
            trial = (W - step * dW, b - step * db)
            point = at(*trial)
            if point[0] <= loss - _ARMIJO * step * norm2:
                break
            step /= 2
        else:
            log.info("no descent step at epoch %d", epoch)
            break
        (W, b), step = trial, step * 2
        score = validate(W, b)
        rows.append((epoch, point[0], score[0]))
        if score > best[0]:
            best = (score, epoch, W, b)
        elif epoch - best[1] >= config.patience:
            log.info("early stop at epoch %d (best epoch %d, val MAP %.4f)",
                     epoch, best[1], best[0][0])
            break
    if best[1] == 0:
        log.warning("no epoch beat the initial validation score (MAP %.4f); the "
                    "saved model is the uniform gate", best[0][0])

    return FusionModel(settings, best[2], best[3], score_norm, feature_norm,
                       dict(model_meta, best_epoch=best[1], best_val_map=best[0][0])), rows


def train(
    candidates: Mapping[str, CandidateSet],
    config: TrainConfig,
    model_meta: dict,
    settings: ScoreSettings,
    untrained: Sequence[str] = (),
) -> list[FoldResult]:
    """Cross-validated training: one FusionModel over ``settings`` per fold.

    The query->fold assignment is ``make_folds`` under the config's fold
    count and seed. For fold i the validation fold is (i+1) mod k. Each
    query of ``untrained`` only joins the test queries of the fold that
    ``deal_folds`` gives it on its own stream.
    """
    qids = sorted(candidates)
    fold_of = make_folds(qids, config.folds, config.seed)
    k = config.folds
    held_out = deal_folds(untrained, k, config.seed, stream=0x0D5D01D)
    results: list[FoldResult] = []
    for fold in range(k):
        val_fold = (fold + 1) % k
        test_qids = sorted([q for q in qids if fold_of[q] == fold]
                           + [q for q in held_out if held_out[q] == fold])
        val_qids = [q for q in qids if fold_of[q] == val_fold]
        train_qids = [q for q in qids if fold_of[q] not in (fold, val_fold)]
        model, rows = train_fold(candidates, train_qids, val_qids, config,
                                 dict(model_meta, fold=fold), settings)
        results.append(FoldResult(fold, model, rows, train_qids, val_qids,
                                  test_qids))
    return results
