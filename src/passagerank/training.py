"""Pairwise hinge training of the fusion layer, with cross-validation.

The per-filter kernels are fixed, so candidate score vectors r and
feature vectors h are precomputed once; training only fits the fusion
parameters (W, b). Optimization is mini-batch SGD on the pairwise hinge
loss max(0, 1 - s_pos + s_neg) over sampled (query, relevant,
non-relevant) triples, with early stopping on validation MAP and
best-epoch restoration. Every stochastic choice (fold split, triple
sampling, initialization, epoch shuffles) derives from one seed, so a
rerun reproduces parameters bit-for-bit.

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
from .fusion import AffineNorm, FusionModel, forward_parts, linear_rows

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    batch_size: int = 64
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    negatives_per_positive: int = 5
    folds: int = 5

    def __post_init__(self):
        if not self.learning_rate >= 0:  # NaN too
            raise ValueError("learning_rate must be >= 0")
        for name in ("batch_size", "max_epochs", "patience",
                     "negatives_per_positive"):
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

    For each relevant candidate, negatives are drawn uniformly without
    replacement (all of them when fewer than requested exist). Every
    query yields triples: a ``CandidateSet`` holds both kinds.
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


def train_fold(
    candidates: Mapping[str, CandidateSet],
    train_qids: Sequence[str],
    val_qids: Sequence[str],
    config: TrainConfig,
    rng: np.random.Generator,
    model_meta: dict,
    filters,
    feature_names: Sequence[str],
) -> tuple[FusionModel, list[tuple[int, float, float]]]:
    """SGD with early stopping on one train/validation split.

    Returns the best-epoch model and the per-epoch log rows
    (epoch, mean train loss, validation MAP); epoch 0 is the untouched
    initialization, which best-epoch restoration also considers.
    """
    if not train_qids or not val_qids:
        raise ValueError("train_fold needs training and validation queries")
    alpha = len(filters)
    beta = len(feature_names)
    order = sorted(train_qids)
    train_R = np.vstack([candidates[q].R for q in order])
    train_H = np.vstack([candidates[q].H for q in order])
    score_norm = AffineNorm.fit(train_R)
    feature_norm = AffineNorm.fit(train_H)

    triples = sample_triples(
        candidates, train_qids, config.negatives_per_positive, rng
    )
    # each triple's rows in the stacked training matrices; normalization
    # is elementwise, so one gather per side equals normalizing per query
    start = dict(zip(order, np.cumsum([0] + [len(candidates[q].doc_ids)
                                             for q in order]).tolist()))
    pos, neg = np.array([(start[q] + p, start[q] + n) for q, p, n in triples]).T
    R_norm, H_norm = score_norm.apply(train_R), feature_norm.apply(train_H)
    Rp, Hp, Rn, Hn = R_norm[pos], H_norm[pos], R_norm[neg], H_norm[neg]
    n_triples = len(triples)
    log.info("fold training on %d triples from %d queries", n_triples, len(order))

    W = rng.uniform(-0.1, 0.1, size=(alpha, beta))
    b = 0.0

    def mean_loss(W_, b_) -> float:
        sp, _, _, _ = forward_parts(W_, b_, Rp, Hp)
        sn, _, _, _ = forward_parts(W_, b_, Rn, Hn)
        return float(np.maximum(0.0, 1.0 - sp + sn).mean())

    # each validation query's rows are normalized and its judgments built
    # once; the linear score orders as tanh does but never saturates
    val = []
    for q in sorted(val_qids):
        cs = candidates[q]
        val.append((cs.doc_ids, score_norm.apply(cs.R), feature_norm.apply(cs.H),
                    {d: 1 for d, r in zip(cs.doc_ids, cs.rel) if r}))

    def val_map(W_, b_) -> float:
        aps = []
        for docs, R, H, grades in val:
            ranking = rank_by_score(docs, linear_rows(W_, b_, R, H))
            aps.append(average_precision([d for d, _ in ranking], grades))
        return float(np.mean(aps))

    rows: list[tuple[int, float, float]] = [(0, mean_loss(W, b), val_map(W, b))]
    best = (rows[0][2], 0, W.copy(), b)
    since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n_triples)
        epoch_loss = 0.0
        for lo in range(0, n_triples, config.batch_size):
            sel = perm[lo : lo + config.batch_size]
            bs = sel.shape[0]
            sp, _, Cp, dBp = forward_parts(W, b, Rp[sel], Hp[sel])
            sn, _, Cn, dBn = forward_parts(W, b, Rn[sel], Hn[sel])
            margins = 1.0 - sp + sn
            epoch_loss += float(np.maximum(0.0, margins).sum())
            active = (margins > 0.0).astype(np.float64)
            # d loss / d s_pos = -1, d loss / d s_neg = +1 on active triples
            dW = ((Cn * active[:, np.newaxis]).T @ Hn[sel]
                  - (Cp * active[:, np.newaxis]).T @ Hp[sel]) / bs
            db = float((active * (dBn - dBp)).sum()) / bs
            W -= config.learning_rate * dW
            b -= config.learning_rate * db
        loss = epoch_loss / n_triples
        if not np.isfinite(loss) or not np.isfinite(W).all():
            raise RuntimeError(
                f"training diverged at epoch {epoch} (loss={loss}); "
                f"lower the learning rate"
            )
        vm = val_map(W, b)
        rows.append((epoch, loss, vm))
        if vm > best[0]:
            best = (vm, epoch, W.copy(), b)
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                log.info("early stop at epoch %d (best epoch %d, val MAP %.4f)",
                         epoch, best[1], best[0])
                break
    if best[1] == 0:
        log.warning("no epoch beat the initial validation MAP %.4f; the saved "
                    "model is the random initialization", best[0])

    model = FusionModel(
        filters=filters,
        feature_names=feature_names,
        W=best[2],
        b=best[3],
        score_norm=score_norm,
        feature_norm=feature_norm,
        meta=dict(model_meta, best_epoch=best[1], best_val_map=best[0]),
    )
    return model, rows


def train(
    candidates: Mapping[str, CandidateSet],
    config: TrainConfig,
    model_meta: dict,
    filters,
    feature_names: Sequence[str],
    untrained: Sequence[str] = (),
) -> list[FoldResult]:
    """Cross-validated training: one FusionModel per fold.

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
        train_qids = [
            q for q in qids if fold_of[q] != fold and fold_of[q] != val_fold
        ]
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, fold]))
        model, rows = train_fold(
            candidates, train_qids, val_qids, config, rng,
            dict(model_meta, fold=fold), filters, feature_names,
        )
        results.append(FoldResult(fold, model, rows, train_qids, val_qids,
                                  test_qids))
    return results
