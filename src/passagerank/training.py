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
early stopping, and the rest train.
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


@dataclass
class CandidateSet:
    """One query's candidate pool with precomputed scores and features."""

    query: Query
    doc_ids: list[str]
    R: np.ndarray  # (n, alpha) raw per-filter scores
    H: np.ndarray  # (n, beta) raw feature vectors
    rel: np.ndarray  # (n,) bool, judged relevant

    def __post_init__(self):
        n = len(self.doc_ids)
        if self.R.shape[0] != n or self.H.shape[0] != n or self.rel.shape[0] != n:
            raise ValueError(
                f"candidate arrays for query {self.query.query_id!r} disagree "
                f"on length"
            )


@dataclass
class FoldResult:
    fold: int
    model: FusionModel
    log_rows: list[tuple[int, float, float]]  # (epoch, mean_loss, val_map)
    train_qids: list[str]
    val_qids: list[str]
    test_qids: list[str]

    @property
    def best_val_map(self) -> float:
        return max(row[2] for row in self.log_rows)


def make_folds(query_ids: Sequence[str], k: int = 5, seed: int = 0) -> dict[str, int]:
    """Shuffle queries under the seed and split into k near-equal folds."""
    qids = sorted(query_ids)
    if len(qids) != len(set(qids)):
        raise ValueError("duplicate query ids in fold assignment")
    if len(qids) < k:
        raise ValueError(f"need at least {k} queries for {k}-fold splits, "
                         f"got {len(qids)}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0F01D5]))
    order = rng.permutation(len(qids))
    assignment: dict[str, int] = {}
    for pos, idx in enumerate(order):
        assignment[qids[idx]] = pos % k
    return assignment


def sample_triples(
    candidates: Mapping[str, CandidateSet],
    qids: Sequence[str],
    negatives_per_positive: int,
    rng: np.random.Generator,
) -> list[tuple[str, int, int]]:
    """(query_id, pos_index, neg_index) triples over the given queries.

    For each relevant candidate, negatives are drawn uniformly without
    replacement (all of them when fewer than requested exist). Queries
    with no positives or no negatives are skipped with a warning.
    """
    triples: list[tuple[str, int, int]] = []
    for qid in sorted(qids):
        cs = candidates[qid]
        pos_idx = np.flatnonzero(cs.rel)
        neg_idx = np.flatnonzero(~cs.rel)
        if pos_idx.size == 0 or neg_idx.size == 0:
            log.warning(
                "query %s has no %s candidates, skipped for training",
                qid,
                "relevant" if pos_idx.size == 0 else "non-relevant",
            )
            continue
        take = min(negatives_per_positive, neg_idx.size)
        for p in pos_idx:
            negs = rng.choice(neg_idx, size=take, replace=False)
            for n in negs:
                triples.append((qid, int(p), int(n)))
    if not triples:
        raise ValueError("no trainable queries (every query lacks positives "
                         "or negatives)")
    return triples


def _ranking_map(
    candidates: Mapping[str, CandidateSet],
    qids: Sequence[str],
    W: np.ndarray,
    b: float,
    score_norm: AffineNorm,
    feature_norm: AffineNorm,
) -> float:
    """Mean AP over the given queries under the current parameters."""
    aps: list[float] = []
    for qid in sorted(qids):
        cs = candidates[qid]
        if not cs.rel.any():
            continue
        # linear scores: same ordering as tanh scores, immune to saturation
        s = linear_rows(W, b, score_norm.apply(cs.R), feature_norm.apply(cs.H))
        ranking = [d for d, _ in rank_by_score(cs.doc_ids, s)]
        grades = {d: 1 for d, r in zip(cs.doc_ids, cs.rel) if r}
        ap = average_precision(ranking, grades)
        if ap is not None:
            aps.append(ap)
    if not aps:
        raise ValueError("no validation query has relevant candidates")
    return float(np.mean(aps))


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
    alpha = len(filters)
    beta = len(feature_names)
    train_R = np.vstack([candidates[q].R for q in sorted(train_qids)])
    train_H = np.vstack([candidates[q].H for q in sorted(train_qids)])
    score_norm = AffineNorm.fit(train_R)
    feature_norm = AffineNorm.fit(train_H)

    norm_cache = {
        qid: (
            score_norm.apply(candidates[qid].R),
            feature_norm.apply(candidates[qid].H),
        )
        for qid in sorted(set(train_qids) | set(val_qids))
    }

    triples = sample_triples(
        candidates, train_qids, config.negatives_per_positive, rng
    )
    t_qid = [t[0] for t in triples]
    Rp = np.vstack([norm_cache[q][0][p] for q, p, _ in triples])
    Hp = np.vstack([norm_cache[q][1][p] for q, p, _ in triples])
    Rn = np.vstack([norm_cache[q][0][n] for q, _, n in triples])
    Hn = np.vstack([norm_cache[q][1][n] for q, _, n in triples])
    n_triples = len(triples)
    log.info("fold training on %d triples from %d queries",
             n_triples, len(set(t_qid)))

    W = rng.uniform(-0.1, 0.1, size=(alpha, beta))
    b = 0.0

    def mean_loss(W_, b_) -> float:
        sp, _, _, _ = forward_parts(W_, b_, Rp, Hp)
        sn, _, _, _ = forward_parts(W_, b_, Rn, Hn)
        return float(np.maximum(0.0, 1.0 - sp + sn).mean())

    def val_map(W_, b_) -> float:
        return _ranking_map(candidates, val_qids, W_, b_, score_norm,
                            feature_norm)

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
    fold_of: Mapping[str, int] | None = None,
) -> list[FoldResult]:
    """Cross-validated training: one FusionModel per fold.

    ``fold_of`` is the query->fold assignment (computed from the config
    seed when omitted). For fold i the validation fold is (i+1) mod k.
    """
    qids = sorted(candidates)
    fold_of = fold_of or make_folds(qids, config.folds, config.seed)
    k = config.folds
    results: list[FoldResult] = []
    for fold in range(k):
        val_fold = (fold + 1) % k
        test_qids = [q for q in qids if fold_of[q] == fold]
        val_qids = [q for q in qids if fold_of[q] == val_fold]
        train_qids = [
            q for q in qids if fold_of[q] != fold and fold_of[q] != val_fold
        ]
        if not train_qids or not val_qids:
            raise ValueError(f"fold {fold} leaves an empty train or validation set")
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, fold]))
        model, rows = train_fold(
            candidates, train_qids, val_qids, config, rng,
            dict(model_meta, fold=fold), filters, feature_names,
        )
        results.append(FoldResult(fold, model, rows, train_qids, val_qids,
                                  test_qids))
    return results
