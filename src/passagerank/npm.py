"""Training and applying the fusion model: the npm reranker.

A model file records the ``features.ScoreSettings`` that rebuild a
candidate's per-filter scores R and features H, so a model is applied
the way it was trained. ``candidate_matrices`` builds (R, H) for one
query's candidates, ``npm_train`` fits the fold models on them,
``save_training`` writes those and ``NpmModel.load`` reads them, or one
model file, back.
``npm_rank`` ranks a query's candidates with the fold model that never
saw the query, as ``passages.msp_rank`` does with a fixed window.
"""

from __future__ import annotations

import csv
import hashlib
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import CorpusIndex, Query
from .evaluation import numbered_lines, qid_sort_key, rank_by_score, write_table
from .features import FeatureExtractor, ScoreSettings, feature_names
from .fusion import FusionModel
from .passages import score_tokens
from .retrieval import QueryContext
from .training import CandidateSet, FoldResult, TrainConfig, train

log = logging.getLogger(__name__)


def candidate_matrices(query: Query, candidates: Sequence[str],
                       run_scores: Sequence[float], index: CorpusIndex,
                       settings: ScoreSettings) -> tuple[np.ndarray, np.ndarray]:
    """R, the per-filter LM-scale scores, and H, the feature rows
    (``FeatureExtractor.matrix``), of one query's candidate doc_ids in
    their order; ``run_scores`` are the initial run's scores for the
    query."""
    H = FeatureExtractor(index, settings).matrix(query, candidates, run_scores)
    ctx = QueryContext(query, index, settings.smoothing)
    tokens, lengths = index.batch_tokens(candidates)
    return score_tokens(ctx, tokens, settings.filters, lengths), H


def npm_train(queries: Sequence[Query], run: Mapping, qrels: Mapping,
              index: CorpusIndex, settings: ScoreSettings, config: TrainConfig,
              meta: Mapping | None = None) -> list[FoldResult]:
    """Cross-validated fusion models over each query's candidates, the
    (doc_id, score) list ``run[query_id]``; a candidate is relevant where
    its ``qrels[query_id][doc_id]`` grade is positive, and a query with no
    relevant or no non-relevant candidate is dropped from training but
    still gets a test fold (``training.train``'s ``untrained``). Each fold
    model records ``settings.meta()``, then ``meta``."""
    candidates, untrained = {}, []
    for q in queries:
        qid = q.query_id
        doc_ids, scores = zip(*run[qid])
        rel = np.array([qrels.get(qid, {}).get(d, 0) > 0 for d in doc_ids], dtype=bool)
        if rel.all() or not rel.any():
            log.warning("query %s has no %s candidates, dropped from training", qid,
                        "non-relevant" if rel.any() else "relevant")
            untrained.append(qid)
        else:
            R, H = candidate_matrices(q, doc_ids, scores, index, settings)
            candidates[qid] = CandidateSet(q, list(doc_ids), R, H, rel)
    return train(candidates, config, {**settings.meta(), **(meta or {})},
                 settings.filters, feature_names(settings.feature_set), untrained)


def save_training(out_dir: str | Path, results: Sequence[FoldResult]) -> None:
    """Write ``out_dir``, created if missing: ``folds.csv``, each query's
    test fold, and each fold's ``fold_K.json`` model and
    ``train_log_fold_K.csv``. ``NpmModel.load`` reads it back."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fold_of = {qid: res.fold for res in results for qid in res.test_qids}
    write_table(out_dir / "folds.csv", ["query_id", "fold"],
                [[qid, fold_of[qid]] for qid in sorted(fold_of, key=qid_sort_key)])
    for res in results:
        res.model.save(out_dir / f"fold_{res.fold}.json")
        write_table(out_dir / f"train_log_fold_{res.fold}.csv",
                    ["epoch", "mean_loss", "val_map"],
                    [[epoch, f"{loss:.10g}", f"{vm:.10g}"]
                     for epoch, loss, vm in res.log_rows])


@dataclass(frozen=True)
class NpmModel:
    """A fusion model file, or a train output directory's fold models,
    with the settings they share and the fingerprint that tags their
    runs (``npm-<fingerprint>``). ``fold_of`` maps each query of a
    directory's ``folds.csv`` to its fold, whose model was trained
    without it; a model file has no ``fold_of`` and scores every query."""

    models: Mapping[int, FusionModel]  # by fold; a model file is fold 0
    settings: ScoreSettings
    fingerprint: str
    fold_of: Mapping[str, int] | None = None

    @classmethod
    def load(cls, path: str | Path) -> "NpmModel":
        path = Path(path)
        if not path.is_dir():
            model = FusionModel.load(path)
            return cls({0: model}, ScoreSettings.from_model(model, path),
                       model.fingerprint())
        folds_file = path / "folds.csv"
        if not folds_file.exists():
            raise ValueError(f"{path} has no folds.csv; pass a model file or "
                             f"a train output directory")
        lines = [line for _, line in numbered_lines(folds_file)]
        rows = csv.reader(lines)
        try:
            if next(rows, None) != ["query_id", "fold"]:
                raise ValueError("unexpected header")
            entries = [(qid, int(fold), rows.line_num) for qid, fold in rows]
        except (ValueError, csv.Error):
            # line_num is the last line read: 0 in an empty file
            line = "".join(lines[rows.line_num - 1:rows.line_num])
            raise ValueError(f"{folds_file}:{rows.line_num}: expected "
                             f"'query_id,fold', got {line!r}") from None
        fold_of = {}
        for qid, fold, line_num in entries:
            if qid in fold_of:
                raise ValueError(f"{folds_file}:{line_num}: duplicate query {qid!r}")
            fold_of[qid] = fold
        if not fold_of:
            raise ValueError(f"{folds_file} lists no queries")
        models, settings = {}, set()
        for fold in sorted(set(fold_of.values())):
            model_path = path / f"fold_{fold}.json"
            models[fold] = FusionModel.load(model_path)
            settings.add(ScoreSettings.from_model(models[fold], model_path))
        if len(settings) > 1:
            raise ValueError(f"{path}: fold models disagree on configuration")
        fold_fps = "\n".join(models[fold].fingerprint() for fold in sorted(models))
        return cls(models, settings.pop(),
                   hashlib.sha1(fold_fps.encode("utf-8")).hexdigest()[:10], fold_of)

    def check_queries(self, query_ids: Iterable[str]) -> None:
        """Fail, naming up to five of them, if some queries have no fold
        model."""
        if self.fold_of is None:
            return
        missing = [qid for qid in query_ids if qid not in self.fold_of]
        if missing:
            more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
            raise ValueError(f"queries not in the fold manifest: {missing[:5]}{more}")

    def model_for(self, query_id: str) -> FusionModel:
        """The model that scores ``query_id``."""
        if self.fold_of is None:
            return self.models[0]
        self.check_queries([query_id])
        return self.models[self.fold_of[query_id]]


def npm_rank(query: Query, candidates: Sequence[str], run_scores: Sequence[float],
             index: CorpusIndex, model: NpmModel) -> list[tuple[str, float]]:
    """Rank candidate doc_ids by the query's fusion model
    (``FusionModel.linear_many`` over ``candidate_matrices``);
    ``run_scores`` are the initial run's scores for the query. Ties
    break by doc_id ascending."""
    fusion = model.model_for(query.query_id)
    R, H = candidate_matrices(query, candidates, run_scores, index, model.settings)
    return rank_by_score(candidates, fusion.linear_many(R, H))
