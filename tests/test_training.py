"""Fold assignment, triple sampling, SGD training, and early stopping."""

import numpy as np
import pytest

from passagerank import FilterSpec, Query, TrainConfig, make_folds, sample_triples, train
from passagerank.fusion import forward_parts
from passagerank.training import CandidateSet, train_fold
from reference import hinge_loss

FILTERS2 = (FilterSpec.window(10), FilterSpec.whole_document())
FEATS3 = ("f1", "f2", "f3")


def toy_candidates(n_queries=12, n_docs=10, n_rel=3, alpha=2, beta=3,
                   separation=2.0, seed=0):
    """Synthetic candidate sets where relevant docs score higher by design."""
    rng = np.random.default_rng(seed)
    out = {}
    for qi in range(n_queries):
        qid = f"{qi + 1}"
        rel = np.zeros(n_docs, dtype=bool)
        rel[:n_rel] = True
        R = rng.normal(0.0, 0.3, size=(n_docs, alpha))
        R[rel] += separation
        H = rng.normal(size=(n_docs, beta))
        docs = [f"d{qi:02d}_{i:02d}" for i in range(n_docs)]
        out[qid] = CandidateSet(Query(qid, ("t",)), docs, R, H, rel)
    return out


class TestHingeLoss:
    def test_violated_margin(self):
        assert hinge_loss(0.9, 0.1) == pytest.approx(0.2, rel=1e-12)
        assert hinge_loss(0.0, 0.0) == pytest.approx(1.0)

    def test_satisfied_margin_is_zero(self):
        assert hinge_loss(1.0, -1.0) == 0.0
        assert hinge_loss(0.8, -0.4) == 0.0


class TestMakeFolds:
    def test_partition_and_balance(self):
        qids = [f"{i}" for i in range(1, 23)]
        fold_of = make_folds(qids, k=5, seed=3)
        assert set(fold_of) == set(qids)
        sizes = [sum(1 for f in fold_of.values() if f == i) for i in range(5)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 22

    def test_deterministic_and_seed_sensitive(self):
        qids = [f"{i}" for i in range(40)]
        a = make_folds(qids, 5, seed=1)
        b = make_folds(qids, 5, seed=1)
        c = make_folds(qids, 5, seed=2)
        assert a == b
        assert a != c

    def test_order_insensitive(self):
        qids = [f"{i}" for i in range(20)]
        assert make_folds(qids, 4, seed=0) == make_folds(qids[::-1], 4, seed=0)

    def test_too_few_queries_raises(self):
        with pytest.raises(ValueError):
            make_folds(["1", "2"], k=5)

    def test_duplicate_ids_raise(self):
        with pytest.raises(ValueError, match="^duplicate query ids in fold assignment$"):
            make_folds(["1", "2", "3", "2"], k=3)


class TestSampleTriples:
    def test_triples_are_valid(self):
        cands = toy_candidates()
        rng = np.random.default_rng(0)
        triples = sample_triples(cands, sorted(cands), 4, rng)
        assert triples
        for qid, pos, neg in triples:
            assert cands[qid].rel[pos]
            assert not cands[qid].rel[neg]

    def test_negatives_per_positive_cap(self):
        cands = toy_candidates(n_queries=3, n_docs=8, n_rel=2)
        rng = np.random.default_rng(1)
        triples = sample_triples(cands, sorted(cands), 100, rng)
        # 6 negatives available per positive
        assert len(triples) == 3 * 2 * 6

    def test_deterministic_under_seed(self):
        cands = toy_candidates()
        a = sample_triples(cands, sorted(cands), 3, np.random.default_rng(7))
        b = sample_triples(cands, sorted(cands), 3, np.random.default_rng(7))
        assert a == b


class TestCandidateSet:
    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            CandidateSet(Query("1", ("t",)), ["d1"], np.zeros((2, 1)),
                         np.zeros((2, 1)), np.zeros(2, dtype=bool))

    @pytest.mark.parametrize("relevant,missing", [(True, "non-relevant"),
                                                  (False, "relevant")])
    def test_one_sided_pool_raises(self, relevant, missing):
        # every route into training meets a pool with both kinds
        with pytest.raises(ValueError,
                           match=f"query '99' has no {missing} candidates"):
            CandidateSet(Query("99", ("t",)), ["d1", "d2"], np.zeros((2, 1)),
                         np.zeros((2, 1)), np.full(2, relevant))


def small_config(**kw):
    base = dict(learning_rate=0.05, batch_size=16, max_epochs=12, patience=4,
                seed=0, negatives_per_positive=3, folds=3)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainFold:
    def test_learns_separable_data(self):
        cands = toy_candidates()
        qids = sorted(cands)
        model, rows = train_fold(cands, qids[:8], qids[8:], small_config(),
                                 np.random.default_rng(0), {}, FILTERS2, FEATS3)
        assert rows[0][0] == 0
        assert model.meta["best_val_map"] == max(r[2] for r in rows)
        assert model.meta["best_val_map"] >= rows[0][2]
        assert model.meta["best_val_map"] == pytest.approx(1.0)

    def test_zero_learning_rate_never_moves(self):
        cands = toy_candidates()
        qids = sorted(cands)
        model, rows = train_fold(cands, qids[:8], qids[8:],
                                 small_config(learning_rate=0.0),
                                 np.random.default_rng(0), {}, FILTERS2, FEATS3)
        losses = {f"{loss:.15g}" for _, loss, _ in rows}
        maps = {vm for _, _, vm in rows}
        assert len(losses) == 1 and len(maps) == 1
        assert model.meta["best_epoch"] == 0

    def test_satisfied_margins_leave_weights_alone(self):
        # single filter, scores +-1 after normalization: tanh(+-1) puts the
        # pairwise margin below zero, so every gradient is exactly zero
        rng = np.random.default_rng(3)
        cands = {}
        for qi in range(6):
            qid = f"{qi + 1}"
            rel = np.array([True, True, False, False, False])
            R = np.where(rel, 1.0, -1.0)[:, None] * 2.0
            H = rng.normal(size=(5, 3))
            cands[qid] = CandidateSet(Query(qid, ("t",)),
                                      [f"d{i}" for i in range(5)], R, H, rel)
        cfg = small_config(max_epochs=10, patience=3)
        model, rows = train_fold(cands, ["1", "2", "3", "4"], ["5", "6"], cfg,
                                 np.random.default_rng(1), {},
                                 (FilterSpec.window(10),), FEATS3)
        assert all(loss == 0.0 for _, loss, _ in rows)
        assert model.meta["best_epoch"] == 0
        # patience exhausts because nothing can improve on epoch 0
        assert len(rows) == cfg.patience + 1

    def test_epoch0_restore_warns(self, caplog):
        # validation MAP is already 1.0 at initialization, and improving
        # needs a strictly higher MAP, so the random init is restored
        cands = toy_candidates()
        qids = sorted(cands)
        with caplog.at_level("WARNING", logger="passagerank.training"):
            model, rows = train_fold(cands, qids[:8], qids[8:], small_config(),
                                     np.random.default_rng(0), {}, FILTERS2, FEATS3)
        assert rows[0][2] == 1.0
        assert model.meta["best_epoch"] == 0
        assert "random initialization" in caplog.text

    def test_trained_restore_does_not_warn(self, caplog):
        cands = toy_candidates(separation=0.0)
        qids = sorted(cands)
        with caplog.at_level("WARNING", logger="passagerank.training"):
            model, _ = train_fold(cands, qids[:8], qids[8:], small_config(),
                                  np.random.default_rng(0), {}, FILTERS2, FEATS3)
        assert model.meta["best_epoch"] > 0
        assert "random initialization" not in caplog.text

    def test_divergence_raises_runtime_error(self):
        cands = toy_candidates(n_queries=6)
        cands["1"].H[0, 0] = np.nan
        with pytest.raises(RuntimeError, match="diverged"):
            train_fold(cands, ["1", "2", "3", "4"], ["5", "6"], small_config(),
                       np.random.default_rng(0), {}, FILTERS2, FEATS3)

    @pytest.mark.parametrize("empty", ["train", "validation"])
    def test_empty_split_raises(self, empty):
        # with no validation query, early stopping would compare NaN MAPs
        cands = toy_candidates()
        qids = sorted(cands)
        train_qids, val_qids = ([], qids) if empty == "train" else (qids, [])
        with pytest.raises(ValueError, match="training and validation queries"):
            train_fold(cands, train_qids, val_qids, small_config(),
                       np.random.default_rng(0), {}, FILTERS2, FEATS3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(max_epochs=0)
        with pytest.raises(ValueError):
            small_config(learning_rate=-0.1)
        with pytest.raises(ValueError):
            small_config(batch_size=0)

    def test_single_epoch_logs_initialization_and_one_step(self):
        cands = toy_candidates()
        qids = sorted(cands)
        model, rows = train_fold(cands, qids[:8], qids[8:],
                                 small_config(max_epochs=1),
                                 np.random.default_rng(0), {}, FILTERS2, FEATS3)
        assert [r[0] for r in rows] == [0, 1]
        assert model.meta["best_epoch"] in (0, 1)


class TestBatchGradients:
    def test_train_step_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        n, alpha, beta = 24, 2, 3
        Rp = rng.normal(0.3, 0.5, size=(n, alpha))
        Hp = rng.normal(size=(n, beta))
        Rn = rng.normal(-0.3, 0.5, size=(n, alpha))
        Hn = rng.normal(size=(n, beta))
        W = rng.uniform(-0.1, 0.1, size=(alpha, beta))
        b = 0.05

        def loss(W_, b_):
            sp, _, _, _ = forward_parts(W_, b_, Rp, Hp)
            sn, _, _, _ = forward_parts(W_, b_, Rn, Hn)
            return float(np.maximum(0.0, 1.0 - sp + sn).mean())

        sp, _, Cp, dBp = forward_parts(W, b, Rp, Hp)
        sn, _, Cn, dBn = forward_parts(W, b, Rn, Hn)
        margins = 1.0 - sp + sn
        assert np.all(np.abs(margins) > 1e-2)  # away from the hinge kink
        active = (margins > 0.0).astype(np.float64)
        dW = ((Cn * active[:, None]).T @ Hn
              - (Cp * active[:, None]).T @ Hp) / n
        db = float((active * (dBn - dBp)).sum()) / n

        eps = 1e-6
        num_db = (loss(W, b + eps) - loss(W, b - eps)) / (2 * eps)
        assert db == pytest.approx(num_db, rel=1e-4, abs=1e-10)
        for j in range(alpha):
            for k in range(beta):
                Wp_, Wm_ = W.copy(), W.copy()
                Wp_[j, k] += eps
                Wm_[j, k] -= eps
                num = (loss(Wp_, b) - loss(Wm_, b)) / (2 * eps)
                assert dW[j, k] == pytest.approx(num, rel=1e-4, abs=1e-10)


class TestTrain:
    def test_fold_structure(self):
        cands = toy_candidates(n_queries=9)
        results = train(cands, small_config(folds=3), {}, FILTERS2, FEATS3)
        assert [r.fold for r in results] == [0, 1, 2]
        all_test = sorted(q for r in results for q in r.test_qids)
        assert all_test == sorted(cands)
        for r in results:
            assert not (set(r.test_qids) & set(r.val_qids))
            assert not (set(r.test_qids) & set(r.train_qids))
            assert not (set(r.val_qids) & set(r.train_qids))
            assert set(r.test_qids) | set(r.val_qids) | set(r.train_qids) \
                == set(cands)

    def test_validation_fold_rotates(self):
        # train draws the folds with make_folds under the config's seed
        cands = toy_candidates(n_queries=9)
        fold_of = make_folds(sorted(cands), 3, seed=0)
        results = train(cands, small_config(folds=3), {}, FILTERS2, FEATS3)
        for r in results:
            expect_val = {q for q, f in fold_of.items()
                          if f == (r.fold + 1) % 3}
            assert set(r.val_qids) == expect_val

    def test_bitwise_reproducible(self):
        cands = toy_candidates()
        a = train(cands, small_config(), {}, FILTERS2, FEATS3)
        b = train(cands, small_config(), {}, FILTERS2, FEATS3)
        for ra, rb in zip(a, b):
            assert ra.model.W.tobytes() == rb.model.W.tobytes()
            assert ra.model.b == rb.model.b
            assert ra.log_rows == rb.log_rows

    def test_seed_changes_results(self):
        cands = toy_candidates()
        a = train(cands, small_config(seed=0), {}, FILTERS2, FEATS3)
        b = train(cands, small_config(seed=1), {}, FILTERS2, FEATS3)
        assert a[0].model.W.tobytes() != b[0].model.W.tobytes()

    def test_meta_carried_and_extended(self):
        cands = toy_candidates(n_queries=9)
        results = train(cands, small_config(folds=3), {"feature_set": "query"},
                        FILTERS2, FEATS3)
        for r in results:
            assert r.model.meta["feature_set"] == "query"
            assert r.model.meta["fold"] == r.fold
            assert "best_epoch" in r.model.meta
