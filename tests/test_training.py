"""Fold assignment, the pair hinge, full-batch training, and early stopping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passagerank import (FilterSpec, NpmModel, Query, ScoreSettings, SmoothingConfig,
                         TrainConfig, build_index, make_folds, npm_rank, npm_train,
                         parse_filters, rank_documents, sample_triples, train)
from passagerank.fusion import forward_parts
from passagerank import training
from passagerank.training import CandidateSet, pair_hinge, train_fold
from conftest import planted_corpus
from reference import hinge_loss, pair_hinge_reference

# two filters and the four document features
SETTINGS2 = ScoreSettings((FilterSpec.window(10), FilterSpec.whole_document()),
                          SmoothingConfig(), "doc", 1)


def toy_candidates(n_queries=12, n_docs=10, n_rel=3, alpha=2, beta=4,
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
    base = dict(max_epochs=12, patience=4, seed=0, folds=3)
    base.update(kw)
    return TrainConfig(**base)


def separated_pools(n_queries=6):
    """Pools whose relevant rows score 2 and non-relevant rows -2 on two
    filters (the second with a little noise): at the uniform gate every
    pair's margin is negative."""
    rng = np.random.default_rng(3)
    cands = {}
    for qi in range(n_queries):
        qid = f"{qi + 1}"
        rel = np.array([True, True, False, False, False])
        R = np.where(rel, 2.0, -2.0)[:, None] + np.array([0.0, 0.1]) * rng.normal(size=(5, 2))
        cands[qid] = CandidateSet(Query(qid, ("t",)), [f"d{i}" for i in range(5)],
                                  R, rng.normal(size=(5, 4)), rel)
    return cands


class TestTrainFold:
    def test_learns_separable_data(self):
        cands = toy_candidates()
        qids = sorted(cands)
        model, rows = train_fold(cands, qids[:8], qids[8:], small_config(),
                                 {}, SETTINGS2)
        assert rows[0][0] == 0
        assert model.meta["best_val_map"] == max(r[2] for r in rows)
        assert model.meta["best_val_map"] >= rows[0][2]
        assert model.meta["best_val_map"] == pytest.approx(1.0)

    def test_starts_at_the_uniform_gate(self, monkeypatch):
        # the first forward pass sees W = 0 and b = 0, so phi is uniform
        seen = []

        def recording(W, b, R, H):
            seen.append((W.copy(), b))
            return forward_parts(W, b, R, H)

        monkeypatch.setattr(training, "forward_parts", recording)
        cands = toy_candidates()
        qids = sorted(cands)
        train_fold(cands, qids[:8], qids[8:], small_config(max_epochs=1), {},
                   SETTINGS2)
        W0, b0 = seen[0]
        assert W0.shape == (2, 4) and not W0.any() and b0 == 0.0

    def test_losses_descend(self):
        # each epoch is an accepted Armijo step, so the train hinge falls
        cands = toy_candidates(separation=0.0)
        qids = sorted(cands)
        _, rows = train_fold(cands, qids[:8], qids[8:], small_config(max_epochs=20,
                                                                     patience=20),
                             {}, SETTINGS2)
        losses = [loss for _, loss, _ in rows]
        assert len(losses) > 2
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_satisfied_margins_leave_weights_alone(self, caplog):
        # no pair is active at the uniform gate, so the gradient is zero:
        # no step is taken and the saved model is W = 0, b = 0
        cands = separated_pools()
        with caplog.at_level("WARNING", logger="passagerank.training"):
            model, rows = train_fold(cands, ["1", "2", "3", "4"], ["5", "6"],
                                     small_config(), {}, SETTINGS2)
        assert rows == [(0, 0.0, 1.0)]
        assert not model.W.any() and model.b == 0.0
        assert model.meta["best_epoch"] == 0
        assert "uniform gate" in caplog.text

    def test_epoch0_restore_warns(self, caplog):
        # the validation queries' judgments are the reverse of the
        # training queries', so each step that lowers the train hinge
        # raises the validation hinge and the uniform gate is restored
        cands = toy_candidates(separation=1.0)
        qids = sorted(cands)
        for q in qids[8:]:
            cands[q].rel = ~cands[q].rel
        with caplog.at_level("WARNING", logger="passagerank.training"):
            model, rows = train_fold(cands, qids[:8], qids[8:], small_config(),
                                     {}, SETTINGS2)
        assert len(rows) > 1
        assert model.meta["best_epoch"] == 0
        assert not model.W.any() and model.b == 0.0
        assert "the saved model is the uniform gate" in caplog.text

    def test_trained_restore_does_not_warn(self, caplog):
        # relevant rows score higher in training and validation alike, so
        # a step that lowers the train hinge lowers the validation hinge
        cands = toy_candidates(separation=1.0)
        qids = sorted(cands)
        with caplog.at_level("WARNING", logger="passagerank.training"):
            model, _ = train_fold(cands, qids[:8], qids[8:], small_config(),
                                  {}, SETTINGS2)
        assert model.meta["best_epoch"] > 0
        assert "uniform gate" not in caplog.text

    @pytest.mark.parametrize("empty", ["train", "validation"])
    def test_empty_split_raises(self, empty):
        # with no validation query, early stopping would compare NaN MAPs
        cands = toy_candidates()
        qids = sorted(cands)
        train_qids, val_qids = ([], qids) if empty == "train" else (qids, [])
        with pytest.raises(ValueError, match="training and validation queries"):
            train_fold(cands, train_qids, val_qids, small_config(),
                       {}, SETTINGS2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(max_epochs=0)
        with pytest.raises(ValueError):
            small_config(patience=0)
        with pytest.raises(ValueError):
            small_config(seed=-1)

    def test_each_epoch_steps_on_every_pair_once(self, monkeypatch):
        # every forward pass, the start's and each trial step's, sees all
        # training rows: there are no batches; each epoch is one accepted
        # step, so the logged train hinge falls every epoch
        sizes = []

        def counting(W, b, R, H):
            sizes.append(R.shape[0])
            return forward_parts(W, b, R, H)

        monkeypatch.setattr(training, "forward_parts", counting)
        cands = toy_candidates(separation=0.0)
        qids = sorted(cands)
        _, rows = train_fold(cands, qids[:8], qids[8:], small_config(max_epochs=3,
                                                                     patience=3),
                             {}, SETTINGS2)
        assert len(rows) == 4
        assert len(sizes) >= 4 and set(sizes) == {8 * 10}  # 8 queries of 10 candidates
        assert all(b[1] < a[1] for a, b in zip(rows, rows[1:]))

    def test_single_epoch_logs_initialization_and_one_step(self):
        # pairs overlap at the uniform gate, so the gradient is not zero
        cands = toy_candidates(separation=1.0)
        qids = sorted(cands)
        model, rows = train_fold(cands, qids[:8], qids[8:],
                                 small_config(max_epochs=1),
                                 {}, SETTINGS2)
        assert [r[0] for r in rows] == [0, 1]
        assert model.meta["best_epoch"] in (0, 1)


def pools(draw_scores):
    """Groups over one score vector: (relevant rows, non-relevant rows,
    1 / (queries x pairs)) per query, from a list of (n_rel, n_nonrel)."""
    groups, start = [], 0
    for n_rel, n_non in draw_scores:
        pos = np.arange(start, start + n_rel)
        neg = np.arange(start + n_rel, start + n_rel + n_non)
        groups.append((pos, neg, 1.0 / (len(draw_scores) * n_rel * n_non)))
        start += n_rel + n_non
    return groups, start


class TestPairHinge:
    # scores on a grid of quarters tie often and put many pairs at a
    # margin of exactly 0; uniform draws cover the rest
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=5),
           st.data())
    def test_counting_form_matches_every_pair(self, sizes, data):
        groups, n = pools(sizes)
        grid = st.integers(-4, 4).map(lambda k: k / 4)
        exact = st.floats(-1.0, 1.0, allow_nan=False)
        s = np.array(data.draw(st.lists(st.one_of(grid, exact), min_size=n, max_size=n)))
        loss, grad = pair_hinge(s, groups)
        ref_loss, ref_grad = pair_hinge_reference(s, groups)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)

    def test_margin_of_zero_is_inactive(self):
        # s_neg = s_pos - 1 exactly: the hinge is 0 and so is the gradient
        groups, _ = pools([(1, 1)])
        loss, grad = pair_hinge(np.array([0.5, -0.5]), groups)
        assert loss == 0.0 and not grad.any()

    def test_mean_over_queries_of_mean_pair_hinge(self):
        groups, _ = pools([(1, 2), (1, 1)])
        s = np.array([0.0, 0.5, -2.0, 0.25, 0.0])
        # query 1: pairs (0,1) 1.5 and (0,2) 0; query 2: pair (3,4) 0.75
        loss, grad = pair_hinge(s, groups)
        assert loss == pytest.approx((1.5 / 2 + 0.75) / 2)
        np.testing.assert_allclose(grad, [-0.25, 0.25, 0.0, -0.5, 0.5])


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
        results = train(cands, small_config(folds=3), {}, SETTINGS2)
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
        results = train(cands, small_config(folds=3), {}, SETTINGS2)
        for r in results:
            expect_val = {q for q, f in fold_of.items()
                          if f == (r.fold + 1) % 3}
            assert set(r.val_qids) == expect_val

    def test_bitwise_reproducible(self):
        cands = toy_candidates()
        a = train(cands, small_config(), {}, SETTINGS2)
        b = train(cands, small_config(), {}, SETTINGS2)
        for ra, rb in zip(a, b):
            assert ra.model.W.tobytes() == rb.model.W.tobytes()
            assert ra.model.b == rb.model.b
            assert ra.log_rows == rb.log_rows

    def test_seed_changes_results(self):
        # the seed moves the split, and each fold model follows from its
        # split alone: train_fold takes no seed
        cands = toy_candidates(separation=0.0)
        a = train(cands, small_config(seed=0), {}, SETTINGS2)
        b = train(cands, small_config(seed=1), {}, SETTINGS2)
        assert [r.test_qids for r in a] != [r.test_qids for r in b]
        assert a[0].model.W.tobytes() != b[0].model.W.tobytes()
        for r in b:
            model, rows = train_fold(cands, r.train_qids, r.val_qids, small_config(seed=0),
                                     {"fold": r.fold}, SETTINGS2)
            assert model.W.tobytes() == r.model.W.tobytes() and model.b == r.model.b
            assert rows == r.log_rows

    def test_meta_carried_and_extended(self):
        # a model carries its settings; its meta holds what training records
        cands = toy_candidates(n_queries=9)
        results = train(cands, small_config(folds=3), {"config_fingerprint": "c0"},
                        SETTINGS2)
        for r in results:
            assert r.model.settings == SETTINGS2
            assert sorted(r.model.meta) == ["best_epoch", "best_val_map",
                                            "config_fingerprint", "fold"]
            assert r.model.meta["config_fingerprint"] == "c0"
            assert r.model.meta["fold"] == r.fold


def test_planted_gate_opens_and_npm_ranks_the_planted_top():
    """At the benchmark's planted scale (40 queries, 300 documents of
    2000 tokens, top 60, filters 50:25,150:75,inf, 5 folds, default
    schedule), training leaves the uniform gate in at least 4 of 5
    folds, and held-out npm puts each query's 20 planted documents on
    top."""
    docs, queries, qrels = planted_corpus(n_queries=40, n_docs=300, doc_len=2000,
                                          bg_vocab=500)
    index = build_index(docs)
    run = {q.query_id: rank_documents(q, index, SmoothingConfig(), 60) for q in queries}
    settings = ScoreSettings(parse_filters("50:25,150:75,inf"), SmoothingConfig(),
                             "doc+query", 60)
    results = npm_train(queries, run, qrels, index, settings, TrainConfig())
    assert sum(r.model.meta["best_epoch"] > 0 for r in results) >= 4
    model = NpmModel(dict(enumerate(r.model for r in results)), settings, "",
                     {q: r.fold for r in results for q in r.test_qids})
    for q in queries:
        top = npm_rank(q, *zip(*run[q.query_id]), index, model)[:20]
        assert {d for d, _ in top} == {d for d, g in qrels[q.query_id].items() if g > 0}
