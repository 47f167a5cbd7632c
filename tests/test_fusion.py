"""Softmax gate, score normalization, fusion model, and gradients."""

import json
import math

import numpy as np
import pytest

from passagerank import AffineNorm, FilterSpec, FusionModel, report_weights, softmax_rows
from passagerank.fusion import forward_parts, linear_rows
from passagerank.passages import parse_filter_label, serialize_filters

FILTERS = (FilterSpec.window(50), FilterSpec.window(150), FilterSpec.whole_document())
FEATS = ("f1", "f2", "f3", "f4", "f5")


def identity_norm(n):
    return AffineNorm(np.zeros(n), np.ones(n))


def tanh_score(model, R, H):
    """The final fusion score in (-1, 1) of each row."""
    return np.tanh(model.linear_many(R, H))


def make_model(rng=None, alpha=3, beta=5, meta=None):
    if rng is None:
        rng = np.random.default_rng(0)
    W = rng.uniform(-0.1, 0.1, size=(alpha, beta))
    return FusionModel(
        filters=FILTERS[:alpha],
        feature_names=FEATS[:beta],
        W=W,
        b=0.0,
        score_norm=identity_norm(alpha),
        feature_norm=identity_norm(beta),
        meta=meta or {},
    )


class TestSoftmax:
    def test_hand_case(self):
        phi = softmax_rows(np.array([[math.log(3.0), 0.0]]))
        assert phi[0, 0] == pytest.approx(0.75, rel=1e-12)
        assert phi[0, 1] == pytest.approx(0.25, rel=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        logits = rng.uniform(-1e3, 1e3, size=(500, 7))
        phi = softmax_rows(logits)
        assert np.all(phi > 0)
        assert np.max(np.abs(phi.sum(axis=1) - 1.0)) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.uniform(-50, 50, size=(100, 4))
        shifts = rng.uniform(-1e3, 1e3, size=(100, 1))
        a = softmax_rows(logits)
        b = softmax_rows(logits + shifts)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_extreme_underflow_keeps_positivity(self):
        phi = softmax_rows(np.array([[-1e3, 0.0, 1e3]]))
        assert np.all(phi > 0)
        assert abs(phi.sum() - 1.0) < 1e-12


class TestAffineNorm:
    def test_fit_standardizes(self):
        rng = np.random.default_rng(4)
        X = rng.normal(3.0, 5.0, size=(400, 3))
        norm = AffineNorm.fit(X)
        Z = norm.apply(X)
        assert np.max(np.abs(Z.mean(axis=0))) < 1e-10
        assert np.max(np.abs(Z.std(axis=0) - 1.0)) < 1e-10

    def test_constant_column_floored_not_nan(self):
        X = np.ones((10, 2))
        X[:, 1] = np.arange(10)
        Z = AffineNorm.fit(X).apply(X)
        assert np.all(np.isfinite(Z))
        assert np.allclose(Z[:, 0], 0.0)

    def test_identity(self):
        X = np.array([[1.0, -2.0]])
        assert np.array_equal(identity_norm(2).apply(X), X)


class TestFusionModel:
    def test_score_matches_manual_computation(self):
        model = make_model()
        rng = np.random.default_rng(5)
        r = rng.normal(size=3)
        h = rng.normal(size=5)
        phi = softmax_rows((model.W @ h)[None, :])[0]
        expect = math.tanh(float(r @ phi) + model.b)
        score = tanh_score(model, r[None, :], h[None, :])[0]
        assert score == pytest.approx(expect, rel=1e-12)

    def test_score_many_matches_single(self):
        model = make_model()
        rng = np.random.default_rng(6)
        R = rng.normal(size=(20, 3))
        H = rng.normal(size=(20, 5))
        many = tanh_score(model, R, H)
        for i in range(20):
            assert many[i] == pytest.approx(tanh_score(model, R[i:i + 1], H[i:i + 1])[0],
                                            rel=1e-12)

    def test_linear_score_orders_like_tanh_when_unsaturated(self):
        model = make_model()
        rng = np.random.default_rng(7)
        R = rng.uniform(-2, 2, size=(50, 3))
        H = rng.normal(size=(50, 5))
        lin = model.linear_many(R, H)
        tan = tanh_score(model, R, H)
        assert np.array_equal(np.argsort(-lin), np.argsort(-tan))
        assert np.allclose(np.tanh(lin), tan)

    def test_linear_score_still_discriminates_when_tanh_saturates(self):
        # raw log-likelihoods around -40 collapse to tanh = -1.0 exactly;
        # the pre-squash score must keep them apart
        model = make_model()
        rng = np.random.default_rng(8)
        R = -40.0 + rng.uniform(-1, 1, size=(30, 3))
        H = rng.normal(size=(30, 5))
        tan = tanh_score(model, R, H)
        lin = model.linear_many(R, H)
        assert np.unique(tan).size == 1  # saturated: useless for ranking
        assert np.unique(lin).size == 30

    def test_weights_many_on_simplex(self):
        model = make_model()
        rng = np.random.default_rng(9)
        H = rng.normal(size=(40, 5))
        phi = model.weights_many(H)
        assert phi.shape == (40, 3)
        assert np.all(phi > 0)
        assert np.max(np.abs(phi.sum(axis=1) - 1.0)) < 1e-12

    def test_normalization_applied_before_gate(self):
        rng = np.random.default_rng(10)
        R = rng.normal(size=(30, 3))
        H = rng.normal(size=(30, 5))
        rn, hn = AffineNorm.fit(R), AffineNorm.fit(H)
        model = make_model()
        normed = FusionModel(model.filters, model.feature_names, model.W,
                             model.b, rn, hn, {})
        ident = make_model()
        assert np.allclose(
            tanh_score(normed, R, H),
            tanh_score(ident, rn.apply(R), hn.apply(H)))

    def test_dimension_errors(self):
        model = make_model()
        with pytest.raises(ValueError):
            model.linear_many(np.zeros((1, 2)), np.zeros((1, 5)))
        with pytest.raises(ValueError):
            model.linear_many(np.zeros((1, 3)), np.zeros((1, 4)))
        with pytest.raises(ValueError):
            model.linear_many(np.zeros((5, 3)), np.zeros((4, 5)))

    def test_nan_features_rejected(self):
        model = make_model()
        h = np.zeros(5)
        h[2] = np.nan
        with pytest.raises(ValueError):
            model.linear_many(np.zeros((1, 3)), h[None, :])

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValueError):
            FusionModel(FILTERS, FEATS, np.full((3, 5), np.inf), 0.0,
                        identity_norm(3), identity_norm(5), {})


    @pytest.mark.parametrize("std", [0.0, -1.0, np.nan, np.inf])
    def test_bad_normalization_std_rejected(self, std):
        # std 0 scores inf, and a negative std reverses its filter's order
        norm = identity_norm(3)
        norm.std[0] = std
        with pytest.raises(ValueError, match="score normalization stds"):
            FusionModel(FILTERS, FEATS, np.zeros((3, 5)), 0.0, norm,
                        identity_norm(5), {})

    @pytest.mark.parametrize("mean", [np.nan, -np.inf])
    def test_non_finite_normalization_mean_rejected(self, mean):
        norm = identity_norm(5)
        norm.mean[4] = mean
        with pytest.raises(ValueError, match="feature normalization means"):
            FusionModel(FILTERS, FEATS, np.zeros((3, 5)), 0.0, identity_norm(3),
                        norm, {})


class TestSerialization:
    def test_filter_labels_round_trip(self):
        labels = serialize_filters(FILTERS)
        assert labels == ["50:25", "150:75", "inf"]
        assert tuple(parse_filter_label(s) for s in labels) == FILTERS

    def test_parse_plain_size(self):
        f = parse_filter_label("40")
        assert (f.m, f.tau) == (40, 20)

    def test_parse_bad_label(self):
        with pytest.raises(ValueError):
            parse_filter_label("fifty")

    def test_model_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        model = make_model(rng, meta={"feature_set": "query", "list_k": 100})
        norm = AffineNorm(rng.normal(size=3), rng.uniform(0.5, 2, size=3))
        model = FusionModel(model.filters, model.feature_names,
                            model.W, 0.125, norm, identity_norm(5),
                            model.meta)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = FusionModel.load(path)
        assert loaded.W.tobytes() == model.W.tobytes()
        assert loaded.b == model.b
        assert loaded.score_norm.mean.tobytes() == norm.mean.tobytes()
        assert loaded.filters == model.filters
        assert loaded.meta == model.meta
        assert loaded.fingerprint() == model.fingerprint()

    def test_save_deterministic_bytes(self, tmp_path):
        model = make_model()
        model.save(tmp_path / "a.json")
        model.save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_wrong_format_rejected(self, tmp_path):
        model = make_model()
        path = tmp_path / "model.json"
        model.save(path)
        blob = json.loads(path.read_text())
        blob["format"] = "something-else"
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError):
            FusionModel.load(path)

    def test_fingerprint_tracks_identity_not_weights(self):
        a = make_model(np.random.default_rng(1))
        b = make_model(np.random.default_rng(2))
        assert a.fingerprint() == b.fingerprint()
        c = make_model(np.random.default_rng(1), meta={"x": 1})
        assert c.fingerprint() != a.fingerprint()


class TestGradients:
    def test_score_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        eps = 1e-6
        for _ in range(30):
            alpha, beta = int(rng.integers(2, 5)), int(rng.integers(2, 7))
            W = rng.uniform(-0.5, 0.5, size=(alpha, beta))
            b = float(rng.uniform(-0.5, 0.5))
            r = rng.normal(size=alpha)
            h = rng.normal(size=beta)
            _, _, C, dB = forward_parts(W, b, r[None, :], h[None, :])
            dW, db = np.outer(C[0], h), dB[0]

            def s(Wx, bx):
                sval, _, _, _ = forward_parts(Wx, bx, r[None, :], h[None, :])
                return float(sval[0])

            num_db = (s(W, b + eps) - s(W, b - eps)) / (2 * eps)
            assert db == pytest.approx(num_db, rel=1e-5, abs=1e-9)
            for j in range(alpha):
                for k in range(beta):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[j, k] += eps
                    Wm[j, k] -= eps
                    num = (s(Wp, b) - s(Wm, b)) / (2 * eps)
                    assert dW[j, k] == pytest.approx(num, rel=2e-4, abs=1e-9)

    def test_forward_parts_consistent_with_linear_rows(self):
        rng = np.random.default_rng(13)
        W = rng.uniform(-0.3, 0.3, size=(3, 4))
        R = rng.normal(size=(10, 3))
        H = rng.normal(size=(10, 4))
        s, phi, C, sech2 = forward_parts(W, 0.2, R, H)
        lin = linear_rows(W, 0.2, R, H)
        assert np.allclose(s, np.tanh(lin))
        assert np.allclose(sech2, 1.0 - s**2)
        assert phi.shape == (10, 3)


class TestReportWeights:
    def test_means_lie_on_simplex(self):
        model = make_model()
        rng = np.random.default_rng(14)
        H = rng.normal(size=(200, 5))
        means, stds = report_weights(model, H)
        assert means.shape == (3,)
        assert abs(means.sum() - 1.0) < 1e-9
        assert np.all(means > 0)
        assert np.all(stds >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report_weights(make_model(), np.zeros((0, 5)))
