"""Softmax gate, score normalization, fusion model, and gradients."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passagerank import (AffineNorm, FilterSpec, FusionModel, NpmModel, ScoreSettings,
                         SmoothingConfig, feature_names, report_weights, softmax_rows)
from passagerank.features import FEATURE_SETS
from passagerank._accel import parse_filter_label
from passagerank.fusion import forward_parts, linear_rows

FILTERS = (FilterSpec.window(50), FilterSpec.window(150), FilterSpec.whole_document())
SETTINGS = ScoreSettings(FILTERS, SmoothingConfig(0.3), "doc", 10)  # 3 filters, 4 features


def identity_norm(n):
    return AffineNorm(np.zeros(n), np.ones(n))


def tanh_score(model, R, H):
    """The final fusion score in (-1, 1) of each row."""
    return np.tanh(model.linear_many(R, H))


def make_model(rng=None, meta=None):
    if rng is None:
        rng = np.random.default_rng(0)
    return FusionModel(
        settings=SETTINGS,
        W=rng.uniform(-0.1, 0.1, size=(3, 4)),
        b=0.0,
        score_norm=identity_norm(3),
        feature_norm=identity_norm(4),
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

    @pytest.mark.parametrize("matrix", [np.ones(3), np.empty((0, 3))],
                             ids=["1-D", "no-rows"])
    def test_fit_needs_a_non_empty_2d_matrix(self, matrix):
        with pytest.raises(ValueError,
                           match="^normalization needs a non-empty 2-D matrix$"):
            AffineNorm.fit(matrix)


class TestFusionModel:
    def test_score_matches_manual_computation(self):
        model = make_model()
        rng = np.random.default_rng(5)
        r = rng.normal(size=3)
        h = rng.normal(size=4)
        phi = softmax_rows((model.W @ h)[None, :])[0]
        expect = math.tanh(float(r @ phi) + model.b)
        score = tanh_score(model, r[None, :], h[None, :])[0]
        assert score == pytest.approx(expect, rel=1e-12)

    def test_score_many_matches_single(self):
        model = make_model()
        rng = np.random.default_rng(6)
        R = rng.normal(size=(20, 3))
        H = rng.normal(size=(20, 4))
        many = tanh_score(model, R, H)
        for i in range(20):
            assert many[i] == pytest.approx(tanh_score(model, R[i:i + 1], H[i:i + 1])[0],
                                            rel=1e-12)

    def test_linear_score_orders_like_tanh_when_unsaturated(self):
        model = make_model()
        rng = np.random.default_rng(7)
        R = rng.uniform(-2, 2, size=(50, 3))
        H = rng.normal(size=(50, 4))
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
        H = rng.normal(size=(30, 4))
        tan = tanh_score(model, R, H)
        lin = model.linear_many(R, H)
        assert np.unique(tan).size == 1  # saturated: useless for ranking
        assert np.unique(lin).size == 30

    def test_weights_many_on_simplex(self):
        model = make_model()
        rng = np.random.default_rng(9)
        H = rng.normal(size=(40, 4))
        phi = model.weights_many(H)
        assert phi.shape == (40, 3)
        assert np.all(phi > 0)
        assert np.max(np.abs(phi.sum(axis=1) - 1.0)) < 1e-12

    def test_normalization_applied_before_gate(self):
        rng = np.random.default_rng(10)
        R = rng.normal(size=(30, 3))
        H = rng.normal(size=(30, 4))
        rn, hn = AffineNorm.fit(R), AffineNorm.fit(H)
        model = make_model()
        normed = FusionModel(SETTINGS, model.W, model.b, rn, hn, {})
        ident = make_model()
        assert np.allclose(
            tanh_score(normed, R, H),
            tanh_score(ident, rn.apply(R), hn.apply(H)))

    def test_dimension_errors(self):
        model = make_model()
        with pytest.raises(ValueError):
            model.linear_many(np.zeros((1, 2)), np.zeros((1, 4)))
        with pytest.raises(ValueError):
            model.linear_many(np.zeros((1, 3)), np.zeros((1, 5)))
        with pytest.raises(ValueError):
            model.linear_many(np.zeros((5, 3)), np.zeros((4, 4)))

    def test_nan_features_rejected(self):
        model = make_model()
        h = np.zeros(4)
        h[2] = np.nan
        with pytest.raises(ValueError):
            model.linear_many(np.zeros((1, 3)), h[None, :])

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValueError):
            FusionModel(SETTINGS, np.full((3, 4), np.inf), 0.0,
                        identity_norm(3), identity_norm(4), {})


    @pytest.mark.parametrize("std", [0.0, -1.0, np.nan, np.inf])
    def test_bad_normalization_std_rejected(self, std):
        # std 0 scores inf, and a negative std reverses its filter's order
        norm = identity_norm(3)
        norm.std[0] = std
        with pytest.raises(ValueError, match="score normalization stds"):
            FusionModel(SETTINGS, np.zeros((3, 4)), 0.0, norm,
                        identity_norm(4), {})

    @pytest.mark.parametrize("mean", [np.nan, -np.inf])
    def test_non_finite_normalization_mean_rejected(self, mean):
        norm = identity_norm(4)
        norm.mean[3] = mean
        with pytest.raises(ValueError, match="feature normalization means"):
            FusionModel(SETTINGS, np.zeros((3, 4)), 0.0, identity_norm(3),
                        norm, {})


class TestSerialization:
    def test_filter_labels_round_trip(self):
        labels = [f.label for f in FILTERS]
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
        model = make_model(rng, meta={"fold": 2, "best_epoch": 3})
        norm = AffineNorm(rng.normal(size=3), rng.uniform(0.5, 2, size=3))
        model = FusionModel(SETTINGS, model.W, 0.125, norm, identity_norm(4), model.meta)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = FusionModel.from_bytes(path.read_bytes(), path)
        assert loaded.W.tobytes() == model.W.tobytes()
        assert loaded.b == model.b
        assert loaded.score_norm.mean.tobytes() == norm.mean.tobytes()
        assert loaded.settings == SETTINGS
        assert loaded.meta == model.meta
        loaded.save(tmp_path / "again.json")  # so an npm run tag holds
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_model_file_round_trips_its_settings(self, data):
        """A model file holds its settings exactly: the filters, the
        feature set its feature names spell, lambda_c and list_k, with the
        homogeneity filter derived again on load; saved again, the model
        writes the same bytes."""
        windows = data.draw(st.lists(st.integers(1, 400).flatmap(
            lambda m: st.tuples(st.just(m), st.integers(1, m))), unique=True, max_size=4))
        filters = [FilterSpec(m, tau) for m, tau in windows]
        if data.draw(st.booleans()) or not filters:
            filters.insert(data.draw(st.integers(0, len(filters))),
                           FilterSpec.whole_document())
        want = ScoreSettings(
            tuple(filters),
            SmoothingConfig(data.draw(st.floats(0.0, 1.0, exclude_min=True,
                                                exclude_max=True))),
            data.draw(st.sampled_from(FEATURE_SETS if windows else ("query",))),
            data.draw(st.integers(1, 10**6)))
        alpha, beta = len(filters), len(feature_names(want.feature_set))
        rng = np.random.default_rng(len(windows))
        model = FusionModel(want, rng.normal(size=(alpha, beta)), 0.5,
                            AffineNorm(rng.normal(size=alpha), np.ones(alpha)),
                            AffineNorm(rng.normal(size=beta), np.ones(beta)), {"fold": 0})
        with tempfile.TemporaryDirectory() as tmp:
            first, again = Path(tmp) / "model.json", Path(tmp) / "again.json"
            model.save(first)
            loaded = NpmModel.load(first)
            assert loaded.settings == loaded.models[0].settings == want
            assert loaded.models[0].meta == {"fold": 0}
            loaded.models[0].save(again)
            assert again.read_bytes() == first.read_bytes()

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
            FusionModel.from_bytes(path.read_bytes(), path)


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
        H = rng.normal(size=(200, 4))
        means, stds = report_weights(model, H)
        assert means.shape == (3,)
        assert abs(means.sum() - 1.0) < 1e-9
        assert np.all(means > 0)
        assert np.all(stds >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report_weights(make_model(), np.zeros((0, 4)))
