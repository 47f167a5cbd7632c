"""Homogeneity scores, query statistics, and feature assembly."""

import math
import re

import numpy as np
import pytest

from passagerank import (
    Document,
    FeatureExtractor,
    FilterSpec,
    Query,
    SmoothingConfig,
    build_index,
    feature_names,
    features,
    homogeneity,
    msp_rank,
    query_features,
    summary_stats,
)
from passagerank.features import (
    FEATURE_SETS,
    HOMOGENEITY_KINDS,
    HOMOGENEITY_NAMES,
    QUERY_BASE_NAMES,
    QUERY_STAT_NAMES,
    ScoreSettings,
    mean_top_scores,
    write_feature_matrix,
)
from passagerank.fusion import AffineNorm, FusionModel
from conftest import random_documents
from reference import fuse_features, list_feature

FILTERS = (FilterSpec(50, 25), FilterSpec(150, 75), FilterSpec.whole_document())


def score_settings(feature_set, hom_filter, list_k=2000, oov_floor=1):
    return ScoreSettings(FILTERS, SmoothingConfig(0.5, oov_floor), feature_set,
                         hom_filter, list_k)


@pytest.fixture(scope="module")
def idx100():
    """100 docs; term 'rare10' occurs once in each of 10 docs."""
    rng = np.random.default_rng(1)
    docs = []
    for i in range(100):
        terms = [f"w{int(t)}" for t in rng.integers(0, 40, size=30)]
        if i < 10:
            terms.append("rare10")
        docs.append(Document(f"d{i:03d}", tuple(terms)))
    return build_index(docs)


class TestQueryFeatures:
    def test_idf_oracle(self, idx100):
        # ln((100 + 0.5) / 10) / (100 + 1)
        feats = query_features(Query("q", ("rare10",)), idx100)
        names = dict(zip(feature_names("query")[:-1], feats))
        expect = math.log(10.05) / 101
        assert expect == pytest.approx(0.0228473, rel=1e-5)
        assert names["idf_max"] == pytest.approx(expect, rel=1e-12)
        assert names["idf_amean"] == pytest.approx(expect, rel=1e-12)

    def test_scq_oracle(self, idx100):
        # (1 + ln 10) * ln(1 + 100/10), cf(rare10) = 10
        feats = query_features(Query("q", ("rare10",)), idx100)
        names = dict(zip(feature_names("query")[:-1], feats))
        expect = (1 + math.log(10)) * math.log(1 + 10.0)
        assert expect == pytest.approx(7.9192506, rel=1e-6)
        assert names["scq_max"] == pytest.approx(expect, rel=1e-12)

    def test_neg_icf_base(self, idx100):
        # -ICF = -ln(|C| / cf) = ln(cf / |C|)
        feats = query_features(Query("q", ("rare10",)), idx100)
        names = dict(zip(feature_names("query")[:-1], feats))
        # statistics use the negated (positive) collection-frequency base
        expect = math.log(idx100.total_len / 10)
        assert names["nicf_max"] == pytest.approx(expect, rel=1e-12)

    def test_duplicates_count_in_stats(self, idx100):
        a = query_features(Query("q", ("rare10", "rare10")), idx100)
        b = query_features(Query("q", ("rare10",)), idx100)
        names = feature_names("query")[:-1]
        av, bv = dict(zip(names, a)), dict(zip(names, b))
        assert av["idf_sum"] == pytest.approx(2 * bv["idf_sum"], rel=1e-12)
        assert av["idf_max"] == pytest.approx(bv["idf_max"], rel=1e-12)
        assert av["idf_std"] == pytest.approx(0.0, abs=1e-15)

    def test_oov_uses_floors(self, idx100):
        feats = query_features(Query("q", ("never-seen-term",)), idx100)
        assert np.all(np.isfinite(feats))

    def test_vector_length(self, idx100):
        feats = query_features(Query("q", ("rare10", "w1")), idx100)
        assert feats.shape == (24,)


class TestSummaryStats:
    def test_hand_vector(self):
        vals = np.array([1.0, 2.0, 4.0])
        got = dict(zip(QUERY_STAT_NAMES, summary_stats(vals)))
        assert got["sum"] == pytest.approx(7.0)
        assert got["std"] == pytest.approx(float(np.std(vals)), rel=1e-12)
        assert got["max_min_ratio"] == pytest.approx(4.0)
        assert got["max"] == pytest.approx(4.0)
        assert got["amean"] == pytest.approx(7 / 3, rel=1e-12)
        assert got["gmean"] == pytest.approx(2.0, rel=1e-12)
        assert got["hmean"] == pytest.approx(12 / 7, rel=1e-12)
        assert got["cv"] == pytest.approx(float(np.std(vals)) / (7 / 3), rel=1e-12)

    def test_single_value(self):
        got = dict(zip(QUERY_STAT_NAMES, summary_stats(np.array([3.0]))))
        assert got["std"] == 0.0
        assert got["max_min_ratio"] == pytest.approx(1.0)
        assert got["gmean"] == pytest.approx(3.0, rel=1e-12)

    def test_nonpositive_values_floored(self):
        got = dict(zip(QUERY_STAT_NAMES, summary_stats(np.array([-2.0, 0.0, 1.0]))))
        assert np.all(np.isfinite(list(got.values())))
        assert got["sum"] == pytest.approx(-1.0)
        assert got["max"] == pytest.approx(1.0)

    def test_zero_mean_gives_zero_cv(self):
        got = dict(zip(QUERY_STAT_NAMES, summary_stats(np.array([-1.0, 1.0]))))
        assert got["cv"] == 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="^cannot summarize an empty value list$"):
            summary_stats([])


def kinds(doc_id, index, f):
    """A document's homogeneity row by kind."""
    return dict(zip(HOMOGENEITY_KINDS, homogeneity(doc_id, index, f)))


class TestHomogeneity:
    F = FilterSpec.window(10)

    def test_all_scores_in_unit_interval(self):
        rng = np.random.default_rng(17)
        docs = random_documents(rng, 100, vocab_size=30, min_len=1, max_len=200)
        idx = build_index(docs)
        for doc_id in idx.doc_ids:
            for kind, v in kinds(doc_id, idx, self.F).items():
                assert 0.0 <= v <= 1.0, (doc_id, kind, v)

    def test_length_extrema(self):
        docs = [Document("dshort", ("a",) * 5),
                Document("dmid", ("a",) * 50),
                Document("dlong", ("a",) * 500)]
        idx = build_index(docs)
        assert kinds("dlong", idx, self.F)["length"] == 0.0
        assert kinds("dshort", idx, self.F)["length"] == 1.0

    def test_length_degenerate_same_lengths(self):
        docs = [Document("d1", ("a",) * 9), Document("d2", ("b",) * 9)]
        idx = build_index(docs)
        assert kinds("d1", idx, self.F)["length"] == 1.0

    def test_entropy_single_term_doc(self):
        docs = [Document("d1", ("a",) * 40), Document("d2", ("a", "b", "c", "d"))]
        idx = build_index(docs)
        assert kinds("d1", idx, self.F)["ent"] == 1.0

    def test_entropy_all_distinct_terms_is_zero(self):
        docs = [Document("d1", tuple(f"u{i}" for i in range(30))),
                Document("d2", ("x",) * 30)]
        idx = build_index(docs)
        assert kinds("d1", idx, self.F)["ent"] == pytest.approx(0.0, abs=1e-12)

    def test_entropy_length_one_doc(self):
        docs = [Document("d1", ("a",)), Document("d2", ("a", "b"))]
        idx = build_index(docs)
        assert kinds("d1", idx, self.F)["ent"] == 1.0

    def test_identical_passages_fully_homogeneous(self):
        block = ("a", "b", "c", "d", "e") * 2
        docs = [Document("d1", block * 4), Document("d2", ("x", "y") * 20)]
        idx = build_index(docs)
        h = kinds("d1", idx, FilterSpec(10, 10))
        assert h["intpsg"] == pytest.approx(1.0, rel=1e-12)
        assert h["docpsg"] == pytest.approx(1.0, rel=1e-12)

    def test_single_passage_convention(self):
        docs = [Document("d1", ("a", "b")), Document("d2", ("c",) * 30)]
        idx = build_index(docs)
        h = kinds("d1", idx, self.F)
        assert h["intpsg"] == 1.0

    def test_disjoint_passages_score_zero(self):
        # idf of a term in every document is ln(1) = 0, so pad with a
        # second doc that shares nothing
        docs = [Document("d1", ("a",) * 10 + ("b",) * 10),
                Document("d2", ("z",) * 10)]
        idx = build_index(docs)
        h = kinds("d1", idx, FilterSpec(10, 10))
        assert h["intpsg"] == pytest.approx(0.0, abs=1e-12)

    def test_row_matches_names(self):
        docs = [Document("d1", ("a", "b") * 10), Document("d2", ("c",) * 7)]
        idx = build_index(docs)
        row = homogeneity("d1", idx, self.F)
        assert row.dtype == np.float64 and row.shape == (4,)
        assert HOMOGENEITY_NAMES == tuple(f"h_{k}" for k in HOMOGENEITY_KINDS)
        by_name = dict(zip(HOMOGENEITY_NAMES, row))
        assert by_name["h_length"] == 0.0  # the longest document
        assert by_name["h_ent"] == pytest.approx(1 - math.log(2) / math.log(20),
                                                 rel=1e-12)

    def test_infinite_filter_rejected(self, tiny_index):
        with pytest.raises(ValueError):
            homogeneity("d1", tiny_index, FilterSpec.whole_document())


class TestListFeature:
    def test_mean_top_scores(self):
        assert mean_top_scores([1.0, 5.0, 3.0], 2) == pytest.approx(4.0)
        assert mean_top_scores([1.0, 5.0, 3.0], 10) == pytest.approx(3.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_top_scores([], 5)

    def test_list_feature_matches_retrieval(self, small_random_index):
        from passagerank import rank_documents
        q = Query("q", ("t1", "t4"))
        s = SmoothingConfig(0.5)
        got = list_feature(q, small_random_index, k=10, s=s)
        run = rank_documents(q, small_random_index, s, top_k=10)
        assert got == pytest.approx(np.mean([sc for _, sc in run]), rel=1e-12)


class TestScoreSettings:
    @staticmethod
    def save_model(path, settings, meta):
        names = feature_names(settings.feature_set)
        n_f, n_h = len(FILTERS), len(names)
        FusionModel(FILTERS, names, np.zeros((n_f, n_h)), 0.0,
                    AffineNorm(np.zeros(n_f), np.ones(n_f)),
                    AffineNorm(np.zeros(n_h), np.ones(n_h)), meta).save(path)
        return FusionModel.load(path)

    # the pooling key of a model saved before max became the only
    # pooling: "max" loads, anything else is refused with the path
    @pytest.mark.parametrize("pooling", ["max", "mean"])
    @pytest.mark.parametrize("feature_set", FEATURE_SETS)
    def test_model_file_round_trip(self, tmp_path, feature_set, pooling):
        want = ScoreSettings(FILTERS, SmoothingConfig(0.3, 2), feature_set,
                             None if feature_set == "query" else FilterSpec(40, 10), 7)
        path = tmp_path / "model.json"
        assert "pooling" not in want.meta()
        model = self.save_model(path, want, want.meta())
        assert ScoreSettings.from_model(model, path) == want
        legacy = self.save_model(path, want, {**want.meta(), "pooling": pooling})
        if pooling == "max":
            assert ScoreSettings.from_model(legacy, path) == want
        else:
            with pytest.raises(ValueError, match=f"^model file {re.escape(str(path))}: "
                                                 f"pooling must be 'max'.*'{pooling}'"):
                ScoreSettings.from_model(legacy, path)

    @pytest.mark.parametrize("feature_set,hom,list_k,message", [
        ("everything", FilterSpec(10, 5), 1, "unknown feature set"),
        ("doc", None, 1, "document features need a finite"),
        ("doc+query", FilterSpec.whole_document(), 1,
         "document features need a finite"),
        ("query", FilterSpec(10, 5), 1, "query features take no"),
        ("query", None, 0, "list_k must be >= 1, got 0"),
    ], ids=["feature-set", "doc-none", "doc+query-inf", "query-filter", "list-k"])
    def test_rejects(self, feature_set, hom, list_k, message):
        with pytest.raises(ValueError, match=message):
            ScoreSettings(FILTERS, SmoothingConfig(), feature_set, hom, list_k)


class TestFeatureNamesAndExtractor:
    def test_set_sizes(self):
        assert len(feature_names("doc")) == 4
        assert len(feature_names("query")) == 25
        assert len(feature_names("doc+query")) == 29

    def test_unknown_set_raises(self):
        with pytest.raises(ValueError):
            feature_names("everything")

    def test_matrix_layout(self, small_random_index):
        idx = small_random_index
        ex = FeatureExtractor(idx, score_settings("doc+query", FilterSpec.window(10)))
        q = Query("q", ("t1", "t2"))
        doc_ids = list(idx.doc_ids[:4])
        H = ex.matrix(q, doc_ids, run_scores=[-3.5])
        assert H.shape == (4, 29)
        # doc block varies by row, query block is constant
        assert not np.allclose(H[0, :4], H[1, :4])
        assert np.array_equal(H[0, 4:], H[1, 4:])
        assert H[0, -1] == -3.5

    def test_query_only_matrix(self, small_random_index):
        ex = FeatureExtractor(small_random_index, score_settings("query", None))
        H = ex.matrix(Query("q", ("t1",)), list(small_random_index.doc_ids[:3]),
                      run_scores=[1.0])
        assert H.shape == (3, 25)
        assert np.array_equal(H[0], H[2])

    @pytest.mark.parametrize("feature_set", FEATURE_SETS)
    def test_matrix_matches_fuse_features(self, small_random_index, feature_set):
        idx = small_random_index
        # a repeated term, and one the corpus lacks, which counts with the floor
        q = Query("q", ("t3", "t1", "t3", "unseen"))
        hom = None if feature_set == "query" else FilterSpec(10, 4)
        s = score_settings(feature_set, hom, list_k=5, oov_floor=3)
        run_scores = [-float(i % 7) - 0.25 * i for i in range(len(idx.doc_ids))]
        H = FeatureExtractor(idx, s).matrix(q, idx.doc_ids, run_scores)
        want = np.array([fuse_features(q, d, idx, s, run_scores) for d in idx.doc_ids])
        assert H.shape == want.shape == (len(idx.doc_ids), len(feature_names(feature_set)))
        np.testing.assert_allclose(H, want, rtol=1e-12, atol=0)

    def test_one_homogeneity_cache_per_index(self, small_random_index,
                                             monkeypatch):
        idx = small_random_index
        calls = []

        def counted(doc_id, index, f, kinds):
            calls.append((doc_id, f, kinds))
            return homogeneity(doc_id, index, f, kinds)

        monkeypatch.setattr(features, "homogeneity", counted)
        ex = FeatureExtractor(idx, score_settings("doc", FilterSpec.window(10)))
        first, second = list(idx.doc_ids[:8]), list(idx.doc_ids[4:12])
        H1 = ex.matrix(Query("q1", ("t1",)), first, 0.0)
        H2 = ex.matrix(Query("q2", ("t2",)), second, 0.0)
        assert sorted(d for d, _, _ in calls) == sorted(idx.doc_ids[:12])
        assert {(f, k) for _, f, k in calls} == {(FilterSpec(10, 5), HOMOGENEITY_KINDS)}
        assert np.array_equal(H1[4:], H2[:4])
        # msp_rank reads the same cache for its one kind, a key of its own
        for _ in range(2):
            ranked = msp_rank(Query("q3", ("t3",)), first + second[4:], idx, 10,
                              "intpsg")
            assert len(ranked) == 12
            assert len(calls) == 12 + 12
        assert {k for _, _, k in calls[12:]} == {("intpsg",)}
        # a second filter is a second key
        msp_rank(Query("q3", ("t3",)), first, idx, 20, "intpsg")
        assert len(calls) == 24 + 8

    def test_write_feature_matrix(self, tmp_path, small_random_index):
        idx = small_random_index
        ex = FeatureExtractor(idx, score_settings("doc", FilterSpec.window(10)))
        rows = []
        for d in idx.doc_ids[:3]:
            rows.append(("7", d, ex.matrix(Query("q", ("t1",)), [d], 0.0)[0]))
        out = tmp_path / "features.tsv"
        write_feature_matrix(out, ex.names, rows)
        lines = out.read_text().splitlines()
        assert lines[0].split("\t") == ["query_id", "doc_id", *ex.names]
        assert len(lines) == 4
        got = np.array([float(x) for x in lines[1].split("\t")[2:]])
        assert got == pytest.approx(rows[0][2], rel=1e-10)

    def test_write_feature_matrix_dimension_error(self, tmp_path):
        with pytest.raises(ValueError):
            write_feature_matrix(tmp_path / "x.tsv", ("a", "b"),
                                 [("1", "d", np.zeros(3))])
