"""Whole-document query likelihood scoring and candidate ranking."""

import math

import numpy as np
import pytest

from passagerank import Document, Query, SmoothingConfig, build_index, ql_scores, rank_documents
from passagerank.evaluation import rank_by_score
from reference import index_document

S05 = SmoothingConfig(0.5)


def brute_ql(query, doc, index, lam, floor=1):
    total = 0.0
    for t in query.terms:
        tf = doc.terms.count(t)
        cf = index.corpus_freq(t, floor)
        total += math.log((1 - lam) * tf / doc.n_d + lam * cf / index.total_len)
    return total


class TestQlScores:
    def test_matches_brute_force(self, small_random_index):
        idx = small_random_index
        q = Query("q", ("t1", "t5", "t5", "zz"))
        scores = ql_scores(q, idx, S05)
        assert scores.shape == (idx.num_docs,)
        for i, doc_id in enumerate(idx.doc_ids):
            ref = brute_ql(q, index_document(idx, doc_id), idx, 0.5)
            assert scores[i] == pytest.approx(ref, rel=1e-12)

    def test_tiny_corpus_value(self, tiny_index):
        # d1 = [a b a]: 0.5*2/3 + 0.5*4/10 = 8/15
        q = Query("q", ("a",))
        scores = ql_scores(q, tiny_index, S05)
        i = tiny_index.doc_index("d1")
        assert scores[i] == pytest.approx(math.log(8 / 15), rel=1e-12)

    def test_oov_floor_comes_from_the_smoothing(self, small_random_index):
        idx = small_random_index
        q = Query("q", ("t1", "zz"))
        scores = ql_scores(q, idx, SmoothingConfig(0.5, 3))
        for i, doc_id in enumerate(idx.doc_ids[:5]):
            ref = brute_ql(q, index_document(idx, doc_id), idx, 0.5, floor=3)
            assert scores[i] == pytest.approx(ref, rel=1e-12)
        with pytest.raises(ValueError, match="OOV floor 0"):
            ql_scores(q, idx, SmoothingConfig(0.5, 0))

    def test_negative_oov_floor_rejected(self):
        with pytest.raises(ValueError, match="oov_floor must be >= 0"):
            SmoothingConfig(0.5, -1)

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            SmoothingConfig(0.0)
        with pytest.raises(ValueError):
            SmoothingConfig(1.0)


class TestRankDocuments:
    def test_descending_with_id_tie_break(self):
        docs = [
            Document("dB", ("a", "x")),
            Document("dA", ("a", "x")),
            Document("dC", ("a", "a")),
            Document("dD", ("x", "y")),
        ]
        idx = build_index(docs)
        ranked = rank_documents(Query("q", ("a",)), idx, S05)
        ids = [d for d, _ in ranked]
        assert ids[0] == "dC"            # two matches beat one
        assert ids[1:3] == ["dA", "dB"]  # equal scores, id order
        assert ids[3] == "dD"
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_truncates(self, small_random_index):
        ranked = rank_documents(Query("q", ("t1",)), small_random_index, S05,
                                top_k=5)
        assert len(ranked) == 5

    def test_deterministic(self, small_random_index):
        q = Query("q", ("t2", "t9"))
        a = rank_documents(q, small_random_index, S05)
        b = rank_documents(q, small_random_index, S05)
        assert a == b


def test_top_k_is_the_head_of_rank_by_score():
    """Every cut of a ranking indexed in reverse id order, where each tie
    group straddles some k, is the head of ``rank_by_score``'s order."""
    terms = [("a", "a", "x")] + [("a", "x")] * 5 + [("x", "y")] * 4
    docs = [Document(f"d{i:02d}", t) for i, t in enumerate(terms)]
    idx = build_index(reversed(docs))
    # "zz" is in no document, so every document scores the same
    for q, groups in ((Query("q", ("a",)), 3), (Query("o", ("zz",)), 1)):
        scores = ql_scores(q, idx, S05)
        assert len(set(scores.tolist())) == groups
        full = rank_by_score(idx.doc_ids, scores)
        for k in range(1, idx.num_docs + 2):
            assert rank_documents(q, idx, S05, k) == full[:k]
