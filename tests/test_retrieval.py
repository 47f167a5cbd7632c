"""Whole-document query likelihood scoring and candidate ranking."""

import math

import numpy as np
import pytest

from passagerank import (Document, FilterSpec, Query, SmoothingConfig, _accel, build_index,
                         ql_scores, rank_documents)
from passagerank.evaluation import rank_by_score
from passagerank.passages import score_tokens
from passagerank.retrieval import QueryContext
from reference import index_document

S05 = SmoothingConfig(0.5)


def brute_ql(query, doc, index, lam):
    total = 0.0
    for t in query.terms:
        tf = doc.terms.count(t)
        cf = index.corpus_freq(t)
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

    def test_eq1_has_one_owner(self, small_random_index, monkeypatch):
        """Ranking documents and scoring spans both evaluate eq. 1 through
        ``_accel.lm_scores``: one call per query over every document, and
        one per filter over a batch's spans."""
        idx, calls = small_random_index, []
        real = _accel.lm_scores

        def counted(counts, n, background, one_minus_lam):
            calls.append(counts.shape)
            return real(counts, n, background, one_minus_lam)

        monkeypatch.setattr(_accel, "lm_scores", counted)
        q = Query("q", ("t1", "t5", "t5", "zz"))
        ranked = rank_documents(q, idx, S05, top_k=5)
        assert calls == [(4, idx.num_docs)]
        tokens, lengths = idx.batch_tokens(idx.doc_ids)
        filters = (FilterSpec(10, 5), FilterSpec.whole_document())
        columns = score_tokens(QueryContext(q, idx, S05), tokens, filters, lengths)
        n_spans = int(_accel.span_layout(lengths, 10, 5)[0].sum())
        assert calls[1:] == [(4, n_spans), (4, idx.num_docs)]
        whole = dict(zip(idx.doc_ids, columns[:, 1].tolist()))
        assert ranked == rank_by_score(list(whole), list(whole.values()))[:5]

    def test_tiny_corpus_value(self, tiny_index):
        # d1 = [a b a]: 0.5*2/3 + 0.5*4/10 = 8/15
        q = Query("q", ("a",))
        scores = ql_scores(q, tiny_index, S05)
        i = tiny_index.doc_index("d1")
        assert scores[i] == pytest.approx(math.log(8 / 15), rel=1e-12)

    def test_unseen_term_counts_once(self, small_random_index):
        # an unseen term adds log(lambda_c * 1 / |C|) to every document
        idx = small_random_index
        with_unseen = ql_scores(Query("q", ("t1", "zz")), idx, S05)
        without = ql_scores(Query("q", ("t1",)), idx, S05)
        np.testing.assert_allclose(with_unseen - without,
                                   math.log(0.5 / idx.total_len), rtol=1e-12)

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

    def test_top_k_below_one_rejected(self, small_random_index):
        with pytest.raises(ValueError, match="^top_k must be >= 1, got 0$"):
            rank_documents(Query("q", ("t1",)), small_random_index, S05, top_k=0)

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
