"""Passage extraction, LM and kernel scoring, best-span scores, and MSP ranking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passagerank import Document, FilterSpec, Query, SmoothingConfig, build_index, msp_rank
from passagerank._accel import WHOLE
from passagerank.passages import combine_homogeneous, score_tokens
from passagerank.retrieval import QueryContext
from reference import (
    PassageSpan,
    build_matrix,
    combine_homogeneous_one,
    extract_passages,
    index_document,
    kernel_bias,
    kernel_lm_shift,
    kernel_score,
    lm_score,
    max_passage_lm,
    max_passage_lm_one,
    pool_document,
    score_batch,
    score_tokens_one,
    score_vector,
    whole_doc_lm_one,
)

S05 = SmoothingConfig(0.5)


class TestFilterSpec:
    def test_window_default_stride_is_half(self):
        f = FilterSpec.window(50)
        assert (f.m, f.tau) == (50, 25)
        assert not f.is_infinite

    def test_window_size_one(self):
        assert FilterSpec.window(1).tau == 1

    def test_whole_document(self):
        f = FilterSpec.whole_document()
        assert f == FilterSpec(WHOLE, WHOLE) == FilterSpec(2**62, 2**62)
        assert f.is_infinite
        assert f.label == "inf"

    def test_validation(self):
        with pytest.raises(ValueError, match="window length must be >= 1"):
            FilterSpec(0, 1)
        with pytest.raises(ValueError, match=r"window length must be < 2\*\*62, got \d+$"):
            FilterSpec.window(WHOLE)  # the whole-document window is inf
        with pytest.raises(ValueError):
            FilterSpec(10, -1)
        with pytest.raises(ValueError):
            FilterSpec(10, 11)  # stride beyond window would skip tokens

    def test_label_round_trip(self):
        assert FilterSpec.window(50).label == "50:25"

    def test_stride_is_required(self):
        # a default stride of 0 fit no finite window
        with pytest.raises(TypeError):
            FilterSpec(50)


class TestExtractPassages:
    def test_overlapping_spans_end_at_the_document_end(self):
        spans = extract_passages(5, FilterSpec(3, 2))
        assert [(s.start, s.length) for s in spans] == [(0, 3), (2, 3)]
        # 10 - 4 is not a multiple of 3: the last span starts at 6
        spans = extract_passages(10, FilterSpec(4, 3))
        assert [(s.start, s.length) for s in spans] == [(0, 4), (3, 4), (6, 4)]

    def test_non_overlapping(self):
        spans = extract_passages(6, FilterSpec(3, 3))
        assert [(s.start, s.length) for s in spans] == [(0, 3), (3, 3)]

    def test_window_longer_than_document(self):
        spans = extract_passages(3, FilterSpec(5, 2))
        assert [(s.start, s.length) for s in spans] == [(0, 3)]

    def test_infinite_is_single_span(self):
        spans = extract_passages(7, FilterSpec.whole_document())
        assert [(s.start, s.length) for s in spans] == [(0, 7)]

    def test_count_and_cover(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_d = int(rng.integers(1, 200))
            m = int(rng.integers(1, 60))
            tau = int(rng.integers(1, m + 1))
            spans = extract_passages(n_d, FilterSpec(m, tau))
            assert len(spans) == -(-max(n_d - m, 0) // tau) + 1
            assert {s.length for s in spans} == {min(n_d, m)}
            assert spans[0].start == 0
            assert spans[-1].start + spans[-1].length == n_d
            # every token is covered and no span holds another
            assert all(0 < b.start - a.start <= tau
                       for a, b in zip(spans, spans[1:]))


class TestScoringOracles:
    """Hand-worked values on the two-document fixture corpus."""

    def test_lm_score(self, tiny_index):
        # span [a b a], query (a): (1-0.5)*2/3 + 0.5*4/10 = 8/15
        q = Query("q", ("a",))
        doc = index_document(tiny_index, "d1")
        got = lm_score(q, PassageSpan(0, 3), doc, tiny_index, S05)
        assert got == pytest.approx(math.log(8 / 15), rel=1e-12)

    def test_kernel_bias(self):
        # 0.5 * 3 * 4 / (0.5 * 10) = 1.2
        assert kernel_bias(4, 3, S05, 10) == pytest.approx(1.2, rel=1e-12)

    def test_kernel_score(self, tiny_index):
        q = Query("q", ("a",))
        doc = index_document(tiny_index, "d1")
        m = build_matrix(q, doc)
        got = kernel_score(q, PassageSpan(0, 3), m, tiny_index, S05, 3)
        assert got == pytest.approx(math.log(2 + 1.2), rel=1e-12)

    def test_kernel_minus_shift_equals_lm(self, tiny_index):
        q = Query("q", ("a",))
        doc = index_document(tiny_index, "d1")
        m = build_matrix(q, doc)
        shift = kernel_lm_shift(q.n_q, 3, S05)
        assert shift == pytest.approx(math.log(6), rel=1e-12)
        lhs = kernel_score(q, PassageSpan(0, 3), m, tiny_index, S05, 3) - shift
        rhs = lm_score(q, PassageSpan(0, 3), doc, tiny_index, S05)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_equivalence_on_random_full_spans(self, small_random_index):
        rng = np.random.default_rng(5)
        idx = small_random_index
        for _ in range(200):
            di = int(rng.integers(0, idx.num_docs))
            doc = index_document(idx, idx.doc_ids[di])
            n_d = doc.n_d
            m_len = int(rng.integers(1, n_d + 1))
            start = int(rng.integers(0, n_d - m_len + 1))
            span = PassageSpan(start, m_len)
            n_terms = int(rng.integers(1, 5))
            terms = tuple(f"t{int(rng.integers(0, 25))}" for _ in range(n_terms))
            q = Query("q", terms)
            lam = float(rng.uniform(0.05, 0.95))
            s = SmoothingConfig(lam)
            mat = build_matrix(q, doc)
            k = kernel_score(q, span, mat, idx, s, m_len)
            shift = kernel_lm_shift(q.n_q, m_len, s)
            ref = lm_score(q, span, doc, idx, s)
            assert k - shift == pytest.approx(ref, rel=1e-11)


class TestPooling:
    def test_max(self):
        assert pool_document([-3.0, -1.0, -2.0]) == -1.0

    def test_single_span_pool_is_identity(self):
        assert pool_document([-2.5]) == -2.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            pool_document([])


class TestScoreVector:
    FILTERS = (FilterSpec.window(4), FilterSpec.window(6, 3),
               FilterSpec.whole_document())

    def test_shape_and_order(self, tiny_index):
        q = Query("q", ("a", "c"))
        vec = score_vector(q, index_document(tiny_index, "d2"), self.FILTERS,
                           tiny_index, S05)
        assert vec.shape == (3,)

    def test_lm_scale_infinite_matches_whole_doc(self, tiny_index):
        q = Query("q", ("a", "c"))
        doc = index_document(tiny_index, "d2")
        vec = score_vector(q, doc, (FilterSpec.whole_document(),), tiny_index,
                           S05, scale="lm")
        ref = lm_score(q, PassageSpan(0, doc.n_d), doc, tiny_index, S05)
        assert vec[0] == pytest.approx(ref, rel=1e-12)

    def test_lm_scale_matches_max_over_span_lms(self, small_random_index):
        idx = small_random_index
        q = Query("q", ("t1", "t3", "t3"))
        f = FilterSpec.window(8, 4)
        for doc_id in idx.doc_ids[:10]:
            doc = index_document(idx, doc_id)
            vec = score_vector(q, doc, (f,), idx, S05, scale="lm")
            # every span, a short document's single one too, shifts at
            # its own length
            mat = build_matrix(q, doc)
            ref = max(kernel_score(q, sp, mat, idx, S05, sp.length)
                      - kernel_lm_shift(q.n_q, sp.length, S05)
                      for sp in extract_passages(doc.n_d, f))
            assert vec[0] == pytest.approx(ref, rel=1e-11)
            direct = max(lm_score(q, sp, doc, idx, S05)
                         for sp in extract_passages(doc.n_d, f))
            assert vec[0] == pytest.approx(direct, rel=1e-11)

    def test_full_spans_lm_scale_equals_direct_lm(self, small_random_index):
        idx = small_random_index
        q = Query("q", ("t0", "t2"))
        f = FilterSpec.window(5, 5)
        doc_id = next(d for d in idx.doc_ids
                      if index_document(idx, d).n_d % 5 == 0)
        doc = index_document(idx, doc_id)
        vec = score_vector(q, doc, (f,), idx, S05, scale="lm")
        ref = max(lm_score(q, sp, doc, idx, S05)
                  for sp in extract_passages(doc.n_d, f))
        assert vec[0] == pytest.approx(ref, rel=1e-11)

    def test_accepts_doc_id(self, tiny_index):
        q = Query("q", ("a",))
        by_id = score_vector(q, "d1", self.FILTERS, tiny_index, S05)
        by_doc = score_vector(q, index_document(tiny_index, "d1"), self.FILTERS,
                              tiny_index, S05)
        assert np.array_equal(by_id, by_doc)

    def test_oov_terms_use_floor(self, tiny_index):
        q = Query("q", ("a", "never-seen"))
        vec = score_vector(q, "d1", self.FILTERS, tiny_index, S05)
        assert np.all(np.isfinite(vec))

    @pytest.mark.parametrize("scale", ["kernel", "lm"])
    def test_batch_rows_equal_single_documents(self, small_random_index, scale):
        idx = small_random_index
        ctx = QueryContext(Query("q", ("t1", "t3", "never-seen")), idx, S05)
        doc_ids = list(reversed(idx.doc_ids))[:12]
        tokens, lengths = idx.batch_tokens(doc_ids)
        batch = score_batch(ctx, tokens, self.FILTERS, scale, lengths)
        singles = np.vstack([
            score_tokens_one(ctx, idx.doc_tokens(idx.doc_index(d)), self.FILTERS, scale)
            for d in doc_ids])
        np.testing.assert_array_equal(batch, singles)


class TestQueryContext:
    def test_empty_query_raises(self, tiny_index):
        with pytest.raises(ValueError):
            QueryContext(Query("q", ()), tiny_index, S05)

    def test_zero_floor_oov_raises(self, tiny_index):
        with pytest.raises(ValueError):
            QueryContext(Query("q", ("missing",)), tiny_index, SmoothingConfig(0.5, 0))

    def test_background_and_bias(self, tiny_index):
        ctx = QueryContext(Query("q", ("a",)), tiny_index, S05)
        assert ctx.background[0] == pytest.approx(0.5 * 4 / 10, rel=1e-12)
        assert ctx.bias_coeff[0] == pytest.approx(0.5 * 4 / (0.5 * 10), rel=1e-12)


class TestCombineHomogeneous:
    def test_interpolates_in_probability_domain(self):
        lm_doc, lm_psg = math.log(0.2), math.log(0.6)
        got = combine_homogeneous([0.25], [lm_doc], [lm_psg])
        assert got[0] == pytest.approx(math.log(0.25 * 0.2 + 0.75 * 0.6), rel=1e-12)

    def test_exact_endpoints(self):
        assert combine_homogeneous([0.0, 1.0], [-5.0, -5.0], [-2.0, -2.0]).tolist() \
            == [-2.0, -5.0]

    def test_bad_h_raises(self):
        for h in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                combine_homogeneous([0.5, h], [-1.0, -1.0], [-1.0, -1.0])
            with pytest.raises(ValueError):
                combine_homogeneous_one(h, -1.0, -1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0),
                  st.floats(0.0, 1e-300), st.floats(1.0 - 1e-12, 1.0)),
        st.floats(-1e4, 0.0), st.floats(-1e4, 0.0)), max_size=40))
    def test_matches_the_scalar_oracle_bitwise(self, rows):
        h, lm_doc, lm_psg = (list(c) for c in zip(*rows)) if rows else ([], [], [])
        got = combine_homogeneous(h, lm_doc, lm_psg)
        want = np.array([combine_homogeneous_one(*r) for r in rows], dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        for k, (hk, doc, psg) in enumerate(rows):
            if hk in (0.0, 1.0):
                assert got[k] == (psg if hk == 0.0 else doc)

    def test_matches_the_scalar_oracle_on_a_large_batch(self):
        # numpy's array log differs from math.log in the last bit on a
        # fraction of a percent of such inputs, so a batch this size
        # catches an array log in place of the per-document one
        rng = np.random.default_rng(0)
        h = rng.random(20_000)
        h[::97], h[1::89] = 0.0, 1.0
        lm_doc, lm_psg = rng.uniform(-50.0, 0.0, (2, h.size))
        got = combine_homogeneous(h, lm_doc, lm_psg)
        want = [combine_homogeneous_one(*r) for r in zip(h.tolist(), lm_doc.tolist(),
                                                         lm_psg.tolist())]
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


class TestMspRank:
    @pytest.fixture
    def corpus(self):
        rng = np.random.default_rng(9)
        vocab = [f"t{i}" for i in range(12)]
        docs = [Document(f"d{i:02d}",
                         tuple(rng.choice(vocab, size=rng.integers(20, 80))))
                for i in range(25)]
        return build_index(docs)

    def test_orders_by_best_passage(self, corpus):
        q = Query("q", ("t1", "t2"))
        ranked = msp_rank(q, list(corpus.doc_ids), corpus, 10, s=S05)
        assert len(ranked) == corpus.num_docs
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)
        best_id = ranked[0][0]
        ctx = QueryContext(q, corpus, S05)
        f = FilterSpec.window(10)
        expect = max_passage_lm_one(ctx, corpus.doc_tokens(corpus.doc_index(best_id)),
                                    f.m, f.tau)
        assert ranked[0][1] == pytest.approx(expect, rel=1e-12)

    def test_ties_break_on_doc_id(self, tiny_index):
        docs = [Document("dB", ("a", "b")), Document("dA", ("a", "b")),
                Document("dC", ("x", "y"))]
        idx = build_index(docs)
        ranked = msp_rank(Query("q", ("a",)), ["dB", "dA", "dC"], idx, 5, s=S05)
        assert [d for d, _ in ranked][:2] == ["dA", "dB"]

    def test_homogeneity_zero_reproduces_base(self, corpus, fixed_homogeneity):
        q = Query("q", ("t3", "t5"))
        cands = list(corpus.doc_ids)
        base = msp_rank(q, cands, corpus, 10, s=S05)
        fixed_homogeneity(0.0)
        for kind in ("length", "ent", "intpsg", "docpsg"):
            locked = msp_rank(q, cands, corpus, 10, kind, s=S05)
            assert [d for d, _ in locked] == [d for d, _ in base]

    def test_homogeneity_one_reproduces_whole_doc(self, corpus, fixed_homogeneity):
        q = Query("q", ("t3", "t5"))
        cands = list(corpus.doc_ids)
        fixed_homogeneity(1.0)
        locked = msp_rank(q, cands, corpus, 10, "ent", s=S05)
        ctx = QueryContext(q, corpus, S05)
        ref = sorted(
            ((d, whole_doc_lm_one(ctx, corpus.doc_tokens(corpus.doc_index(d))))
             for d in cands),
            key=lambda t: (-t[1], t[0]))
        assert [d for d, _ in locked] == [d for d, _ in ref]

    def test_all_homogeneity_kinds_run(self, corpus):
        q = Query("q", ("t0", "t7"))
        cands = list(corpus.doc_ids)[:10]
        for kind in ("none", "length", "ent", "intpsg", "docpsg"):
            ranked = msp_rank(q, cands, corpus, 10, kind, s=S05)
            assert len(ranked) == 10
            assert all(np.isfinite(s) for _, s in ranked)

    @pytest.mark.parametrize("kind", ["none", "ent"])
    def test_scores_equal_single_document_scores(self, corpus, kind,
                                                 fixed_homogeneity):
        q = Query("q", ("t1", "t4"))
        cands = list(corpus.doc_ids)[::-1][:15]
        h = None if kind == "none" else 0.5
        if h is not None:
            fixed_homogeneity(h)
        ranked = dict(msp_rank(q, cands, corpus, 10, kind, s=S05))
        ctx = QueryContext(q, corpus, S05)
        for d in cands:
            tokens = corpus.doc_tokens(corpus.doc_index(d))
            # bitwise against the one-document kernel path, and within
            # rounding of the LM form of the same best passage
            best = score_tokens_one(ctx, tokens, (FilterSpec(10, 5),), "lm")[0]
            lm_form = max_passage_lm_one(ctx, tokens, 10, 5)
            if h is not None:
                whole = whole_doc_lm_one(ctx, tokens)
                best = combine_homogeneous_one(h, whole, best)
                lm_form = combine_homogeneous_one(h, whole, lm_form)
            assert ranked[d] == best
            assert ranked[d] == pytest.approx(lm_form, rel=1e-12)

    def test_window_position_does_not_move_the_score(self):
        # "x" as the last token of a 51-token document and at token 10 of
        # another: both lie in one full 50-token window
        filler = tuple(f"w{i}" for i in range(50))
        docs = [Document("end", filler[:50] + ("x",)),
                Document("mid", filler[:10] + ("x",) + filler[10:50])]
        idx = build_index(docs)
        q = Query("q", ("x",))
        ranked = dict(msp_rank(q, ["end", "mid"], idx, 50, s=S05))
        assert ranked["end"] == ranked["mid"]
        span = lm_score(q, PassageSpan(1, 50), index_document(idx, "end"), idx, S05)
        assert ranked["end"] == pytest.approx(span, rel=1e-12)

    @pytest.mark.parametrize("m,tau", [(10, 5), (8, 3), (50, 25), (7, 7)])
    def test_best_span_is_the_max_pooled_lm_column(self, small_random_index, m, tau):
        # documents of 5 to 60 tokens: shorter than m, and L - m a
        # multiple of tau or not
        idx = small_random_index
        tokens, lengths = idx.batch_tokens(idx.doc_ids)
        for terms in (("t1",), ("t2", "t5", "t2"), ("t0", "never-seen")):
            ctx = QueryContext(Query("q", terms), idx, S05)
            best = max_passage_lm(ctx, tokens, m, tau, lengths)
            column = score_tokens(ctx, tokens, (FilterSpec(m, tau),), lengths)
            np.testing.assert_allclose(best, column[:, 0], rtol=1e-12, atol=0)

    def test_no_candidates(self, corpus):
        assert msp_rank(Query("q", ("t0",)), [], corpus, 10, "ent", s=S05) == []

    def test_unknown_candidate_raises(self, corpus):
        with pytest.raises(Exception):
            msp_rank(Query("q", ("t0",)), ["missing"], corpus, 10, s=S05)

    def test_unknown_homogeneity_kind_raises(self, corpus):
        with pytest.raises(ValueError, match="^unknown homogeneity kind 'size'$"):
            msp_rank(Query("q", ("t0",)), ["d00"], corpus, 10, "size", s=S05)
