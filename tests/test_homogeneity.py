"""Closed-form document homogeneity against the pairwise-cosine oracle."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passagerank import Document, FilterSpec, build_index
from passagerank.features import HOMOGENEITY_KINDS, cached_homogeneity, homogeneity
from conftest import planted_corpus, random_documents
from reference import extract_passages, homogeneity_pairwise

TOL = 1e-12
FILTERS = [FilterSpec(50, 25), FilterSpec(10, 10), FilterSpec(150, 75),
           FilterSpec(7, 3)]  # 7:3 leaves stride and window out of step
ORDERED_KINDS = [kinds for r in range(1, len(HOMOGENEITY_KINDS) + 1)
                 for kinds in itertools.permutations(HOMOGENEITY_KINDS, r)]


def assert_matches_oracle(index, doc_ids, f):
    for doc_id in doc_ids:
        got = homogeneity(doc_id, index, f)
        want = homogeneity_pairwise(doc_id, index, f)
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL,
                                   err_msg=f"{doc_id} at {f.label}")


@pytest.fixture(scope="module")
def planted_index():
    # 60 documents, so query and background terms miss some of them and
    # carry a positive idf
    docs, _, _ = planted_corpus(n_queries=6, n_docs=60, doc_len=1100,
                                bg_vocab=500, seed=0)
    return build_index(docs)


@pytest.fixture(scope="module")
def random_index():
    rng = np.random.default_rng(5)
    return build_index(random_documents(rng, 40, vocab_size=25, min_len=1,
                                        max_len=300))


class TestMatchesPairwiseOracle:
    @pytest.mark.parametrize("f", FILTERS, ids=lambda f: f.label)
    def test_planted_corpus(self, planted_index, f):
        # relevant, distractor and background documents; the O(P^2)
        # oracle is too slow at 7:3 for the whole corpus
        assert_matches_oracle(planted_index, ["d000", "d001", "d040", "d059"], f)

    @pytest.mark.parametrize("f", FILTERS, ids=lambda f: f.label)
    def test_random_corpus(self, random_index, f):
        assert_matches_oracle(random_index, random_index.doc_ids, f)

    @settings(max_examples=150, deadline=None)
    @given(docs=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=60),
                         min_size=1, max_size=4),
           m=st.integers(1, 16), data=st.data())
    def test_random_tokens_and_filters(self, docs, m, data):
        f = FilterSpec(m, data.draw(st.integers(1, m), label="tau"))
        index = build_index([Document(f"d{i}", tuple(f"t{t}" for t in toks))
                             for i, toks in enumerate(docs)])
        assert_matches_oracle(index, index.doc_ids, f)


class TestEdgeCases:
    def test_spans_of_zero_idf_terms(self):
        # "a" is in every document, so the first two spans are zero
        # vectors: only their own pair scores 1 (cos(0,0)=1), and only the
        # third span matches the document
        index = build_index([Document("d1", ("a",) * 20 + ("b",) * 10),
                             Document("d2", ("a", "c"))])
        f = FilterSpec(10, 10)
        _, _, intpsg, docpsg = homogeneity("d1", index, f)
        assert intpsg == pytest.approx(1 / 3, abs=TOL)
        assert docpsg == pytest.approx(1 / 3, abs=TOL)
        assert_matches_oracle(index, ["d1"], f)

    def test_document_shorter_than_window(self):
        index = build_index([Document("d1", ("a", "b", "c")),
                             Document("d2", ("c",) * 30)])
        f = FilterSpec(10, 5)
        assert len(extract_passages(3, f)) == 1
        _, _, intpsg, docpsg = homogeneity("d1", index, f)
        assert intpsg == 1.0
        assert docpsg == pytest.approx(1.0, abs=TOL)
        assert_matches_oracle(index, ["d1"], f)

    def test_zero_document_vector(self):
        # every term occurs in every document: all vectors are zero
        index = build_index([Document("d1", ("a", "b") * 12),
                             Document("d2", ("b", "a", "a"))])
        f = FilterSpec(10, 5)
        _, _, intpsg, docpsg = homogeneity("d1", index, f)
        assert (intpsg, docpsg) == (1.0, 1.0)
        assert_matches_oracle(index, ["d1"], f)

    def test_truncated_final_spans(self):
        # 23 - 10 is not a multiple of 4: the final span is not truncated
        # at the document end but starts at 13, one past the last stride
        rng = np.random.default_rng(11)
        index = build_index(random_documents(rng, 12, vocab_size=8,
                                             min_len=23, max_len=23))
        f = FilterSpec(10, 4)
        assert [(s.start, s.length) for s in extract_passages(23, f)] == [
            (0, 10), (4, 10), (8, 10), (12, 10), (13, 10)]
        assert_matches_oracle(index, index.doc_ids, f)

    @pytest.mark.parametrize("shortest, longest", [(9_170, 20_000), (19_143, 30_000),
                                                   (100, 19_143)])
    def test_length_extremes_are_exact(self, shortest, longest):
        # np.log and math.log disagree by an ulp at 9,170 and 19,143
        # tokens; one log for the corpus extremes and the document keeps
        # h_length exactly 1 at the shortest and 0 at the longest
        index = build_index([Document("short", ("a",) * shortest),
                             Document("long", ("a", "b") * (longest // 2))])
        f = FilterSpec(50, 25)
        assert homogeneity("short", index, f, ("length",))[0] == 1.0
        assert homogeneity("long", index, f, ("length",))[0] == 0.0


def assert_kinds_match_full_row(index, doc_id, f, orders=ORDERED_KINDS):
    full = homogeneity(doc_id, index, f)
    for kinds in orders:
        cols = [HOMOGENEITY_KINDS.index(k) for k in kinds]
        got = homogeneity(doc_id, index, f, kinds)
        assert got.tobytes() == full[cols].tobytes(), (doc_id, f.label, kinds)


class TestPerKind:
    """A row of some kinds is, bit for bit, those columns of the full row."""

    @pytest.mark.parametrize("f", [FilterSpec(8, 4), FilterSpec(4, 4)],
                             ids=lambda f: f.label)
    def test_every_ordered_subset(self, f):
        # "a" is in every document, so it has idf 0 and "zero" has only
        # all-zero span vectors
        lengths = {"one": 1, "below_tau": 3, "tau": 4, "m": 8, "many": 30}
        docs = [Document(name, ("a",) + tuple(f"t{i % 5}" for i in range(n - 1)))
                for name, n in lengths.items()]
        index = build_index(docs + [Document("zero", ("a",) * 12)])
        assert len(extract_passages(4, f)) == 1
        for doc_id in index.doc_ids:
            assert_kinds_match_full_row(index, doc_id, f)

    @settings(max_examples=100, deadline=None)
    @given(docs=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=60),
                         min_size=1, max_size=4),
           m=st.integers(1, 16), order=st.permutations(HOMOGENEITY_KINDS),
           data=st.data())
    def test_random_tokens_filters_and_kinds(self, docs, m, order, data):
        f = FilterSpec(m, data.draw(st.integers(1, m), label="tau"))
        kinds = tuple(order[:data.draw(st.integers(1, len(order)), label="r")])
        index = build_index([Document(f"d{i}", tuple(f"t{t}" for t in toks))
                             for i, toks in enumerate(docs)])
        for doc_id in index.doc_ids:
            assert_kinds_match_full_row(index, doc_id, f, [kinds])

    @pytest.mark.parametrize("kinds", [(), ("entropy",), ("ent", "none")])
    def test_unknown_or_no_kinds_raise(self, tiny_index, kinds):
        with pytest.raises(ValueError):
            homogeneity("d1", tiny_index, FilterSpec(2, 1), kinds)

    def test_cache_keys_on_kinds_and_their_order(self, tiny_index):
        f = FilterSpec(2, 1)
        ent = cached_homogeneity("d2", tiny_index, f, ("ent",))
        assert ent.shape == (1,)
        others = [HOMOGENEITY_KINDS, ("length",), ("ent", "length"),
                  ("length", "ent")]
        for kinds in others:
            row = cached_homogeneity("d2", tiny_index, f, kinds)
            assert row.tobytes() == homogeneity("d2", tiny_index, f, kinds).tobytes()
        assert cached_homogeneity("d2", tiny_index, f, ("ent",)) is ent
        assert set(tiny_index.homogeneity_rows) == {
            ("d2", f.m, f.tau, kinds) for kinds in [("ent",), *others]}

    def test_cache_keys_on_the_stride(self, tiny_index):
        rows = [cached_homogeneity("d2", tiny_index, FilterSpec(2, tau))
                for tau in (1, 2)]
        assert rows[0] is not rows[1]
        expect = homogeneity("d2", tiny_index, FilterSpec(2, 2))
        assert rows[1].tobytes() == expect.tobytes()
        assert rows[0][2] != rows[1][2]  # intpsg sees other spans


def test_peak_memory_stays_sparse():
    # 40k spans x 20k terms: a dense float64 span-term matrix is 6.4 GB
    rng = np.random.default_rng(0)
    vocab = [f"t{i}" for i in range(20_000)]
    terms = tuple(vocab[i] for i in rng.integers(0, len(vocab), size=200_000))
    index = build_index([Document("big", terms), Document("other", ("t0", "zz"))])
    assert len(index.vocab) > 19_000
    tracemalloc.start()
    try:
        homogeneity("big", index, FilterSpec(10, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
