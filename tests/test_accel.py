"""The batched numpy kernels against the plain-Python loop kernels.

The loop versions in ``reference`` score one document at a time from
prefix-sum match counts, so every comparison is between two different
implementations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passagerank import _accel, backend_name
from passagerank.passages import WHOLE, FilterSpec
from reference import (
    extract_passages,
    kernel_filter_scores_loop,
    lm_span_scores_loop,
    match_counts,
    window_of,
)

# lengths that hit the edges of the filters below: a single token,
# shorter than m, equal to m, and L - m a multiple of tau or not
EDGE_LENGTHS = (1, 2, 3, 6, 7, 8, 9, 24, 25, 50, 51, 62, 75)


def random_batch(rng, vocab=40, max_docs=5, max_len=300, max_q=8):
    n_docs = int(rng.integers(1, max_docs + 1))
    lengths = np.array(
        [int(rng.choice(EDGE_LENGTHS)) if rng.random() < 0.5
         else int(rng.integers(1, max_len + 1)) for _ in range(n_docs)],
        dtype=np.int64,
    )
    tokens = rng.integers(0, vocab, size=int(lengths.sum()), dtype=np.int32)
    n_q = int(rng.integers(1, max_q + 1))
    query = rng.integers(-1, vocab, size=n_q).astype(np.int32)  # -1: OOV
    bias = rng.uniform(1e-6, 2.0, size=n_q)
    return tokens, lengths, query, bias


FILTERS = (FilterSpec(7, 3), FilterSpec(50, 25), FilterSpec.whole_document())


def split(tokens, lengths):
    bounds = np.cumsum(lengths)[:-1]
    return np.split(tokens, bounds)


def worst_relative(a, b) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-30)))


class TestMatchCounts:
    def test_prefix_sums_match_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tokens, _, query, _ = random_batch(rng, max_docs=1, max_len=80)
            cum = match_counts(tokens, query)
            assert cum.shape == (query.size, tokens.size + 1)
            for i, q in enumerate(query):
                for j in range(tokens.size + 1):
                    assert cum[i, j] == int((tokens[:j] == q).sum())

    def test_oov_ids_never_match(self):
        doc = np.array([-1, 3, -1], dtype=np.int32)
        query = np.array([3, 7], dtype=np.int32)
        cum = match_counts(doc, query)
        assert cum[0].tolist() == [0, 0, 1, 1]
        assert cum[1].tolist() == [0, 0, 0, 0]
        doc = np.array([0, 3, 5], dtype=np.int32)
        query = np.array([3, -1], dtype=np.int32)
        wc = _accel.window_counts(_accel.match_positions(doc, query),
                                  np.array([0]), np.array([3]))
        assert wc.tolist() == [[1], [0]]

    def test_active_backend_agrees(self):
        """Window counts from sorted match positions equal differences of
        the loop prefix sums, for every span of every document."""
        rng = np.random.default_rng(1)
        for _ in range(30):
            tokens, lengths, query, _ = random_batch(rng, max_len=120)
            positions = _accel.match_positions(tokens, query)
            for f in FILTERS:
                starts, ends, counts, _ = _accel.span_grid(lengths, *window_of(f))
                wc = _accel.window_counts(positions, starts, ends)
                expect = []
                for doc in split(tokens, lengths):
                    cum = match_counts(doc, query)
                    for sp in extract_passages(doc.size, f):
                        expect.append(cum[:, sp.start + sp.length] - cum[:, sp.start])
                np.testing.assert_array_equal(wc, np.array(expect).T)
                assert counts.sum() == wc.shape[1]


class TestKernelTwins:
    MS = np.array([3, 7, 50, WHOLE], dtype=np.int64)
    TAUS = np.array([1, 3, 25, WHOLE], dtype=np.int64)

    @pytest.mark.parametrize("mean_pool", [False, True])
    def test_kernel_filter_scores(self, mean_pool):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            tokens, lengths, query, bias = random_batch(rng)
            args = (tokens, query, bias, self.MS, self.TAUS, mean_pool, lengths)
            a = _accel.kernel_filter_scores(*args)
            b = kernel_filter_scores_loop(*args)
            assert a.shape == b.shape == (lengths.size, self.MS.size)
            worst = max(worst, worst_relative(a, b))
        assert worst < 1e-12

    @pytest.mark.parametrize("m,tau", [
        (5, 2), (50, 25), pytest.param(WHOLE, WHOLE, id="inf")])
    def test_lm_span_scores(self, m, tau):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            tokens, lengths, query, _ = random_batch(rng)
            bg = rng.uniform(1e-8, 0.5, size=query.size)
            args = (tokens, query, bg, 0.5, m, tau, lengths)
            a = _accel.lm_span_scores(*args)
            b = lm_span_scores_loop(*args)
            assert a.shape == b.shape == (_accel.span_layout(lengths, m, tau)[0].sum(),)
            worst = max(worst, worst_relative(a, b))
        assert worst < 1e-12

    def test_span_counts(self):
        doc = np.arange(10, dtype=np.int32)
        query = np.array([0], dtype=np.int32)
        bg = np.array([0.1])
        # at 7:3, spans [0, 7) and [3, 10): ceil((10 - 7) / 3) + 1; a
        # single span for the whole doc
        one = np.array([10])
        assert _accel.lm_span_scores(doc, query, bg, 0.5, 7, 3, one).size == 2
        assert _accel.lm_span_scores(doc, query, bg, 0.5, WHOLE, WHOLE, one).size == 1
        # at 4:3, [0, 4), [3, 7) and [6, 10), the last not at a multiple of 3
        assert _accel.span_grid(one, 4, 3)[0].tolist() == [0, 3, 6]
        lengths = np.array([10, 3, 1, 7, 8])
        tokens = np.zeros(29, dtype=np.int32)
        assert _accel.lm_span_scores(tokens, query, bg, 0.5, 7, 3, lengths).size == 7
        assert _accel.span_layout(lengths, 7, 3)[0].tolist() == [2, 1, 1, 1, 2]
        assert _accel.span_layout(lengths, 7, 3)[1].tolist() == [0, 2, 3, 4, 5]
        assert _accel.span_layout(lengths, WHOLE, WHOLE)[1].tolist() == [0, 1, 2, 3, 4]

    def test_span_grid_matches_extract_passages(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            _, lengths, _, _ = random_batch(rng)
            for f in (*FILTERS, FilterSpec(5, 5)):
                starts, ends, counts, _ = _accel.span_grid(lengths, *window_of(f))
                expect = [(begin + sp.start, begin + sp.start + sp.length)
                          for n_d, begin in zip(lengths, np.cumsum(lengths) - lengths)
                          for sp in extract_passages(int(n_d), f)]
                assert list(zip(starts.tolist(), ends.tolist())) == expect
                assert counts.tolist() == [len(extract_passages(int(n), f))
                                           for n in lengths]


class TestBatching:
    """A batch scores bitwise like one call per document, so run files do
    not depend on how candidates are grouped."""

    MS = TestKernelTwins.MS
    TAUS = TestKernelTwins.TAUS

    def assert_batch_equals_singles(self, tokens, lengths, query, bias, bg):
        docs = split(tokens, lengths)
        kernel = _accel.kernel_filter_scores
        for mean_pool in (False, True):
            batch = kernel(tokens, query, bias, self.MS, self.TAUS, mean_pool, lengths)
            singles = np.vstack([
                kernel(d, query, bias, self.MS, self.TAUS, mean_pool,
                       np.array([d.size])) for d in docs])
            np.testing.assert_array_equal(batch, singles)
        for m, tau in ((5, 2), (50, 25), (WHOLE, WHOLE)):
            batch = _accel.lm_span_scores(tokens, query, bg, 0.5, m, tau, lengths)
            singles = np.concatenate(
                [_accel.lm_span_scores(d, query, bg, 0.5, m, tau, np.array([d.size]))
                 for d in docs])
            np.testing.assert_array_equal(batch, singles)

    def test_random_batches(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            tokens, lengths, query, bias = random_batch(rng)
            bg = rng.uniform(1e-8, 0.5, size=query.size)
            self.assert_batch_equals_singles(tokens, lengths, query, bias, bg)

    @settings(max_examples=60, deadline=None)
    @given(
        docs=st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=60),
                      min_size=1, max_size=5),
        query=st.lists(st.integers(-1, 6), min_size=1, max_size=5),
        mean_pool=st.booleans(),
        window=st.sampled_from([(1, 1), (4, 2), (6, 6), (10, 3)]),
    )
    def test_property_against_loops(self, docs, query, mean_pool, window):
        tokens = np.array([t for d in docs for t in d], dtype=np.int32)
        lengths = np.array([len(d) for d in docs], dtype=np.int64)
        q = np.array(query, dtype=np.int32)
        bias = np.linspace(0.05, 1.5, q.size)
        bg = np.linspace(1e-4, 0.3, q.size)
        ms = np.array([window[0], WHOLE], dtype=np.int64)
        taus = np.array([window[1], WHOLE], dtype=np.int64)
        a = _accel.kernel_filter_scores(tokens, q, bias, ms, taus, mean_pool, lengths)
        b = kernel_filter_scores_loop(tokens, q, bias, ms, taus, mean_pool, lengths)
        assert worst_relative(a, b) < 1e-12
        a = _accel.lm_span_scores(tokens, q, bg, 0.5, *window, lengths)
        b = lm_span_scores_loop(tokens, q, bg, 0.5, *window, lengths)
        assert worst_relative(a, b) < 1e-12
        self.assert_batch_equals_singles(tokens, lengths, q, bias, bg)

    def test_empty_batch(self):
        query = np.array([1], dtype=np.int32)
        out = _accel.kernel_filter_scores(
            np.empty(0, dtype=np.int32), query, np.ones(1), self.MS, self.TAUS,
            False, np.empty(0, dtype=np.int64))
        assert out.shape == (0, self.MS.size)

    @pytest.mark.parametrize("tokens,lengths", [
        (np.zeros(5, dtype=np.int32), [2, 2]),   # lengths short of the tokens
        (np.zeros(5, dtype=np.int32), [5, 0]),   # an empty document
        (np.zeros(0, dtype=np.int32), [0]),      # one empty document
    ])
    def test_bad_lengths_raise(self, tokens, lengths):
        query = np.array([0], dtype=np.int32)
        with pytest.raises(ValueError, match="document lengths"):
            _accel.lm_span_scores(tokens, query, np.ones(1), 0.5, 2, 1, lengths)


class TestBackendSelection:
    def test_backend_name_tracks_flag(self):
        assert backend_name() == "numpy"
