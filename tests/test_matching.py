"""Query/document matching matrix and window count behavior."""

import numpy as np
import pytest

from passagerank import Document, Query
from reference import build_matrix


@pytest.fixture
def matrix():
    q = Query("q", ("a", "b", "a"))
    d = Document("d", ("a", "x", "b", "a", "b", "x", "a"))
    return build_matrix(q, d)


class TestBuild:
    def test_shape(self, matrix):
        assert (matrix.n_q, matrix.n_d) == (3, 7)

    def test_positions(self, matrix):
        assert matrix.positions[0].tolist() == [0, 3, 6]
        assert matrix.positions[1].tolist() == [2, 4]
        assert matrix.positions[2].tolist() == [0, 3, 6]

    def test_dense_is_binary_grid(self, matrix):
        dense = matrix.dense()
        assert dense.shape == (3, 7)
        assert dense.tolist()[0] == [1, 0, 0, 1, 0, 0, 1]
        assert dense.tolist()[1] == [0, 0, 1, 0, 1, 0, 0]

    def test_accepts_plain_sequences(self):
        m = build_matrix(("a",), ("b", "a"))
        assert m.positions[0].tolist() == [1]

    def test_unmatched_term_has_empty_row(self):
        m = build_matrix(("zz",), ("a", "b"))
        assert m.positions[0].size == 0
        assert m.row_tf(0) == 0

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            build_matrix((), ("a",))
        with pytest.raises(ValueError):
            build_matrix(("a",), ())


class TestWindowCounts:
    def test_row_tf(self, matrix):
        assert [matrix.row_tf(i) for i in range(3)] == [3, 2, 3]

    def test_window_counts(self, matrix):
        assert matrix.window_tf(0, 0, 4) == 2
        assert matrix.window_tf(0, 3, 4) == 2
        assert matrix.window_tf(1, 0, 2) == 0
        assert matrix.window_tf(1, 2, 3) == 2

    def test_window_truncated_at_document_end(self, matrix):
        assert matrix.window_tf(0, 6, 50) == 1
        assert matrix.window_tf(0, 4, 50) == 1

    def test_window_errors(self, matrix):
        with pytest.raises(IndexError):
            matrix.window_tf(3, 0, 2)
        with pytest.raises(IndexError):
            matrix.window_tf(-1, 0, 2)
        with pytest.raises(ValueError):
            matrix.window_tf(0, -1, 2)
        with pytest.raises(ValueError):
            matrix.window_tf(0, 7, 2)  # start beyond last position
        with pytest.raises(ValueError):
            matrix.window_tf(0, 0, 0)

    def test_counts_match_brute_force(self):
        rng = np.random.default_rng(3)
        vocab = [f"t{i}" for i in range(8)]
        for _ in range(50):
            d_terms = tuple(rng.choice(vocab, size=rng.integers(1, 40)))
            q_terms = tuple(rng.choice(vocab, size=rng.integers(1, 4)))
            m = build_matrix(q_terms, d_terms)
            for row, term in enumerate(q_terms):
                start = int(rng.integers(0, len(d_terms)))
                length = int(rng.integers(1, 50))
                expected = sum(
                    1 for p in range(start, min(start + length, len(d_terms)))
                    if d_terms[p] == term)
                assert m.window_tf(row, start, length) == expected

    def test_dump_matches_dense(self, matrix):
        lines = matrix.dump().splitlines()
        assert len(lines) == 3
        assert lines[1].replace(" ", "") == "0010100"
