"""Shared fixtures and synthetic corpus builders for the test suite."""

import hashlib
import json

import numpy as np
import pytest

from passagerank import Document, Query, build_index, features


def random_documents(rng, n_docs, vocab_size=50, min_len=5, max_len=120,
                     prefix="d"):
    vocab = np.array([f"t{i}" for i in range(vocab_size)])
    docs = []
    for i in range(n_docs):
        n = int(rng.integers(min_len, max_len + 1))
        terms = tuple(vocab[rng.integers(0, vocab_size, size=n)])
        docs.append(Document(f"{prefix}{i:04d}", terms))
    return docs


def random_queries(rng, n_queries, vocab_size=50, min_len=1, max_len=5,
                   oov_rate=0.1):
    queries = []
    for i in range(n_queries):
        n = int(rng.integers(min_len, max_len + 1))
        terms = []
        for _ in range(n):
            if rng.random() < oov_rate:
                terms.append(f"zz{int(rng.integers(0, 10))}")
            else:
                terms.append(f"t{int(rng.integers(0, vocab_size))}")
        queries.append(Query(f"{i + 1}", tuple(terms)))
    return queries


def planted_corpus(n_queries=40, n_docs=200, doc_len=2000, bg_vocab=500,
                   seed=0):
    """Corpus where co-occurrence within a window separates relevance.

    Even-indexed docs 0..38 hold every query's three terms inside one
    30-token window; odd-indexed docs 1..39 hold the same terms at
    mutual distances >= 500; the rest is background. Whole-document
    term statistics are identical for both groups, so only passage-level
    scoring can tell them apart. Interleaved ids keep the tie-break from
    accidentally favoring the relevant group.
    """
    if n_queries * 45 + 30 > doc_len or n_queries + 1000 > doc_len:
        raise ValueError("doc_len too small for the requested query count")
    rng = np.random.default_rng(seed)
    background = np.array([f"w{i}" for i in range(bg_vocab)])
    tokens = [list(background[rng.integers(0, bg_vocab, size=doc_len)])
              for _ in range(n_docs)]
    relevant = list(range(0, 40, 2))
    distractors = list(range(1, 40, 2))
    queries = []
    qrels = {}
    for qi in range(n_queries):
        terms = (f"q{qi}a", f"q{qi}b", f"q{qi}c")
        qid = f"{qi + 1}"
        queries.append(Query(qid, terms))
        base = qi * 45
        for d in relevant:
            tokens[d][base] = terms[0]
            tokens[d][base + 14] = terms[1]
            tokens[d][base + 29] = terms[2]
        for d in distractors:
            tokens[d][qi] = terms[0]
            tokens[d][qi + 500] = terms[1]
            tokens[d][qi + 1000] = terms[2]
        qrels[qid] = {f"d{d:03d}": 1 for d in relevant}
        qrels[qid].update({f"d{d:03d}": 0 for d in distractors})
    docs = [Document(f"d{i:03d}", tuple(t)) for i, t in enumerate(tokens)]
    return docs, queries, qrels


@pytest.fixture
def tiny_index():
    """Two-document corpus with hand-checkable statistics.

    cf(a)=4, cf(b)=2, cf(c)=4, total length 10, two documents.
    """
    docs = [
        Document("d1", ("a", "b", "a")),
        Document("d2", ("a", "a", "c", "b", "c", "c", "c")),
    ]
    return build_index(docs)


@pytest.fixture
def small_random_index():
    rng = np.random.default_rng(42)
    return build_index(random_documents(rng, 30, vocab_size=20, max_len=60))


@pytest.fixture
def fixed_homogeneity(monkeypatch):
    """Call with h to make every homogeneity kind of every document h.

    It patches the cached lookup, for whatever kinds it is asked, so
    rows the index already holds (or an earlier h) cannot leak through."""
    def fix(h):
        monkeypatch.setattr(
            features, "cached_homogeneity",
            lambda doc_id, index, f, kinds=features.HOMOGENEITY_KINDS:
                np.full(len(kinds), float(h)))
    return fix


def rewrite_index_file(index_dir, name, data, fix_digest=False):
    """Replace file ``name`` of a saved index with ``data``.

    With ``fix_digest`` the manifest's sha256 of the file is rewritten to
    match, so only the structural checks on load can catch the damage.
    """
    (index_dir / name).write_bytes(data)
    if fix_digest:
        manifest_path = index_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["sha256"][name] = hashlib.sha256(data).hexdigest()
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def corrupt_index_file(index_dir, name, mutate, fix_digest=False):
    """Rewrite the int32 array ``name`` of a saved index as ``mutate(arr)``."""
    arr = mutate(np.fromfile(index_dir / name, dtype="<i4"))
    rewrite_index_file(index_dir, name, arr.astype("<i4").tobytes(), fix_digest)


def set_first(value):
    """A ``corrupt_index_file`` mutation: overwrite the first entry."""
    def mutate(arr):
        arr[0] = value
        return arr
    return mutate
