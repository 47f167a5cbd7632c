"""Shared fixtures and synthetic corpus builders for the test suite."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from passagerank import Document, Query, build_index, features

# a test result must not depend on what a local .hypothesis database
# replays: every run draws the same examples and none are stored
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# the benchmark's generators are the one source of the planted corpus;
# loaded by path (registered first, for its dataclasses) so perfbench/
# never joins sys.path and its module names stay out of the tests
_spec = importlib.util.spec_from_file_location(
    "perfbench_generate",
    Path(__file__).resolve().parents[1] / "perfbench" / "generate.py")
generate = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = generate
_spec.loader.exec_module(generate)


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


def planted_corpus(**scale):
    """The planted-passage corpus of ``perfbench/generate.py`` as
    ``Document``s, ``Query``s and qrels; ``scale`` and its defaults are
    ``generate.planted_corpus``'s.

    Relevant and distractor documents have equal whole-document
    statistics, so only passage-level scoring can tell them apart, and
    their whole-document scores tie. Ties rank by docno, so each
    relevant ``d(2i)`` sorts just before its distractor twin
    ``d(2i+1)``: the tie-break favours the relevant group. On 1500
    documents of 2000 tokens and 40 queries, QL MAP reads 0.562 in docno
    order and about 0.542 averaged over random orders within ties.
    """
    c = generate.planted_corpus(**scale)
    words = np.array(c.vocab)
    docs = [Document(doc_id, tuple(words[c.doc(i)].tolist()))
            for i, doc_id in enumerate(c.doc_ids)]
    queries = [Query(qid, tuple(c.vocab[t] for t in terms))
               for qid, terms in c.queries]
    return docs, queries, c.qrels


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
