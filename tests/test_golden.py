"""Pinned sha256 digests of the msp rerank runs.

Artifacts are byte-identical for a given seed; this pins the run files
of ``rerank --mode msp`` and the four ``msp-<kind>`` modes on a small
seeded corpus whose documents range from one token to several hundred,
so every homogeneity branch (one token, shorter than the window, one
span, many spans) is exercised. A change that moves a digest must
update the table and say why.
"""

import hashlib

import numpy as np
import pytest

from passagerank import Document
from passagerank.cli import main
from conftest import random_queries
from test_cli import write_topics, write_trectext

RUN_SHA256 = {
    "msp": "0c3bf1b24f464ae2665d9bba992c62dc348b1cd1c7dd1b70087ec732c4aaff99",
    "msp-length": "36987d3ed99beb114edcbb7fe034f82b5459bb99d11ddc429586c06ac901a657",
    "msp-ent": "d79424070841f1d49e8c8da0acf7f2b24b8c0a7304bffee1991102eb98e37b74",
    "msp-intpsg": "dfbc7e8675c0d786209050649affeaf4c96a43309c0d9e180cbd0afd6c9b186a",
    "msp-docpsg": "8142d19e061a2862ceb1208612ba75d17940181577386f3e65334ae4b3cbec76",
}


def varied_length_corpus(seed=3, n_docs=60, vocab_size=40):
    """Documents of 1 to 400 tokens; "common" is in every document, so
    it has idf 0."""
    rng = np.random.default_rng(seed)
    lengths = np.concatenate([rng.integers(1, 10, n_docs // 3),
                              rng.integers(10, 40, n_docs // 3),
                              rng.integers(40, 400, n_docs - 2 * (n_docs // 3))])
    docs = []
    for i, n in enumerate(rng.permutation(lengths)):
        terms = [f"t{t}" for t in rng.integers(0, vocab_size, int(n))]
        terms[int(rng.integers(0, n))] = "common"
        docs.append(Document(f"d{i:03d}", tuple(terms)))
    return docs, random_queries(rng, 12, vocab_size=vocab_size)


@pytest.fixture(scope="module")
def ql_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    docs, queries = varied_length_corpus()
    write_trectext(root / "corpus.trectext", docs)
    write_topics(root / "topics.txt", queries)
    assert main(["index", "--corpus", str(root / "corpus.trectext"),
                 "--index", str(root / "index")]) == 0
    assert main(["retrieve", "--index", str(root / "index"),
                 "--topics", str(root / "topics.txt"), "--top-k", "30",
                 "--output", str(root / "ql.run")]) == 0
    return root


@pytest.mark.parametrize("mode", sorted(RUN_SHA256))
def test_rerank_digest(ql_run, mode):
    out = ql_run / f"{mode}.run"
    assert main(["rerank", "--index", str(ql_run / "index"),
                 "--topics", str(ql_run / "topics.txt"),
                 "--run", str(ql_run / "ql.run"), "--mode", mode,
                 "--passage-size", "20", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_SHA256[mode]
