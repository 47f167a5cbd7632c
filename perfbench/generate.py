"""Seeded synthetic inputs for the pipeline benchmark.

Two generators, both pure numpy and independent of the package:

* ``planted_corpus`` - the planted-passage corpus of ``tests/conftest.py``
  (same random stream, so the same seed gives the same tokens), held as
  integer arrays so thousands of documents generate quickly;
* ``zipf_corpus`` - documents drawn from a Zipf(1) vocabulary with
  uniform lengths, and queries of distinct mid-frequency terms.

A ``Corpus`` keeps the token ids the files were written from, so the
output checks can recompute scores without reading anything the program
produced. ``write_inputs`` writes TRECTEXT, topics and (when judged)
qrels files; those files are all the program ever receives.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Corpus:
    vocab: list[str]             # term id -> term
    doc_ids: list[str]
    offsets: np.ndarray          # (n_docs + 1,) token offsets into ``tokens``
    tokens: np.ndarray           # int32 term ids, documents concatenated
    queries: list[tuple[str, tuple[int, ...]]]  # (query id, term ids)
    qrels: dict[str, dict[str, int]] | None

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def total_tokens(self) -> int:
        return int(self.tokens.shape[0])

    def doc(self, i: int) -> np.ndarray:
        return self.tokens[self.offsets[i]:self.offsets[i + 1]]


def planted_corpus(n_queries=40, n_docs=200, doc_len=2000, bg_vocab=500,
                   seed=0) -> Corpus:
    """Corpus where co-occurrence within a window separates relevance.

    Even-indexed docs 0..38 hold every query's three terms inside one
    30-token window; odd-indexed docs 1..39 hold the same terms at
    mutual distances >= 500; the rest is background. Whole-document
    statistics are identical for both groups, so only passage-level
    scoring can tell them apart.
    """
    if n_queries * 45 + 30 > doc_len or n_queries + 1000 > doc_len:
        raise ValueError("doc_len too small for the requested query count")
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(bg_vocab)]
    docs = np.empty((n_docs, doc_len), dtype=np.int32)
    for d in range(n_docs):  # one draw per document, as in tests/conftest.py
        docs[d] = rng.integers(0, bg_vocab, size=doc_len)
    relevant = list(range(0, 40, 2))
    distractors = list(range(1, 40, 2))
    queries = []
    qrels = {}
    for qi in range(n_queries):
        a = len(vocab)
        vocab.extend((f"q{qi}a", f"q{qi}b", f"q{qi}c"))
        qid = f"{qi + 1}"
        queries.append((qid, (a, a + 1, a + 2)))
        base = qi * 45
        docs[relevant, base] = a
        docs[relevant, base + 14] = a + 1
        docs[relevant, base + 29] = a + 2
        docs[distractors, qi] = a
        docs[distractors, qi + 500] = a + 1
        docs[distractors, qi + 1000] = a + 2
        qrels[qid] = {f"d{d:03d}": 1 for d in relevant}
        qrels[qid].update({f"d{d:03d}": 0 for d in distractors})
    return Corpus(
        vocab=vocab,
        doc_ids=[f"d{i:03d}" for i in range(n_docs)],
        offsets=np.arange(0, n_docs * doc_len + 1, doc_len, dtype=np.int64),
        tokens=docs.reshape(-1),
        queries=queries,
        qrels=qrels,
    )


def zipf_corpus(n_docs, n_queries, seed, vocab_size=20_000, min_len=200,
                max_len=2000, query_ranks=(200, 2000)) -> Corpus:
    """Zipf(1) documents of uniform length in [min_len, max_len].

    Term id r has probability proportional to 1/(r+1). Each query holds
    2-4 distinct terms drawn uniformly from the id range ``query_ranks``
    (mid-frequency: common enough to match many documents, rare enough
    that rankings differ between queries). No judgments are made.
    """
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, vocab_size + 1)
    cdf = np.cumsum(p / p.sum())
    lengths = rng.integers(min_len, max_len + 1, size=n_docs)
    offsets = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    u = rng.random(int(offsets[-1]))
    tokens = np.minimum(np.searchsorted(cdf, u, side="right"),
                        vocab_size - 1).astype(np.int32)
    lo, hi = query_ranks
    queries = []
    for qi in range(n_queries):
        n = int(rng.integers(2, 5))
        terms = rng.choice(np.arange(lo, hi), size=n, replace=False)
        queries.append((f"{qi + 1}", tuple(int(t) for t in terms)))
    return Corpus(
        vocab=[f"t{i}" for i in range(vocab_size)],
        doc_ids=[f"z{i:05d}" for i in range(n_docs)],
        offsets=offsets,
        tokens=tokens,
        queries=queries,
        qrels=None,
    )


def write_inputs(corpus: Corpus, out_dir: Path) -> dict[str, Path]:
    """Write the TRECTEXT corpus, topics and qrels; return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    words = np.array(corpus.vocab)
    paths = {"corpus": out_dir / "corpus.trectext",
             "topics": out_dir / "topics.txt"}
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        for i, doc_id in enumerate(corpus.doc_ids):
            fh.write(f"<DOC>\n<DOCNO> {doc_id} </DOCNO>\n<TEXT>\n")
            fh.write(" ".join(words[corpus.doc(i)].tolist()))
            fh.write("\n</TEXT>\n</DOC>\n")
    with open(paths["topics"], "w", encoding="utf-8") as fh:
        for qid, terms in corpus.queries:
            title = " ".join(corpus.vocab[t] for t in terms)
            fh.write(f"<top>\n<num> Number: {qid}\n<title> {title}\n</top>\n")
    if corpus.qrels is not None:
        paths["qrels"] = out_dir / "qrels.txt"
        with open(paths["qrels"], "w", encoding="utf-8") as fh:
            for qid in sorted(corpus.qrels, key=int):
                for doc_id in sorted(corpus.qrels[qid]):
                    fh.write(f"{qid} 0 {doc_id} {corpus.qrels[qid][doc_id]}\n")
    return paths
