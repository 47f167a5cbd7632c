"""Pinned sha256 digests of the pipeline's outputs.

Artifacts are byte-identical for a given seed. ``golden.json`` pins two
pipelines run in process through ``cli.main``:

* ``varied``: the run files of ``rerank --mode msp`` and the four
  ``msp-<kind>`` modes on a small seeded corpus whose documents range
  from one token to several hundred, so every homogeneity branch (one
  token, shorter than the window, one span, many spans) is exercised;
  ``varied_index`` pins its six index files and ``varied_homogeneity``
  the float64 homogeneity rows, all four kinds at 20:10, of every
  document in index order;
* ``planted``: every file and table of index, retrieve, train (3 folds,
  few epochs), npm rerank with the model directory (with its feature
  dump) and with ``fold_0.json``, ``msp-intpsg``, ``eval --baseline
  --csv`` and ``weights --csv`` on a small planted corpus. Model files
  hold shortest-repr floats, so a one-ULP change to a fold model moves
  its digest.

A change that moves a digest must update the table and say why.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from passagerank import Document, FilterSpec, homogeneity, load_index
from passagerank.cli import main
from conftest import planted_corpus, random_queries
from test_cli import write_qrels, write_topics, write_trectext

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text(encoding="utf-8"))
RUN_SHA256 = GOLDEN["varied"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    assert sha256(out.read_bytes()) == RUN_SHA256[mode]


@pytest.mark.parametrize("name", sorted(GOLDEN["varied_index"]))
def test_index_digest(ql_run, name):
    assert sha256((ql_run / "index" / name).read_bytes()) == GOLDEN["varied_index"][name]


def test_homogeneity_digest(ql_run):
    index = load_index(ql_run / "index")
    rows = np.vstack([homogeneity(d, index, FilterSpec(20, 10)) for d in index.doc_ids])
    assert rows.dtype == np.float64 and rows.shape == (index.num_docs, 4)
    assert sha256(rows.tobytes()) == GOLDEN["varied_homogeneity"]


def planted_outputs(root: Path) -> dict[str, bytes]:
    """Run the planted pipeline under ``root``: every output file, by its
    path under ``root``, and every command's stdout as ``<name>.stdout``
    with ``root`` written ROOT."""
    docs, queries, qrels = planted_corpus(n_queries=6, n_docs=40, doc_len=1100,
                                          bg_vocab=100, seed=2)
    # two distractors judged relevant and two planted documents not, per
    # query, so the hinge loss is not zero and SGD moves two fold models
    # off their initialization
    for i, qid in enumerate(sorted(qrels, key=int)):
        for k in range(2):
            qrels[qid][f"d{(4 * i + 2 * k + 1) % 40:03d}"] = 1
            qrels[qid][f"d{(6 * i + 2 * k) % 40:03d}"] = 0
    write_trectext(root / "corpus.trectext", docs)
    write_topics(root / "topics.txt", queries)
    write_qrels(root / "qrels.txt", qrels)
    inputs = {root / name for name in ("corpus.trectext", "topics.txt", "qrels.txt")}
    data = ["--index", str(root / "index"), "--topics", str(root / "topics.txt")]
    commands = {
        "index": ["index", "--corpus", str(root / "corpus.trectext"),
                  "--index", str(root / "index")],
        "retrieve": ["retrieve", *data, "--top-k", "30",
                     "--output", str(root / "ql.run")],
        "train": ["train", *data, "--qrels", str(root / "qrels.txt"),
                  "--run", str(root / "ql.run"), "--filters", "50:25,150:75,inf",
                  "--top-k", "30", "--learning-rate", "0.5", "--batch-size", "16",
                  "--max-epochs", "6", "--patience", "3",
                  "--negatives-per-positive", "2", "--folds", "3", "--seed", "2",
                  "--output-dir", str(root / "models")],
        "npm": ["rerank", *data, "--run", str(root / "ql.run"), "--mode", "npm",
                "--model", str(root / "models"),
                "--dump-features", str(root / "features.tsv"),
                "--output", str(root / "npm.run")],
        "npm-fold0": ["rerank", *data, "--run", str(root / "ql.run"), "--mode", "npm",
                      "--model", str(root / "models" / "fold_0.json"),
                      "--output", str(root / "npm-fold0.run")],
        "msp-intpsg": ["rerank", *data, "--run", str(root / "ql.run"),
                       "--mode", "msp-intpsg", "--passage-size", "40",
                       "--output", str(root / "msp-intpsg.run")],
        "eval": ["eval", "--qrels", str(root / "qrels.txt"),
                 "--run", str(root / "npm.run"), "--baseline", str(root / "ql.run"),
                 "--permutations", "500", "--csv", str(root / "eval.csv")],
        "weights": ["weights", *data, "--model", str(root / "models" / "fold_1.json"),
                    "--run", str(root / "ql.run"), "--csv", str(root / "weights.csv")],
    }
    out = {}
    for name, argv in commands.items():
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert main(argv) == 0, name
        text = stdout.getvalue().replace(str(root), "ROOT")  # index prints its path
        out[f"{name}.stdout"] = text.encode("utf-8")
    for path in sorted(root.rglob("*")):
        if path.is_file() and path not in inputs:
            out[path.relative_to(root).as_posix()] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    return planted_outputs(tmp_path_factory.mktemp("planted"))


def test_planted_outputs_are_pinned(planted):
    assert sorted(planted) == sorted(GOLDEN["planted"])


@pytest.mark.parametrize("name", sorted(GOLDEN["planted"]))
def test_planted_digest(planted, name):
    assert sha256(planted[name]) == GOLDEN["planted"][name]
