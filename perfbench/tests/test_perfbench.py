"""Tests for the benchmark itself: generators, oracles, tracer, contract.

Run with: python3 -m pytest perfbench/tests -q
"""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from generate import Corpus, planted_corpus, write_inputs, zipf_corpus
from tracer import TARGETS, layer_metrics, per_layer_units, resolve

ROOT = Path(__file__).resolve().parents[2]


def _tree_bytes(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda seed: planted_corpus(n_queries=6, n_docs=40, doc_len=1100, bg_vocab=100, seed=seed),
    lambda seed: zipf_corpus(n_docs=30, n_queries=5, seed=seed, vocab_size=3000),
])
def test_generators_deterministic_for_a_seed(make, tmp_path):
    write_inputs(make(7), tmp_path / "a")
    write_inputs(make(7), tmp_path / "b")
    write_inputs(make(8), tmp_path / "c")
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "c")


def test_planted_copy_matches_test_suite_corpus():
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    docs, queries, qrels = suite.planted_corpus(n_queries=6, n_docs=45, doc_len=1100,
                                                bg_vocab=100, seed=3)
    c = planted_corpus(n_queries=6, n_docs=45, doc_len=1100, bg_vocab=100, seed=3)
    assert [d.doc_id for d in docs] == c.doc_ids
    assert [d.terms for d in docs] == [tuple(c.vocab[t] for t in c.doc(i))
                                       for i in range(c.num_docs)]
    assert [(q.query_id, q.terms) for q in queries] == [
        (qid, tuple(c.vocab[t] for t in terms)) for qid, terms in c.queries]
    assert qrels == c.qrels


def test_zipf_queries_use_distinct_mid_frequency_terms():
    c = zipf_corpus(n_docs=20, n_queries=50, seed=1, vocab_size=3000)
    for _, terms in c.queries:
        assert 2 <= len(terms) <= 4
        assert len(set(terms)) == len(terms)
        assert all(200 <= t < 2000 for t in terms)
    lengths = np.diff(c.offsets)
    assert lengths.min() >= 200 and lengths.max() <= 2000


# ---------------------------------------------------------------------------
# oracles on hand-checked inputs
# ---------------------------------------------------------------------------


def tiny_corpus() -> Corpus:
    """d1 = a b a, d2 = a a c b c c c: cf(a)=4, cf(b)=2, cf(c)=4, |C|=10."""
    return Corpus(
        vocab=["a", "b", "c"],
        doc_ids=["d1", "d2"],
        offsets=np.array([0, 3, 10]),
        tokens=np.array([0, 1, 0, 0, 0, 2, 1, 2, 2, 2], dtype=np.int32),
        queries=[("1", (0, 1)), ("2", (2,))],
        qrels=None,
    )


def test_ql_oracle_hand_computed():
    scores = checks.ql_oracle(tiny_corpus(), (0, 1))
    d1 = math.log(0.5 * 2 / 3 + 0.5 * 4 / 10) + math.log(0.5 * 1 / 3 + 0.5 * 2 / 10)
    d2 = math.log(0.5 * 2 / 7 + 0.5 * 4 / 10) + math.log(0.5 * 1 / 7 + 0.5 * 2 / 10)
    assert scores.tolist() == pytest.approx([d1, d2], rel=1e-15)


def _ql_run(c: Corpus) -> dict:
    run_ = {}
    for qid, terms in c.queries:
        s = checks.ql_oracle(c, terms)
        order = sorted(range(c.num_docs), key=lambda i: (-s[i], c.doc_ids[i]))
        run_[qid] = [(c.doc_ids[i], round(float(s[i]), 6)) for i in order]
    return run_


def test_check_ql_accepts_oracle_ranking_and_rejects_errors():
    c = tiny_corpus()
    good = _ql_run(c)
    assert checks.check_ql(good, c, top_k=2, sample=2) == []
    off = {q: [(d, s + 1e-4) for d, s in v] for q, v in good.items()}
    assert checks.check_ql(off, c, top_k=2, sample=2)
    swapped = {q: v[::-1] for q, v in good.items()}
    assert checks.check_ql(swapped, c, top_k=2, sample=2)
    short = {q: v[:1] for q, v in good.items()}
    assert checks.check_ql(short, c, top_k=2, sample=2)
    assert checks.check_ql({"1": good["1"]}, c, top_k=2, sample=2)


def test_check_rerank():
    ql = {"1": [("a", -1.0), ("b", -2.0), ("c", -3.0)]}
    assert checks.check_rerank({"1": [("c", 5.0), ("a", 4.0), ("b", 4.0)]}, ql) == []
    assert checks.check_rerank({"1": [("c", 5.0), ("a", 4.0)]}, ql)
    assert checks.check_rerank({"1": [("c", 5.0), ("a", 4.0), ("x", 1.0)]}, ql)
    assert checks.check_rerank({"1": [("c", math.nan), ("a", 4.0), ("b", 1.0)]}, ql)
    assert checks.check_rerank({"1": [("c", 1.0), ("a", 4.0), ("b", 1.0)]}, ql)
    assert checks.check_rerank({"2": ql["1"]}, ql)


def test_check_planted_top():
    qrels = {"1": {"r1": 1, "r2": 1, "n1": 0}}
    assert checks.check_planted_top({"1": [("r2", 3.0), ("r1", 2.0), ("n1", 1.0)]}, qrels, n=2) == []
    assert checks.check_planted_top({"1": [("r2", 3.0), ("n1", 2.0), ("r1", 1.0)]}, qrels, n=2)


def test_check_eval_table():
    table = ("  metric             npm              ql      diff   p-value\n"
             "     map          1.0000          0.5620   +0.4380    0.0000 *\n"
             " ndcg@20          1.0000          0.5375   +0.4625    0.0000 *\n"
             "    p@20          1.0000          0.5000   +0.5000    0.0000 *\n")
    assert checks.check_eval_table(table, expect_map=1.0) == []
    assert checks.check_eval_table(table.replace("1.0000          0.5620",
                                                 "0.9000          0.5620"), expect_map=1.0)
    assert checks.check_eval_table(table.splitlines()[0], expect_map=None)


def test_candidate_stats():
    stats = checks.candidate_stats({"1": [("a", 0), ("b", 0)], "2": [("a", 0), ("c", 0)]})
    assert stats == {"pairs": 4, "unique_docs": 3, "reuse_share": 0.25}


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t[1]}.{t[2]}")
def test_every_wrapped_attribute_exists(target):
    _, module, attribute, _, _ = target
    owner, name, fn = resolve(module, attribute)
    assert callable(fn)


def test_traced_pipeline_covers_the_layers(tmp_path):
    """A tiny traced pipeline reaches every layer through the CLI, including
    names the CLI and training import with ``from .x import y``."""
    c = planted_corpus(n_queries=6, n_docs=40, doc_len=1100, bg_vocab=100, seed=0)
    inputs = write_inputs(c, tmp_path / "in")
    p = tmp_path / "out"
    small = ["--top-k", "40", "--filters", "50:25,150:75,inf"]
    stages = {
        "index": ["index", "--corpus", str(inputs["corpus"]), "--index", f"{p}/index"],
        "retrieve": ["retrieve", "--index", f"{p}/index", "--topics", str(inputs["topics"]),
                     "--top-k", "40", "--output", f"{p}/ql.run"],
        "train": ["train", "--index", f"{p}/index", "--topics", str(inputs["topics"]),
                  "--qrels", str(inputs["qrels"]), "--run", f"{p}/ql.run", *small,
                  "--folds", "3", "--max-epochs", "3", "--output-dir", f"{p}/models"],
        "npm": ["rerank", "--index", f"{p}/index", "--topics", str(inputs["topics"]),
                "--run", f"{p}/ql.run", "--mode", "npm", "--model", f"{p}/models", *small,
                "--output", f"{p}/npm.run"],
        "ent": ["rerank", "--index", f"{p}/index", "--topics", str(inputs["topics"]),
                "--run", f"{p}/ql.run", "--mode", "msp-ent", "--output", f"{p}/ent.run"],
        "eval": ["eval", "--qrels", str(inputs["qrels"]), "--run", f"{p}/npm.run",
                 "--baseline", f"{p}/ql.run", "--permutations", "200"],
    }
    p.mkdir()
    walls = {}
    for name, argv in stages.items():
        cmd = [sys.executable, str(run.HERE / "tracer.py"), str(p / f"{name}.json"),
               name, "tiny", "--", *argv]
        rc, walls[name], _ = run.spawn(cmd, p / f"{name}.out", p / f"{name}.err", 120)
        assert rc == 0, (p / f"{name}.err").read_text()
    m = layer_metrics([p / f"{name}.json" for name in stages], walls)
    assert set(m) == set(per_layer_units())
    for name in ("corpus.build_index_s", "corpus.tokenize_s", "corpus.postings_s",
                 "retrieval.rank_documents_s", "passages.score_tokens_s",
                 "passages.msp_rank_s", "accel.kernel_filter_scores_s",
                 "accel.lm_span_scores_s", "features.homogeneity_s",
                 "features.query_features_s", "fusion.linear_many_s",
                 "fusion.forward_parts_s", "training.train_fold_s",
                 "evaluation.fisher_randomization_s", "cli.startup_s"):
        assert m[name] > 0, name
    assert m["corpus.tokens"] == c.total_tokens
    assert m["training.folds"] == 3
    assert m["passages.score_tokens_calls"] == 2 * 6 * 40
    assert m["accel.kernel_filter_scores_calls"] == 2 * 6 * 40
    assert m["features.homogeneity_lookups"] == 3 * 6 * 40
    assert 0 < m["features.hom_hit_ratio"] < 1
    main_s = sum(json.loads((p / f"{n}.json").read_text())["main_s"] for n in stages)
    self_total = sum(m[f"{layer}.self_s"] for layer in
                     ("corpus", "retrieval", "passages", "accel", "features", "fusion",
                      "training", "evaluation", "cli"))
    assert self_total == pytest.approx(main_s, rel=1e-9)


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "zipf-firststage", "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
