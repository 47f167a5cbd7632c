"""Output checks and oracles for the pipeline benchmark.

Nothing here imports the package: the checks read the files the CLI
wrote and compare them with values recomputed from the generator's own
token arrays. Every check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from generate import Corpus

LAMBDA_C = 0.5
# run files carry 6 decimals, so a printed score can sit up to half a
# unit in the last place away from the exact one
PRINT_TOL = 5e-7
REL_TOL = 1e-9


def read_run(path: Path) -> dict[str, list[tuple[str, float]]]:
    """TREC run file as qid -> [(doc, score)] in file order."""
    run: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, _, doc, _, score, _ = line.split()
            run.setdefault(qid, []).append((doc, float(score)))
    return run


def ql_oracle(corpus: Corpus, terms: tuple[int, ...], lam: float = LAMBDA_C) -> np.ndarray:
    """Dense whole-document query likelihood of every document.

    sum over query tokens of log((1-lam) tf/|d| + lam cf/|C|), with the
    counts taken straight from the generated token ids.
    """
    doc_len = np.diff(corpus.offsets).astype(np.float64)
    scores = np.zeros(corpus.num_docs, dtype=np.float64)
    starts = corpus.offsets[:-1]
    for t in terms:
        hits = corpus.tokens == t
        tf = np.add.reduceat(hits.astype(np.int64), starts)
        cf = max(int(hits.sum()), 1)
        scores += np.log((1.0 - lam) * tf / doc_len + lam * cf / corpus.total_tokens)
    return scores


def close(a: float, b: float) -> bool:
    return abs(a - b) <= PRINT_TOL + REL_TOL * abs(b)


def check_ql(run: dict, corpus: Corpus, top_k: int, sample: int) -> list[str]:
    """Every query is ranked; sampled queries match the dense oracle.

    For a sampled query the run must hold min(top_k, |D|) documents whose
    printed scores match the oracle, listed in non-increasing oracle
    order, and every document the oracle ranks strictly above the k-th
    one must be among them.
    """
    problems = []
    want_qids = [qid for qid, _ in corpus.queries]
    if sorted(run) != sorted(want_qids):
        return [f"ql.run covers {len(run)} queries, expected {len(want_qids)}"]
    k = min(top_k, corpus.num_docs)
    index_of = {d: i for i, d in enumerate(corpus.doc_ids)}
    step = max(1, len(corpus.queries) // sample)
    for qid, terms in corpus.queries[::step][:sample]:
        ranked = run[qid]
        if len(ranked) != k:
            problems.append(f"query {qid}: {len(ranked)} documents, expected {k}")
            continue
        oracle = ql_oracle(corpus, terms)
        kth = np.sort(oracle)[::-1][k - 1]
        got = [oracle[index_of[d]] for d, _ in ranked]
        bad = [(d, s, o) for (d, s), o in zip(ranked, got) if not close(s, o)]
        if bad:
            d, s, o = bad[0]
            problems.append(f"query {qid}: {len(bad)} scores off the oracle, "
                            f"e.g. {d} {s!r} vs {float(o)!r}")
        if any(b > a + REL_TOL * abs(a) for a, b in zip(got, got[1:])):
            problems.append(f"query {qid}: ranking not in oracle order")
        listed = {d for d, _ in ranked}
        above = {corpus.doc_ids[i] for i in np.flatnonzero(oracle > kth + REL_TOL * abs(kth))}
        if not above <= listed:
            problems.append(f"query {qid}: {len(above - listed)} oracle top-{k} "
                            f"documents missing")
    return problems


def check_rerank(run: dict, ql_run: dict) -> list[str]:
    """Each query's list is a permutation of its QL candidates, ranked,
    with finite scores."""
    problems = []
    if sorted(run) != sorted(ql_run):
        return [f"covers {len(run)} queries, ql.run has {len(ql_run)}"]
    for qid, ranked in run.items():
        docs = sorted(d for d, _ in ranked)
        if docs != sorted(d for d, _ in ql_run[qid]):
            problems.append(f"query {qid}: not a permutation of its candidates")
        scores = [s for _, s in ranked]
        if not all(math.isfinite(s) for s in scores):
            problems.append(f"query {qid}: non-finite score")
        elif any(b > a for a, b in zip(scores, scores[1:])):
            problems.append(f"query {qid}: scores not in ranked order")
    return problems


def check_planted_top(run: dict, qrels: dict, n: int = 20) -> list[str]:
    """The top n of every query are exactly its n planted relevant docs."""
    problems = []
    for qid, ranked in run.items():
        relevant = {d for d, g in qrels[qid].items() if g > 0}
        top = {d for d, _ in ranked[:n]}
        if len(relevant) != n or top != relevant:
            problems.append(f"query {qid}: {len(top & relevant)} of the top {n} "
                            f"are planted relevant documents")
    return problems


def check_index(index_dir: Path, corpus: Corpus) -> list[str]:
    manifest = json.loads((index_dir / "manifest.json").read_text(encoding="utf-8"))
    want = {"num_docs": corpus.num_docs, "total_len": corpus.total_tokens}
    got = {key: manifest.get(key) for key in want}
    return [] if got == want else [f"manifest counts {got}, expected {want}"]


def check_models(model_dir: Path, qids: list[str], folds: int) -> list[str]:
    """folds.csv assigns every query to a fold; every fold model is finite."""
    lines = (model_dir / "folds.csv").read_text(encoding="utf-8").splitlines()
    assigned = dict(line.split(",") for line in lines[1:])
    problems = []
    if lines[0] != "query_id,fold" or sorted(assigned) != sorted(qids):
        problems.append("folds.csv does not assign every query")
    if {int(f) for f in assigned.values()} != set(range(folds)):
        problems.append(f"folds.csv does not use folds 0..{folds - 1}")
    for fold in range(folds):
        model = json.loads((model_dir / f"fold_{fold}.json").read_text(encoding="utf-8"))
        values = np.asarray(model["W"], dtype=np.float64)
        if not np.isfinite(values).all() or not math.isfinite(model["b"]):
            problems.append(f"fold {fold}: non-finite parameters")
    return problems


def check_eval_table(text: str, expect_map: float | None) -> list[str]:
    """Paired eval table: three metric rows whose scores and p-values
    (printed to 4 decimals) lie in [0, 1]; optionally the first run's MAP."""
    rows = {}
    for line in text.splitlines()[1:]:
        parts = line.split()
        if len(parts) >= 5:
            rows[parts[0]] = [float(x) for x in parts[1:5]]
    if sorted(rows) != ["map", "ndcg@20", "p@20"]:
        return [f"eval table rows {sorted(rows)}"]
    problems = []
    for name, (a, b, _, p) in rows.items():
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and 0.0 <= p <= 1.0):
            problems.append(f"{name}: value out of range")
    if expect_map is not None and rows["map"][0] != expect_map:
        problems.append(f"map {rows['map'][0]}, expected {expect_map}")
    return problems


def candidate_stats(ql_run: dict) -> dict[str, float]:
    """(query, doc) pairs, distinct candidate docs, and the reuse share:
    the fraction of pairs whose document was already a candidate of
    another query, 1 - unique/pairs."""
    pairs = sum(len(v) for v in ql_run.values())
    unique = len({d for v in ql_run.values() for d, _ in v})
    return {"pairs": pairs, "unique_docs": unique,
            "reuse_share": 1.0 - unique / pairs}


def digest_tree(root: Path, rel_paths: list[str]) -> dict[str, str]:
    """sha256 of every file under the given paths, keyed by relative path."""
    out = {}
    for rel in rel_paths:
        path = root / rel
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            out[f.relative_to(root).as_posix()] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out
