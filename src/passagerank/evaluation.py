"""Rank metrics, TREC run/qrels IO, CSV/TSV tables, and the Fisher
randomization test. ``numbered_lines`` reads every line-based input
file: qrels, runs, config files, stoplists and ``folds.csv``.

Metrics follow the standard conventions: AP divides by the total number
of judged relevant documents (retrieved or not); NDCG@k uses
exponential gains (2^rel - 1) / log2(rank + 1) against the ideal
ordering of the judged grades; P@k keeps k in the denominator even when
fewer documents were retrieved. Queries with no relevant documents are
excluded from means with a warning.

The metric arithmetic is deliberately plain Python accumulating in rank
order, so results are reproducible to the bit and directly comparable
against a from-the-definitions reference implementation.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)

METRIC_NAMES = ("map", "ndcg@20", "p@20")
_SIGN_CHUNK = 4096  # sign patterns per chunk, sampled or enumerated


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def average_precision(
    ranking: Sequence[str], grades: Mapping[str, int]
) -> float | None:
    """AP of one ranking; None when the query has no relevant documents.

    Unretrieved relevant documents count in the denominator.
    """
    relevant = {d for d, g in grades.items() if g > 0}
    if not relevant:
        return None
    hits = 0
    total = 0.0
    for rank, doc in enumerate(ranking, start=1):
        if doc in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def ndcg_at_k(
    ranking: Sequence[str], grades: Mapping[str, int], k: int = 20
) -> float | None:
    """NDCG@k with exponential gains; None when nothing is relevant."""
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
    if not ideal:
        return None
    dcg = 0.0
    for rank, doc in enumerate(ranking[:k], start=1):
        g = grades.get(doc, 0)
        if g > 0:
            dcg += (2**g - 1) / math.log2(rank + 1)
    idcg = 0.0
    for rank, g in enumerate(ideal[:k], start=1):
        idcg += (2**g - 1) / math.log2(rank + 1)
    return dcg / idcg


def precision_at_k(
    ranking: Sequence[str], grades: Mapping[str, int], k: int = 20
) -> float:
    """Fraction of the top k that is relevant; k stays in the denominator."""
    hits = sum(1 for doc in ranking[:k] if grades.get(doc, 0) > 0)
    return hits / k


def rank_by_score(doc_ids: Sequence[str], scores) -> list[tuple[str, float]]:
    """(doc_id, score) pairs by score descending, ties by doc_id ascending:
    the ranking order of every run the package writes."""
    return sorted(zip(doc_ids, map(float, scores)), key=lambda kv: (-kv[1], kv[0]))


# ---------------------------------------------------------------------------
# evaluation over runs
# ---------------------------------------------------------------------------


def qid_sort_key(qid: str):
    """ASCII-numeric ids first, by value; every other id after, by text."""
    return (0, int(qid), "") if qid.isascii() and qid.isdigit() else (1, 0, qid)


@dataclass
class EvalReport:
    per_query: dict[str, dict[str, float]]  # qid -> metric -> value
    means: dict[str, float]

    def query_ids(self) -> list[str]:
        return sorted(self.per_query, key=qid_sort_key)


def evaluate_run(
    run: Mapping[str, Sequence[tuple[str, float]]],
    qrels: Mapping[str, Mapping[str, int]],
) -> EvalReport:
    """Per-query and mean metrics for one run against the judgments."""
    per_query = _per_query_metrics(run, qrels)
    for qid in sorted(set(run) - set(per_query), key=qid_sort_key):
        log.warning("query %s has no relevant documents, excluded", qid)
    if not per_query:
        raise ValueError("no query in the run has relevant documents")
    means = {
        m: sum(row[m] for row in per_query.values()) / len(per_query)
        for m in METRIC_NAMES
    }
    return EvalReport(per_query, means)


# ---------------------------------------------------------------------------
# Fisher randomization test
# ---------------------------------------------------------------------------


def _per_query_metrics(run, qrels) -> dict[str, dict[str, float]]:
    """qid -> metric -> value, queries in id order; a query without
    relevant documents has no row."""
    per_query = {}
    for qid in sorted(run, key=qid_sort_key):
        grades = qrels.get(qid, {})
        ranking = [doc for doc, _ in run[qid]]
        ap = average_precision(ranking, grades)
        if ap is not None:
            per_query[qid] = {"map": ap, "ndcg@20": ndcg_at_k(ranking, grades, 20),
                              "p@20": precision_at_k(ranking, grades, 20)}
    return per_query


def fisher_randomization(
    run_a: Mapping[str, Sequence[tuple[str, float]]],
    run_b: Mapping[str, Sequence[tuple[str, float]]],
    qrels: Mapping[str, Mapping[str, int]],
    permutations: int = 100_000,
    seed: int = 0,
) -> dict[str, float]:
    """Two-sided paired randomization p-value between two runs for every
    metric in ``METRIC_NAMES``.

    The statistic is the absolute mean per-query metric difference;
    each permutation flips each query's difference sign independently
    with probability 1/2. One set of sign patterns serves all three
    metrics. With n queries and 2^n <= ``permutations``, all 2^n
    patterns are enumerated and p = hits / 2^n is exact: the observed
    pattern and its mirror are among them, so p >= 2 / 2^n. Otherwise
    ``permutations`` patterns are drawn from the seeded generator and
    p = (1 + hits) / (1 + permutations) (Phipson & Smyth, 2010), never 0.
    Either way identical runs give exactly 1.0, and the patterns come in
    chunks of 4,096, so memory stays bounded.
    """
    if set(run_a) != set(run_b):
        only_a = sorted(set(run_a) - set(run_b))[:3]
        only_b = sorted(set(run_b) - set(run_a))[:3]
        raise ValueError(
            f"runs cover different query sets (e.g. only in a: {only_a}, "
            f"only in b: {only_b})"
        )
    ma = _per_query_metrics(run_a, qrels)
    mb = _per_query_metrics(run_b, qrels)
    qids = sorted(set(ma) & set(mb))
    if not qids:
        raise ValueError("no evaluated query has relevant documents")
    # one row of per-query differences per metric
    diffs = np.array([[ma[q][m] - mb[q][m] for q in qids] for m in METRIC_NAMES],
                     dtype=np.float64)
    observed = np.abs(diffs.mean(axis=1))
    n = len(qids)
    if permutations < 1:
        raise ValueError("permutations must be >= 1")
    exact = 2**n <= permutations
    trials = 2**n if exact else permutations

    rng = np.random.default_rng(seed)
    bits = np.arange(n)
    hits = np.zeros(len(METRIC_NAMES), dtype=np.int64)
    for start in range(0, trials, _SIGN_CHUNK):
        chunk = min(trials - start, _SIGN_CHUNK)
        if exact:  # bit j of the pattern number is query j's sign
            patterns = np.arange(start, start + chunk, dtype=np.int64)
            signs = ((patterns[:, np.newaxis] >> bits) & 1) * 2 - 1
        else:
            # Each sign takes 32 bits of a 64-bit output and the bit
            # generator keeps an unused half in its state for the next
            # draw, so chunked draws equal one large draw whatever the
            # chunk size, odd ones included
            signs = rng.integers(0, 2, size=(chunk, n)) * 2 - 1
        stats = np.abs((signs[:, np.newaxis] * diffs).mean(axis=2))  # chunk x metric
        hits += (stats >= observed).sum(axis=0)
    add = 0 if exact else 1  # a sample may miss the observed pattern
    return {m: (add + int(h)) / (add + trials) for m, h in zip(METRIC_NAMES, hits)}


# ---------------------------------------------------------------------------
# TREC formats and tables
# ---------------------------------------------------------------------------


def numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Each line of a UTF-8 text file, numbered from 1. A byte that is not
    UTF-8 fails naming the file only: decoding runs ahead of the lines."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError:
            raise ValueError(f"{path} is not UTF-8 text") from None


def _trec_lines(path: str | Path, layout: str) -> Iterator[tuple[int, list[str]]]:
    """Line number and whitespace-separated fields of each non-blank line
    of a TREC file whose lines hold the fields named in ``layout``."""
    width = len(layout.split())
    for lineno, line in numbered_lines(path):
        parts = line.split()
        if len(parts) == width:
            yield lineno, parts
        elif parts:
            raise ValueError(f"{path}:{lineno}: expected {layout!r}, got {line!r}")


def read_qrels(path: str | Path) -> dict[str, dict[str, int]]:
    """Parse `qid 0 docno rel` lines; duplicate (qid, docno) is an error."""
    qrels: dict[str, dict[str, int]] = {}
    for lineno, (qid, _, doc, rel) in _trec_lines(path, "qid 0 docno rel"):
        by_doc = qrels.setdefault(qid, {})
        if doc in by_doc:
            raise ValueError(f"{path}:{lineno}: duplicate judgment for ({qid}, {doc})")
        try:
            by_doc[doc] = int(rel)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: relevance grade must be an "
                             f"integer, got {rel!r}") from None
    if not qrels:
        raise ValueError(f"{path}: no judgments found")
    return qrels


def read_run(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """Parse a TREC run file, preserving file order within each query;
    every score must be a finite number."""
    # doc -> score per query, in file order; the dict also finds duplicates
    run: defaultdict[str, dict[str, float]] = defaultdict(dict)
    for lineno, (qid, _, doc, _, score, _) in _trec_lines(
            path, "qid Q0 docno rank score tag"):
        scores = run[qid]
        if doc in scores:
            raise ValueError(f"{path}:{lineno}: duplicate document {doc} for query {qid}")
        try:
            if not math.isfinite(value := float(score)):
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}:{lineno}: score must be a finite "
                             f"number, got {score!r}") from None
        scores[doc] = value
    if not run:
        raise ValueError(f"{path}: empty run file")
    return {qid: list(scores.items()) for qid, scores in run.items()}


def write_run(
    path: str | Path,
    run: Mapping[str, Sequence[tuple[str, float]]],
    tag: str,
) -> None:
    """Write a run in TREC format, scores at 6 decimals, queries sorted.

    Scores are formatted (not re-sorted), so the written order is the
    ranking even where 6-decimal rounding introduces ties.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(run, key=qid_sort_key):
            for rank, (doc, score) in enumerate(run[qid], start=1):
                fh.write(f"{qid} Q0 {doc} {rank} {score:.6f} {tag}\n")


def write_table(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    delimiter: str = ",",
) -> None:
    """Write a header and rows with the ``csv`` module's quoting: a field
    holding the delimiter, a double quote or a newline is quoted, every
    other field is written as is. Lines end in a bare newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_eval_csv(path: str | Path, reports: Mapping[str, EvalReport],
                   p_values: Mapping[str, float] | None = None) -> None:
    """One row per query that every run evaluated, in id order, then an
    ``all`` row of means. One run's columns are the metric names; more
    runs have a column per metric and run, ``map_<label>``. ``p_values``
    adds a ``p_value`` row, each metric's p-value under the first run's."""
    runs = list(reports.values())
    suffixes = [""] if len(runs) == 1 else [f"_{label}" for label in reports]
    qids = sorted(set.intersection(*(set(r.per_query) for r in runs)),
                  key=qid_sort_key)
    rows = [(qid, [r.per_query[qid] for r in runs]) for qid in qids]
    rows.append(("all", [r.means for r in runs]))
    if p_values is not None:  # the other runs' cells stay empty
        rows.append(("p_value", [p_values, *[{}] * (len(runs) - 1)]))
    table = [[name, *(f"{v[m]:.6f}" if v else "" for m in METRIC_NAMES for v in values)]
             for name, values in rows]
    write_table(path, ["query", *(m + s for m in METRIC_NAMES for s in suffixes)], table)


def format_eval_table(report: EvalReport) -> str:
    """Aligned text table: one row per query plus the mean row."""
    rows = [(qid, report.per_query[qid]) for qid in report.query_ids()]
    lines = [f"{'query':>10}  " + "  ".join(f"{m:>8}" for m in METRIC_NAMES)]
    for name, row in [*rows, ("all", report.means)]:
        lines.append(f"{name:>10}  " + "  ".join(f"{row[m]:8.4f}" for m in METRIC_NAMES))
    return "\n".join(lines)
