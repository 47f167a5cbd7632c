"""Rank metrics, run/qrels IO, and the Fisher randomization test."""

import math
import re
import string
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passagerank import (
    average_precision,
    evaluation,
    evaluate_run,
    fisher_randomization,
    ndcg_at_k,
    precision_at_k,
    read_qrels,
    read_run,
    write_run,
)
from passagerank.evaluation import (
    METRIC_NAMES,
    EvalReport,
    format_eval_table,
    qid_sort_key,
    rank_by_score,
    write_eval_csv,
)
from oracle_metrics import ap_bruteforce, ndcg_bruteforce, p_at_k_bruteforce
from reference import fisher_exhaustive_reference, fisher_sampled_reference


class TestSpecOracles:
    def test_ap_r_n_r(self):
        # hits at ranks 1 and 3: (1/1 + 2/3) / 2 = 5/6
        grades = {"d1": 1, "d2": 0, "d3": 1}
        assert average_precision(["d1", "d2", "d3"], grades) \
            == pytest.approx(5 / 6, rel=1e-15)

    def test_ndcg_n_r(self):
        grades = {"d1": 0, "d2": 1}
        got = ndcg_at_k(["d1", "d2"], grades, k=20)
        assert got == pytest.approx(1 / math.log2(3), rel=1e-15)

    def test_p20_seven_relevant(self):
        ranking = [f"d{i}" for i in range(25)]
        grades = {f"d{i}": 1 for i in range(7)}
        grades.update({f"d{i}": 0 for i in range(7, 25)})
        assert precision_at_k(ranking, grades, k=20) == pytest.approx(0.35)

    def test_ap_counts_unretrieved_relevants(self):
        grades = {"d1": 1, "d2": 1, "d3": 1}
        # only one of three relevants retrieved
        assert average_precision(["d1"], grades) == pytest.approx(1 / 3)

    def test_no_relevant_returns_none(self):
        assert average_precision(["d1"], {"d1": 0}) is None
        assert ndcg_at_k(["d1"], {"d1": 0}) is None


# ten hand-built cases: (ranking, grades) pairs covering edges
CATALOG = [
    (["d1", "d2", "d3"], {"d1": 1, "d2": 0, "d3": 1}),
    (["d1", "d2"], {"d1": 0, "d2": 1}),
    ([f"d{i}" for i in range(30)],
     {f"d{i}": int(i % 3 == 0) for i in range(30)}),
    (["d1"], {"d1": 1}),
    (["d1", "d2", "d3"], {"d1": 2, "d2": 3, "d3": 1}),          # graded
    (["d9", "d8", "d7"], {"d7": 1, "d6": 1}),                   # one unretrieved
    (["d1", "d2", "d3", "d4"], {"d2": 1}),
    ([f"d{i}" for i in range(5)], {f"d{i}": 1 for i in range(5)}),
    (["d1", "d2", "d3"], {"d4": 1, "d5": 2}),                   # nothing found
    (["d1", "d2", "d3", "d4", "d5"],
     {"d1": 0, "d2": 0, "d3": 1, "d4": 0, "d5": 3, "d9": 1}),
]


class TestCatalogAgainstBruteForce:
    @pytest.mark.parametrize("case", range(len(CATALOG)))
    def test_ap_exact(self, case):
        ranking, grades = CATALOG[case]
        assert average_precision(ranking, grades) \
            == ap_bruteforce(ranking, grades)

    @pytest.mark.parametrize("case", range(len(CATALOG)))
    def test_ndcg_exact(self, case):
        ranking, grades = CATALOG[case]
        assert ndcg_at_k(ranking, grades, 20) \
            == ndcg_bruteforce(ranking, grades, 20)

    @pytest.mark.parametrize("case", range(len(CATALOG)))
    def test_p20_exact(self, case):
        ranking, grades = CATALOG[case]
        assert precision_at_k(ranking, grades, 20) \
            == p_at_k_bruteforce(ranking, grades, 20)

    @pytest.mark.parametrize("k", [1, 3, 5, 10])
    def test_other_cutoffs_exact(self, k):
        for ranking, grades in CATALOG:
            assert ndcg_at_k(ranking, grades, k) \
                == ndcg_bruteforce(ranking, grades, k)
            assert precision_at_k(ranking, grades, k) \
                == p_at_k_bruteforce(ranking, grades, k)


class TestQidSortKey:
    def test_numeric_before_alpha_and_numeric_order(self):
        qids = ["10", "q2", "2", "1", "q10"]
        assert sorted(qids, key=qid_sort_key) == ["1", "2", "10", "q10", "q2"]

    def test_non_ascii_digits_sort_as_text(self):
        # "²".isdigit() is true, but int("²") raises
        assert sorted(["²", "10", "2"], key=qid_sort_key) == ["2", "10", "²"]


class TestEvaluateRun:
    def run_and_qrels(self):
        run = {
            "1": [("d1", -1.0), ("d2", -2.0), ("d3", -3.0)],
            "2": [("d2", -1.0), ("d1", -2.0)],
            "3": [("d1", -0.5)],
        }
        qrels = {
            "1": {"d1": 1, "d3": 1},
            "2": {"d1": 1},
            "3": {"d9": 0},  # judged but nothing relevant
        }
        return run, qrels

    def test_means_and_exclusion(self, caplog):
        run, qrels = self.run_and_qrels()
        with caplog.at_level("WARNING"):
            report = evaluate_run(run, qrels)
        assert set(report.per_query) == {"1", "2"}
        assert "3" in caplog.text
        ap1 = (1 / 1 + 2 / 3) / 2
        ap2 = 1 / 2
        assert report.means["map"] == pytest.approx((ap1 + ap2) / 2, rel=1e-12)

    def test_all_queries_unjudged_raises(self):
        run = {"1": [("d1", 0.0)]}
        with pytest.raises(ValueError):
            evaluate_run(run, {"1": {"d1": 0}})

    def test_report_query_order(self):
        run, qrels = self.run_and_qrels()
        report = evaluate_run(run, qrels)
        assert report.query_ids() == ["1", "2"]


class TestFisher:
    def make_runs(self, n=8, seed=0, shift=0.0):
        rng = np.random.default_rng(seed)
        qrels = {}
        run_a = {}
        run_b = {}
        for qi in range(n):
            qid = f"{qi + 1}"
            docs = [f"d{i}" for i in range(10)]
            rel = set(rng.choice(docs, size=3, replace=False))
            qrels[qid] = {d: int(d in rel) for d in docs}
            order_a = list(rng.permutation(docs))
            order_b = list(rng.permutation(docs))
            run_a[qid] = [(d, 10.0 - i + shift) for i, d in enumerate(order_a)]
            run_b[qid] = [(d, 10.0 - i) for i, d in enumerate(order_b)]
        return run_a, run_b, qrels

    def graded_runs(self, n, seed):
        """Graded judgments on 30 documents; run a ranks all of them and
        run b 20, so every metric, P@20 included, differs per query."""
        rng = np.random.default_rng(seed)
        qrels = {}
        run_a = {}
        run_b = {}
        for qi in range(n):
            qid = f"{qi + 1}"
            docs = [f"d{i}" for i in range(30)]
            rel = set(rng.choice(docs, size=int(rng.integers(1, 9)), replace=False))
            qrels[qid] = {d: int(rng.integers(1, 3)) if d in rel else 0 for d in docs}
            run_a[qid] = [(d, 30.0 - i) for i, d in enumerate(rng.permutation(docs))]
            run_b[qid] = [(d, 30.0 - i) for i, d in enumerate(rng.permutation(docs)[:20])]
        return run_a, run_b, qrels

    def test_identical_runs_give_p_one(self):
        run_a, _, qrels = self.make_runs()
        # 2^8 patterns: 255 permutations sample, 256 enumerate
        report = evaluate_run(run_a, qrels)
        p = fisher_randomization(report, report, permutations=255)
        assert p == {m: 1.0 for m in METRIC_NAMES}
        p_ex = fisher_randomization(report, report, permutations=256)
        assert p_ex == {m: 1.0 for m in METRIC_NAMES}

    def test_exhaustive_small_example(self):
        # two queries with per-query diffs (0.4, 0.4): patterns (+,+) and
        # (-,-) reach |mean diff| = 0.4, so p = 2 / 4
        run_a = {"1": [("d1", 2.0), ("d2", 1.0)],
                 "2": [("d1", 2.0), ("d2", 1.0)]}
        run_b = {"1": [("d2", 2.0), ("d1", 1.0)],
                 "2": [("d2", 2.0), ("d1", 1.0)]}
        qrels = {"1": {"d1": 1, "d2": 0}, "2": {"d1": 1, "d2": 0}}
        # AP diff per query: 1.0 - 0.5 = 0.5 -> same structure as the
        # (0.4, 0.4) example: only all-plus and all-minus patterns match
        p = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels))
        assert p["map"] == 2 / 4

    def test_symmetry_in_run_order(self):
        run_a, run_b, qrels = self.make_runs(n=17)
        pa = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                  permutations=5000, seed=3)
        pb = fisher_randomization(evaluate_run(run_b, qrels), evaluate_run(run_a, qrels),
                                  permutations=5000, seed=3)
        assert pa == pb

    def test_sampled_deterministic_under_seed(self):
        run_a, run_b, qrels = self.make_runs(n=17)
        p1 = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                  permutations=3000, seed=5)
        p2 = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                  permutations=3000, seed=5)
        assert p1 == p2

    def test_exhaustive_matches_sampled(self):
        # 17 queries: 2^17 permutations enumerate, 100,000 sample
        run_a, run_b, qrels = self.make_runs(n=17, seed=7)
        p_ex = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                    permutations=2**17)["map"]
        p_s = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                   permutations=100_000, seed=0)["map"]
        se = math.sqrt(p_ex * (1 - p_ex) / 100_000)
        assert abs(p_s - p_ex) <= 3 * se

    def test_exhaustive_matches_sampled_small_p(self):
        # p near 0.008: remove the sampled value's add-one correction
        # and compare hit proportions; the enumerated p is one already
        run_a, run_b, qrels = self.make_runs(n=17, seed=103)
        p_ex = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                    permutations=2**17)["map"]
        p_s = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                   permutations=100_000, seed=0)["map"]
        pi_s = (p_s * 100_001 - 1) / 100_000
        se = math.sqrt(p_ex * (1 - p_ex) / 100_000)
        assert p_ex < 0.01
        assert abs(pi_s - p_ex) <= 3 * se

    @pytest.mark.parametrize("n", [1, 7, 17, 19, 40])
    def test_chunked_draws_match_one_large_chunk(self, n):
        run_a, run_b, qrels = self.graded_runs(n=n, seed=n)
        # 4,097 and 100,000 are multiples of neither chunk size; from 17
        # queries on all three sample, below that all three enumerate
        for permutations in (3, 4097, 100_000):
            p = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                     permutations=permutations, seed=11)
            if permutations < 2**n:
                assert p == {m: fisher_sampled_reference(run_a, run_b, qrels, m,
                                                         permutations, 11)
                             for m in METRIC_NAMES}
            else:
                assert p == {m: fisher_exhaustive_reference(run_a, run_b, qrels, m)
                             for m in METRIC_NAMES}

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 10])
    def test_exhaustive_matches_the_enumeration_oracle(self, n):
        run_a, run_b, qrels = self.graded_runs(n=n, seed=n)
        # 2^n <= 100,000
        p = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels))
        assert p == {m: fisher_exhaustive_reference(run_a, run_b, qrels, m)
                     for m in METRIC_NAMES}

    @pytest.mark.parametrize("chunk", [1, 3, 4095])
    def test_odd_chunk_sizes_keep_the_sign_stream(self, monkeypatch, chunk):
        monkeypatch.setattr(evaluation, "_SIGN_CHUNK", chunk)
        run_a, run_b, qrels = self.graded_runs(n=17, seed=17)
        p = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                 permutations=9001, seed=11)
        assert p == {m: fisher_sampled_reference(run_a, run_b, qrels, m, 9001, 11)
                     for m in METRIC_NAMES}
        run_a, run_b, qrels = self.graded_runs(n=7, seed=7)
        p_ex = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels))
        assert p_ex == {m: fisher_exhaustive_reference(run_a, run_b, qrels, m)
                        for m in METRIC_NAMES}

    def test_sampling_memory_is_bounded(self):
        run_a, run_b, qrels = self.make_runs(n=40)
        tracemalloc.start()
        try:
            fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                 permutations=100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_exhaustive_memory_is_bounded(self):
        # the 2^20 x 20 int64 sign matrix alone would take 160 MB
        run_a, run_b, qrels = self.graded_runs(n=20, seed=20)
        tracemalloc.start()
        try:
            p = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                     permutations=2**20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert all(0.0 < v <= 1.0 for v in p.values())

    def test_mismatched_query_sets_raise(self):
        run_a, run_b, qrels = self.make_runs()
        del run_b["1"]
        with pytest.raises(ValueError, match="quer"):
            fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels))

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_enumerates_once_permutations_cover_every_pattern(self, n):
        run_a, run_b, qrels = self.graded_runs(n=n, seed=n)
        p = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                 permutations=2**n - 1, seed=11)
        assert p == {m: fisher_sampled_reference(run_a, run_b, qrels, m, 2**n - 1, 11)
                     for m in METRIC_NAMES}
        p = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                 permutations=2**n, seed=11)
        assert p == {m: fisher_exhaustive_reference(run_a, run_b, qrels, m)
                     for m in METRIC_NAMES}

    def test_no_query_with_relevant_documents_raises(self):
        # evaluate_run stops a pair with no relevant query before the test
        run_a, _, qrels = self.make_runs()
        qrels = {q: {d: 0 for d in grades} for q, grades in qrels.items()}
        with pytest.raises(ValueError, match="no query in the run has relevant documents"):
            evaluate_run(run_a, qrels)

    def test_reports_without_rows_raise(self):
        # reports built by hand, as evaluate_run never returns one without
        # rows; pytest turns numpy's empty-mean warning into an error
        empty = EvalReport({}, {m: 0.0 for m in METRIC_NAMES})
        with pytest.raises(ValueError, match="^no query in the reports has relevant documents$"):
            fisher_randomization(empty, empty)

    def test_reads_the_reports_without_scoring(self, monkeypatch):
        run_a, run_b, qrels = self.make_runs()
        reports = evaluate_run(run_a, qrels), evaluate_run(run_b, qrels)
        expect = fisher_randomization(*reports, permutations=500)
        for name in ("average_precision", "ndcg_at_k", "precision_at_k", "evaluate_run"):
            monkeypatch.setattr(evaluation, name, None)
        assert fisher_randomization(*reports, permutations=500) == expect

    def test_zero_permutations_raise(self):
        run_a, run_b, qrels = self.make_runs()
        with pytest.raises(ValueError, match=r"permutations must be >= 1"):
            fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                 permutations=0)

    def test_every_metric_has_a_p_value(self):
        run_a, run_b, qrels = self.make_runs()
        p = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                 permutations=500)
        assert list(p) == list(METRIC_NAMES)
        assert all(0.0 < v <= 1.0 for v in p.values())


# query, document and tag ids: whitespace-free, as run files require
RUN_ID = st.text(string.ascii_letters + string.digits + "-_.:", min_size=1,
                 max_size=6)


class TestRunIO:
    def test_write_then_read_preserves_order(self, tmp_path):
        run = {
            "2": [("dB", -1.5), ("dA", -2.25)],
            "10": [("dX", 0.125)],
        }
        path = tmp_path / "run.txt"
        write_run(path, run, "tag-x")
        lines = path.read_text().splitlines()
        # numeric query order, rank re-numbered from 1, %.6f scores
        assert lines[0].split() == ["2", "Q0", "dB", "1", "-1.500000", "tag-x"]
        assert lines[1].split() == ["2", "Q0", "dA", "2", "-2.250000", "tag-x"]
        assert lines[2].split() == ["10", "Q0", "dX", "1", "0.125000", "tag-x"]
        back = read_run(path)
        assert list(back) == ["2", "10"]
        assert [d for d, _ in back["2"]] == ["dB", "dA"]
        assert back["2"][0][1] == pytest.approx(-1.5)

    def test_non_ascii_digit_query_ids(self, tmp_path):
        run = {"²": [("d1", 1.0)], "10": [("d2", 0.5)], "2": [("d3", 0.25)]}
        path = tmp_path / "run.txt"
        write_run(path, run, "t")
        back = read_run(path)
        assert list(back) == ["2", "10", "²"]
        assert back == run

    def test_read_preserves_file_order_not_score_order(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("1 Q0 dA 1 0.100000 t\n1 Q0 dB 2 0.900000 t\n")
        back = read_run(path)
        assert [d for d, _ in back["1"]] == ["dA", "dB"]

    def test_duplicate_doc_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("1 Q0 dA 1 1.0 t\n1 Q0 dA 2 0.5 t\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_run(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("1 Q0 dA 1 1.0\n")
        with pytest.raises(ValueError):
            read_run(path)

    @pytest.mark.parametrize("score", ["abc", "nan", "inf", "-Infinity"])
    def test_score_that_is_not_finite_names_the_line(self, tmp_path, score):
        path = tmp_path / "run.txt"
        path.write_text(f"1 Q0 dA 1 1.0 t\n1 Q0 dB 2 {score} t\n")
        message = f"{path}:2: score must be a finite number, got {score!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_run(path)

    @settings(max_examples=100, deadline=None)
    @given(run=st.dictionaries(
               RUN_ID,
               st.lists(st.tuples(RUN_ID, st.floats(-1e9, 1e9)), min_size=1,
                        max_size=5, unique_by=lambda row: row[0]),
               min_size=1, max_size=5),
           tag=RUN_ID)
    def test_round_trip_property(self, run, tag):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.txt"
            write_run(path, run, tag)
            back = read_run(path)
        assert list(back) == sorted(run, key=qid_sort_key)
        assert back == {qid: [(doc, float(f"{score:.6f}")) for doc, score in rows]
                        for qid, rows in run.items()}

    def test_byte_identical_rewrites(self, tmp_path):
        run = {"1": [("d1", 1 / 3), ("d2", -2 / 7)]}
        write_run(tmp_path / "a.txt", run, "t")
        write_run(tmp_path / "b.txt", run, "t")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


class TestQrelsIO:
    def test_read(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("1 0 dA 1\n1 0 dB 0\n2 0 dA 2\n")
        qrels = read_qrels(path)
        assert qrels == {"1": {"dA": 1, "dB": 0}, "2": {"dA": 2}}

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("1 0 dA 1\n1 0 dA 0\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_qrels(path)

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("1 0 dA\n")
        with pytest.raises(ValueError):
            read_qrels(path)

    @pytest.mark.parametrize("grade", ["x", "1.5"])
    def test_grade_that_is_not_an_integer_names_the_line(self, tmp_path, grade):
        path = tmp_path / "qrels.txt"
        path.write_text(f"1 0 dA 1\n1 0 dB {grade}\n")
        message = f"{path}:2: relevance grade must be an integer, got {grade!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_qrels(path)

    @pytest.mark.parametrize("grade", [1000, 1001])
    def test_grade_bound(self, tmp_path, grade):
        # 2**1024 - 1, nDCG's gain at grade 1024, overflows a float
        path = tmp_path / "qrels.txt"
        path.write_text(f"1 0 dA 1\n1 0 dB {grade}\n")
        if grade <= evaluation.MAX_GRADE:
            assert read_qrels(path)["1"]["dB"] == grade
            assert evaluate_run({"1": [("dB", 1.0)]}, read_qrels(path)).means["ndcg@20"] > 0
        else:
            message = f"{path}:2: relevance grade must be at most 1000, got {grade}"
            with pytest.raises(ValueError, match=re.escape(message)):
                read_qrels(path)


def test_rank_by_score_breaks_ties_by_doc_id():
    ranked = rank_by_score(["dB", "dC", "dA", "dD"], np.array([1.0, 2.0, 1.0, -3.0]))
    assert ranked == [("dC", 2.0), ("dA", 1.0), ("dB", 1.0), ("dD", -3.0)]
    assert all(type(score) is float for _, score in ranked)


class TestReports:
    def make_report(self):
        per_query = {
            "1": {"map": 0.5, "ndcg@20": 0.6, "p@20": 0.1},
            "2": {"map": 1.0, "ndcg@20": 1.0, "p@20": 0.2},
        }
        means = {"map": 0.75, "ndcg@20": 0.8, "p@20": 0.15000000000000002}
        return EvalReport(per_query, means)

    def test_table_has_all_row(self):
        table = format_eval_table(self.make_report())
        lines = table.splitlines()
        assert "map" in lines[0]
        assert lines[-1].split()[0] == "all"
        assert "0.7500" in lines[-1]

    @pytest.mark.parametrize("p, decimals, text", [
        (1.0, 4, "1.0000"), (0.0312, 4, "0.0312"), (1 / 100_001, 4, "1.0e-05"),
        (1 / 100_001, 6, "0.000010"), (4e-7, 6, "4.0e-07"), (0.0, 4, "0.0000"),
    ])
    def test_p_value_text_never_reads_zero_for_a_positive_p(self, p, decimals, text):
        assert evaluation.p_value_text(p, decimals) == text

    def test_paired_csv_p_value_row(self, tmp_path):
        path = tmp_path / "eval.csv"
        report = self.make_report()
        write_eval_csv(path, {"a": report, "b": report},
                       {"map": 1.0, "ndcg@20": 1 / 100_001, "p@20": 1 / 10_000_001})
        assert path.read_text().splitlines()[-1] == \
            "p_value,1.000000,,0.000010,,1.0e-07,"

    def test_csv(self, tmp_path):
        path = tmp_path / "eval.csv"
        write_eval_csv(path, {"run": self.make_report()})
        lines = path.read_text().splitlines()
        assert lines[0] == "query,map,ndcg@20,p@20"
        assert lines[1].startswith("1,")
        assert lines[-1].startswith("all,")
