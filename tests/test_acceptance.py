"""Acceptance suite: nine end-to-end correctness criteria.

Each test prints one ``criterion N: PASS/FAIL`` line (run with ``-s`` to
see them on success) and states its tolerance inline.
"""

import filecmp
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from passagerank import (
    FilterSpec,
    FusionModel,
    Query,
    SmoothingConfig,
    average_precision,
    build_index,
    evaluate_run,
    feature_names,
    fisher_randomization,
    msp_rank,
    ndcg_at_k,
    precision_at_k,
    rank_documents,
    softmax_rows,
    train,
)
from passagerank.cli import main
from passagerank.evaluation import METRIC_NAMES
from passagerank.features import (
    HOMOGENEITY_KINDS,
    FeatureExtractor,
    ScoreSettings,
    homogeneity,
)
from passagerank import _accel
from passagerank.fusion import forward_parts
from passagerank.passages import score_tokens
from passagerank.retrieval import QueryContext
from passagerank.training import CandidateSet, TrainConfig

from conftest import planted_corpus, random_documents, random_queries
from oracle_metrics import ap_bruteforce, ndcg_bruteforce, p_at_k_bruteforce
from test_cli import TRAIN_CONF, write_qrels, write_topics, write_trectext
from test_evaluation import CATALOG
from test_fusion import identity_norm
from reference import (
    PassageSpan,
    build_matrix,
    extract_passages,
    kernel_lm_shift,
    kernel_score,
    lm_score,
    pool_document,
    score_tokens_one,
    whole_doc_lm_one,
)


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {summary}")
        raise
    print(f"criterion {num}: PASS - {summary}")


def test_criterion_1_kernel_reproduces_lm_score():
    """Log-kernel minus its constant equals the span LM score on every span.

    (a) 10^4 random (query, span) instances of the reference scorers.
    (b) Every span of five windows over 100 documents of 1 to 200 tokens,
    so L < m, L = m, and L - m a multiple of tau or not: the package's
    span LM scores against the kernel oracle at the span's length, and
    each ``score_tokens`` column against the best of its span LM
    scores. Relative error <= 1e-12, wall time < 10 s.
    """
    with criterion(1, "kernel == lm + n_q*ln(n/(1-lambda)) within 1e-12 "
                      "on every span in < 10 s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        docs = random_documents(rng, 300, vocab_size=60, min_len=20,
                                max_len=200)
        index = build_index(docs)
        worst = 0.0
        for i in range(10_000):
            doc = docs[int(rng.integers(0, len(docs)))]
            lam = float(rng.uniform(0.1, 0.9))
            s = SmoothingConfig(lam)
            m = int(rng.integers(2, min(doc.n_d, 80) + 1))
            start = int(rng.integers(0, doc.n_d - m + 1))
            span = PassageSpan(start, m)
            n_q = int(rng.integers(1, 6))
            terms = tuple(f"t{int(rng.integers(0, 60))}" for _ in range(n_q))
            query = Query(f"q{i}", terms)
            matrix = build_matrix(query, doc)
            kern = kernel_score(query, span, matrix, index, s, m_eff=m)
            shift = n_q * math.log(m / (1.0 - lam))
            ref = lm_score(query, span, doc, index, s)
            worst = max(worst, abs(kern - shift - ref) / max(abs(ref), 1e-30))

        docs = random_documents(rng, 100, vocab_size=60, min_len=1, max_len=200)
        index = build_index(docs)
        tokens, lengths = index.batch_tokens([d.doc_id for d in docs])
        filters = (FilterSpec(2, 1), FilterSpec(7, 3), FilterSpec.window(50),
                   FilterSpec.window(150), FilterSpec.whole_document())
        for i in range(5):
            s = SmoothingConfig(float(rng.uniform(0.1, 0.9)))
            terms = tuple(f"t{int(rng.integers(0, 60))}"
                          for _ in range(int(rng.integers(1, 6))))
            query = Query(f"w{i}", terms)
            ctx = QueryContext(query, index, s)
            matrices = [build_matrix(query, doc) for doc in docs]
            pooled = score_tokens(ctx, tokens, filters, lengths)
            for col, f in enumerate(filters):
                lm = _accel.lm_span_scores(tokens, ctx.ids, ctx.background,
                                           1.0 - s.lambda_c, f.m, f.tau, lengths)
                spans = [(matrix, sp) for doc, matrix in zip(docs, matrices)
                         for sp in extract_passages(doc.n_d, f)]
                assert lm.shape == (len(spans),)
                for score, (matrix, sp) in zip(lm.tolist(), spans):
                    kern = (kernel_score(query, sp, matrix, index, s, m_eff=sp.length)
                            - kernel_lm_shift(query.n_q, sp.length, s))
                    worst = max(worst, abs(score - kern) / abs(kern))
                offsets = _accel.span_layout(lengths, f.m, f.tau)[1]
                bounds = [*offsets.tolist(), lm.shape[0]]
                for d, doc in enumerate(docs):
                    want = pool_document(lm[bounds[d]:bounds[d + 1]])
                    worst = max(worst, abs(pooled[d, col] - want) / abs(want))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-12, f"worst relative error {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_special_case_collapses(fixed_homogeneity):
    """Degenerate configurations reproduce whole-document rankings.

    (a) Fusion ranker with one whole-document filter, zero weights
    (uniform gate) and identity normalization orders a 500-doc corpus
    exactly like query likelihood on every query. (b) The homogeneity
    mix with h forced to 0 reproduces best-passage rankings exactly and
    with h forced to 1 reproduces whole-document rankings exactly.
    """
    with criterion(2, "uniform-gate/identity-norm fusion == QL ordering; "
                      "h=0 and h=1 collapse exactly"):
        rng = np.random.default_rng(7)
        docs = random_documents(rng, 500, vocab_size=80, min_len=10,
                                max_len=150)
        index = build_index(docs)
        queries = random_queries(rng, 25, vocab_size=80)
        s = SmoothingConfig(0.5)

        inf_filter = FilterSpec.whole_document()
        model = FusionModel(
            filters=[inf_filter],
            feature_names=["list_mean"],
            W=np.zeros((1, 1)),
            b=0.0,
            score_norm=identity_norm(1),
            feature_norm=identity_norm(1),
        )
        doc_ids = [d.doc_id for d in docs]
        for q in queries:
            ql = rank_documents(q, index, s, len(docs))
            ctx = QueryContext(q, index, s)
            R = np.array([
                [whole_doc_lm_one(ctx, index.doc_tokens(index.doc_index(d)))]
                for d in doc_ids
            ])
            lin = model.linear_many(R, np.zeros((len(doc_ids), 1)))
            order = sorted(range(len(doc_ids)),
                           key=lambda i: (-lin[i], doc_ids[i]))
            assert [doc_ids[i] for i in order] == [d for d, _ in ql], \
                f"query {q.query_id} ordering diverged"

        cand = doc_ids[:200]
        for q in queries[:10]:
            base = msp_rank(q, cand, index, 50, "none", s=s)
            fixed_homogeneity(0.0)
            h0 = msp_rank(q, cand, index, 50, "docpsg", s=s)
            assert h0 == base
            fixed_homogeneity(1.0)
            h1 = msp_rank(q, cand, index, 50, "docpsg", s=s)
            ctx = QueryContext(q, index, s)
            whole = sorted(
                ((d, whole_doc_lm_one(ctx, index.doc_tokens(index.doc_index(d))))
                 for d in cand),
                key=lambda kv: (-kv[1], kv[0]),
            )
            assert [d for d, _ in h1] == [d for d, _ in whole]


def test_criterion_3_planted_passage_discrimination():
    """Passage scoring finds planted co-occurrence windows.

    200 docs, 20 with all query terms in one 30-token window, 20 with
    the same terms >= 500 apart. Best-passage MAP (window 50) must be
    strictly above whole-document MAP; the trained fusion ranker's
    5-fold held-out MAP must reach at least the best-passage MAP.
    Deterministic under the seed; wall time < 5 min.
    """
    with criterion(3, "MSP(50) MAP > whole-doc MAP; 5-fold held-out fusion "
                      "MAP >= MSP MAP; bitwise deterministic; < 5 min"):
        t0 = time.perf_counter()
        docs, queries, qrels = planted_corpus()
        index = build_index(docs)
        s = SmoothingConfig(0.5)
        all_ids = [d.doc_id for d in docs]

        ql_run = {q.query_id: rank_documents(q, index, s, 200)
                  for q in queries}
        map_ql = evaluate_run(ql_run, qrels).means["map"]

        msp_run = {q.query_id: msp_rank(q, all_ids, index, 50, "none", s=s)
                   for q in queries}
        map_msp = evaluate_run(msp_run, qrels).means["map"]
        assert map_msp > map_ql, f"msp {map_msp:.4f} <= ql {map_ql:.4f}"

        filters = (FilterSpec.window(50), FilterSpec.window(150),
                   FilterSpec.whole_document())
        names = feature_names("doc+query")
        extractor = FeatureExtractor(index, ScoreSettings(
            filters, s, "doc+query", FilterSpec.window(50), 50))

        def build_candidates() -> dict:
            cands = {}
            for q in queries:
                top = ql_run[q.query_id][:50]
                doc_ids = [d for d, _ in top]
                scores = [sc for _, sc in top]
                ctx = QueryContext(q, index, s)
                R = np.array([
                    score_tokens_one(ctx, index.doc_tokens(index.doc_index(d)),
                                     filters, "lm")
                    for d in doc_ids
                ])
                H = extractor.matrix(q, doc_ids, scores)
                rel = np.array(
                    [qrels[q.query_id].get(d, 0) > 0 for d in doc_ids],
                    dtype=bool,
                )
                cands[q.query_id] = CandidateSet(q, doc_ids, R, H, rel)
            return cands

        cands = build_candidates()
        tc = TrainConfig(learning_rate=0.05, batch_size=64, max_epochs=8,
                         patience=3, seed=0, negatives_per_positive=5,
                         folds=5)
        results = train(cands, tc, {}, filters, names)

        aps = []
        for res in results:
            for qid in res.test_qids:
                cs = cands[qid]
                lin = res.model.linear_many(cs.R, cs.H)
                order = sorted(range(len(cs.doc_ids)),
                               key=lambda i: (-lin[i], cs.doc_ids[i]))
                ranking = [cs.doc_ids[i] for i in order]
                aps.append(average_precision(ranking, qrels[qid]))
        map_npm = float(np.mean(aps))
        assert map_npm >= map_msp, \
            f"held-out fusion {map_npm:.4f} < msp {map_msp:.4f}"

        results2 = train(cands, tc, {}, filters, names)
        for a, b in zip(results, results2):
            assert a.model.W.tobytes() == b.model.W.tobytes()
            assert a.model.b == b.model.b

        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"took {elapsed:.1f} s"


def test_criterion_4_analytic_gradients_match_finite_differences():
    """Hinge-of-fusion gradients vs central differences, 1e-4 relative.

    100 random instances, margins kept > 1e-2 from the hinge kink.
    """
    with criterion(4, "analytic hinge gradients match central differences "
                      "within 1e-4 relative on 100 instances"):
        rng = np.random.default_rng(19)
        alpha, beta = 3, 5
        eps = 1e-5
        checked = 0
        while checked < 100:
            W = rng.normal(0.0, 0.5, size=(alpha, beta))
            b = float(rng.normal(0.0, 0.2))
            rp, hp = rng.normal(size=alpha), rng.normal(size=beta)
            rn, hn = rng.normal(size=alpha), rng.normal(size=beta)

            R, H = np.vstack([rp, rn]), np.vstack([hp, hn])

            def loss(Wx, bx):
                (sp, sn), _, _, _ = forward_parts(Wx, bx, R, H)
                return max(0.0, 1.0 - sp + sn)

            (sp, sn), _, C, dB = forward_parts(W, b, R, H)
            margin = 1.0 - sp + sn
            if abs(margin) <= 1e-2:
                continue
            checked += 1
            active = margin > 0.0
            dW = (np.outer(C[1], hn) - np.outer(C[0], hp) if active
                  else np.zeros_like(W))
            db = (dB[1] - dB[0]) if active else 0.0

            fd_W = np.zeros_like(W)
            for i in range(alpha):
                for j in range(beta):
                    Wp_ = W.copy(); Wp_[i, j] += eps
                    Wm_ = W.copy(); Wm_[i, j] -= eps
                    fd_W[i, j] = (loss(Wp_, b) - loss(Wm_, b)) / (2 * eps)
            fd_b = (loss(W, b + eps) - loss(W, b - eps)) / (2 * eps)

            scale = max(np.abs(fd_W).max(), abs(fd_b), 1e-12)
            assert np.abs(dW - fd_W).max() / scale <= 1e-4
            assert abs(db - fd_b) / scale <= 1e-4


def test_criterion_5_softmax_simplex_and_shift_invariance():
    """Gate outputs are a strict simplex, invariant to row shifts.

    10^4 fuzzed rows with magnitudes up to 1e3; all components > 0;
    |sum - 1| < 1e-12; shift changes components by <= 1e-12.
    """
    with criterion(5, "softmax strictly positive, sums within 1e-12 of 1, "
                      "shift-invariant to 1e-12 on 10^4 fuzzed rows"):
        rng = np.random.default_rng(23)
        Z = rng.uniform(-1e3, 1e3, size=(10_000, 6))
        phi = softmax_rows(Z)
        assert (phi > 0.0).all()
        assert np.abs(phi.sum(axis=1) - 1.0).max() < 1e-12
        shifts = rng.uniform(-1e3, 1e3, size=(10_000, 1))
        phi_shift = softmax_rows(Z + shifts)
        assert np.abs(phi - phi_shift).max() <= 1e-12


def test_criterion_6_metric_oracles():
    """Hand-computed metric values and brute-force agreement.

    AP = 5/6 on [R, N, R]; NDCG@20 = 1/log2(3) on [N, R]; P@20 = 0.35
    with 7 relevant in the top 20; a 10-case catalog matches an
    independent brute-force implementation exactly (==).
    """
    with criterion(6, "AP=5/6, NDCG@20=1/log2(3), P@20=0.35; 10-case "
                      "catalog matches brute force exactly"):
        assert average_precision(["d1", "d2", "d3"],
                                 {"d1": 1, "d2": 0, "d3": 1}) == \
            pytest.approx(5 / 6, rel=1e-15)
        assert ndcg_at_k(["d1", "d2"], {"d1": 0, "d2": 1}, 20) == \
            pytest.approx(1 / math.log2(3), rel=1e-15)
        ranking = [f"d{i}" for i in range(20)]
        grades = {f"d{i}": int(i < 7) for i in range(20)}
        assert precision_at_k(ranking, grades, 20) == 0.35
        assert len(CATALOG) == 10
        for ranking, grades in CATALOG:
            assert average_precision(ranking, grades) \
                == ap_bruteforce(ranking, grades)
            assert ndcg_at_k(ranking, grades, 20) \
                == ndcg_bruteforce(ranking, grades, 20)
            assert precision_at_k(ranking, grades, 20) \
                == p_at_k_bruteforce(ranking, grades, 20)


def test_criterion_7_randomization_test_sanity():
    """Identical runs give p = 1.0; exhaustive matches sampled.

    On 17 queries the exact p over all 2^17 sign patterns and the
    100,000-permutation sampled p agree within 3 binomial standard
    errors.
    """
    with criterion(7, "identical runs p=1.0; exhaustive within 3 SE of "
                      "sampled at 100k permutations on 17 queries"):
        rng = np.random.default_rng(7)
        qrels = {}
        run_a = {}
        run_b = {}
        for qi in range(17):
            qid = f"{qi + 1}"
            docs = [f"d{i}" for i in range(10)]
            rel = set(rng.choice(docs, size=3, replace=False))
            qrels[qid] = {d: int(d in rel) for d in docs}
            order_a = list(rng.permutation(docs))
            order_b = list(rng.permutation(docs))
            run_a[qid] = [(d, 10.0 - i) for i, d in enumerate(order_a)]
            run_b[qid] = [(d, 10.0 - i) for i, d in enumerate(order_b)]

        ones = {m: 1.0 for m in METRIC_NAMES}
        assert fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_a, qrels),
                                    permutations=10_000) == ones
        assert fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_a, qrels),
                                    permutations=2**17) == ones

        p_ex = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                    permutations=2**17)["map"]
        p_s = fisher_randomization(evaluate_run(run_a, qrels), evaluate_run(run_b, qrels),
                                   permutations=100_000, seed=0)["map"]
        se = math.sqrt(p_ex * (1.0 - p_ex) / 100_000)
        assert abs(p_s - p_ex) <= 3 * se, \
            f"|{p_s:.5f} - {p_ex:.5f}| > 3*{se:.5f}"


def test_criterion_8_homogeneity_bounds_and_extremes():
    """All four homogeneity scores live in [0, 1] with exact extremes.

    10^3 random documents; h_ent = 1 exactly on single-term documents;
    the longest document scores h_length = 0 and the shortest 1.
    """
    with criterion(8, "h in [0,1] on 10^3 random docs; h_ent=1 on "
                      "single-term docs; length extremes hit 0/1"):
        rng = np.random.default_rng(31)
        docs = random_documents(rng, 1000, vocab_size=30, min_len=5,
                                max_len=120)
        index = build_index(docs)
        f = FilterSpec.window(20)
        lengths = {d.doc_id: d.n_d for d in docs}
        for d in docs:
            h = dict(zip(HOMOGENEITY_KINDS, homogeneity(d.doc_id, index, f)))
            for kind, v in h.items():
                assert 0.0 <= v <= 1.0, f"{kind}={v} on {d.doc_id}"
            if d.n_d == max(lengths.values()):
                assert h["length"] == 0.0
            if d.n_d == min(lengths.values()):
                assert h["length"] == 1.0

        from passagerank import Document
        single = [Document(f"s{i}", (f"t{i}",) * (10 + i)) for i in range(5)]
        filler = random_documents(rng, 5, vocab_size=30, prefix="f")
        idx2 = build_index(single + filler)
        for d in single:
            h = dict(zip(HOMOGENEITY_KINDS, homogeneity(d.doc_id, idx2, f)))
            assert h["ent"] == 1.0


def test_criterion_9_pipeline_determinism(tmp_path):
    """index -> retrieve -> train -> rerank -> eval twice, same bytes.

    Both passes use the same seed and configuration; every artifact
    must be byte-identical.
    """
    with criterion(9, "two same-seed pipeline runs produce byte-identical "
                      "artifacts"):
        docs, queries, qrels = planted_corpus(
            n_queries=6, n_docs=40, doc_len=1100, bg_vocab=100, seed=0
        )
        corpus = tmp_path / "corpus.trectext"
        topics = tmp_path / "topics.txt"
        qrels_f = tmp_path / "qrels.txt"
        conf = tmp_path / "train.conf"
        write_trectext(corpus, docs)
        write_topics(topics, queries)
        write_qrels(qrels_f, qrels)
        conf.write_text(TRAIN_CONF)

        def run_pipeline(root):
            root.mkdir()
            idx = root / "index"
            ql = root / "ql.run"
            npm = root / "npm.run"
            models = root / "models"
            feats = root / "features.tsv"
            ecsv = root / "eval.csv"
            assert main(["index", "--corpus", str(corpus),
                         "--index", str(idx)]) == 0
            assert main(["retrieve", "--index", str(idx),
                         "--topics", str(topics), "--top-k", "40",
                         "--output", str(ql)]) == 0
            assert main(["train", "--config", str(conf), "--index", str(idx),
                         "--topics", str(topics), "--qrels", str(qrels_f),
                         "--run", str(ql), "--output-dir", str(models),
                         "--seed", "0"]) == 0
            assert main(["rerank", "--config", str(conf), "--index", str(idx),
                         "--topics", str(topics), "--run", str(ql),
                         "--mode", "npm", "--model", str(models),
                         "--dump-features", str(feats),
                         "--output", str(npm)]) == 0
            assert main(["eval", "--qrels", str(qrels_f), "--run", str(npm),
                         "--csv", str(ecsv)]) == 0
            return root

        a = run_pipeline(tmp_path / "a")
        b = run_pipeline(tmp_path / "b")
        artifacts = sorted(
            p.relative_to(a) for p in a.rglob("*") if p.is_file()
        )
        assert artifacts, "pipeline produced no artifacts"
        assert artifacts == sorted(
            p.relative_to(b) for p in b.rglob("*") if p.is_file()
        )
        for rel in artifacts:
            assert filecmp.cmp(a / rel, b / rel, shallow=False), \
                f"{rel} differs between runs"
