"""Timing of one batched kernel call per query against one call per document.

Scores one synthetic query's candidate documents with the numpy window
kernels in two ways: one batched call over all candidates, as the
reranker makes it, and one call per document (a batch of one). Reports microseconds per document for each and checks that
both give bitwise the same scores.

Usage: python3 benchmarks/bench_kernels.py [--docs N] [--doc-len N] ...
"""

import argparse
import time

import numpy as np

from passagerank import _accel


def make_inputs(rng, n_docs, doc_len, query_len, vocab=5000):
    lengths = rng.integers(doc_len // 2, doc_len + 1, size=n_docs)
    tokens = rng.integers(0, vocab, size=int(lengths.sum())).astype(np.int32)
    query = rng.integers(0, vocab, size=query_len).astype(np.int32)
    bias = rng.uniform(0.01, 2.0, size=query_len)
    background = rng.uniform(1e-6, 1e-2, size=query_len)
    return tokens, lengths.astype(np.int64), query, bias, background


def best_of(fn, repeats):
    # one untimed warm-up pass
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--docs", type=int, default=300, help="candidates per query")
    ap.add_argument("--doc-len", type=int, default=1200)
    ap.add_argument("--query-len", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    tokens, lengths, query, bias, background = make_inputs(
        rng, args.docs, args.doc_len, args.query_len
    )
    docs = np.split(tokens, np.cumsum(lengths)[:-1])
    one = [np.array([d.size]) for d in docs]  # per-document batches of one
    ms = np.array([50, 150, -1], dtype=np.int64)
    taus = np.array([25, 75, 0], dtype=np.int64)

    def window(toks, lens):
        return _accel.kernel_filter_scores(toks, query, bias, ms, taus, False, lens)

    def span_lm(toks, lens):
        return _accel.lm_span_scores(toks, query, background, 0.5, 50, 25, lens)

    print(f"{args.docs} docs, mean length {int(lengths.mean())}, "
          f"query length {args.query_len}, best of {args.repeats}")
    for name, kernel, stack in (("window kernel", window, np.vstack),
                                ("span lm      ", span_lm, np.concatenate)):
        batched = best_of(lambda: kernel(tokens, lengths), args.repeats)
        per_doc = best_of(lambda: [kernel(d, n) for d, n in zip(docs, one)],
                          args.repeats)
        same = np.array_equal(kernel(tokens, lengths),
                              stack([kernel(d, n) for d, n in zip(docs, one)]))
        print(f"{name}  batched: {batched / args.docs * 1e6:7.1f} us/doc  "
              f"per-document: {per_doc / args.docs * 1e6:7.1f} us/doc  "
              f"({per_doc / batched:4.1f}x)  identical: {same}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
