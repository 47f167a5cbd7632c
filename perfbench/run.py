"""Seeded end-to-end benchmark of the passagerank pipeline.

Usage:
    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The benchmark generates a workload's
inputs from the seed, then runs the CLI stages one after another, each
as its own process (``python -m passagerank.cli <stage> ...`` with the
package taken from ``src/``), checks every output against oracles that
use no package code, and repeats the pipeline while ``--seconds`` allow.
Stage times are reported as medians over those passes.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it alternates untraced passes with passes run through ``tracer.py``,
which wraps each layer's functions, and prints the per-layer metrics
and the tracing overhead. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; one op is one stage
invocation plus its output check. The full record (machine, backend,
scale, input properties, artifact digests, per-pass times) is written
to ``.perfbench/BENCH_<workload>_seed<n>_trace<t>.json``.

Without ``--workload`` all workloads run in turn. The exit status is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from generate import Corpus, planted_corpus, write_inputs, zipf_corpus
from tracer import layer_metrics, per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# a single-workload run must exit within 180 s; stop starting work here
TIME_LIMIT_S = 165.0
SETUP_REPEATS = 5
QL_SAMPLE = 8
FOLDS = 5
FILTERS = "50:25,150:75,inf"

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "index_s": "s",
    "retrieve_s": "s",
    "rerank_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Stage:
    name: str
    argv: tuple[str, ...]       # CLI arguments; {corpus} {topics} {qrels} {p} {k}
    artifacts: tuple[str, ...]  # outputs digested, relative to the pass dir

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: dict
    make: Callable[[int], Corpus]
    top_k: int
    stages: tuple[Stage, ...]


INDEX = Stage("index", ("index", "--corpus", "{corpus}", "--index", "{p}/index"), ("index",))
RETRIEVE = Stage("retrieve", ("retrieve", "--index", "{p}/index", "--topics", "{topics}",
                              "--top-k", "{k}", "--output", "{p}/ql.run"), ("ql.run",))


def _rerank(name: str, out: str, *flags: str) -> Stage:
    return Stage(name, ("rerank", "--index", "{p}/index", "--topics", "{topics}",
                        "--run", "{p}/ql.run", *flags, "--output", f"{{p}}/{out}"),
                 (out,))


# Scales are chosen so one pass takes 3-8 s on 2 cores and a 30 s run holds
# several passes, whose medians damp short slowdowns of a shared machine.
# At the ROADMAP scale (1500 docs, top_k 300) one planted pass takes ~21 s.
PLANTED = dict(n_queries=40, n_docs=300, doc_len=2000, bg_vocab=500)
FIRSTSTAGE = dict(n_docs=1000, n_queries=100)
HOMOGENEITY = dict(n_docs=600, n_queries=15)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "planted-experiment",
            "the paper's experiment: features, kernels, SGD and fusion all run; "
            "97.5% of (query, doc) pairs reuse a document, so the homogeneity cache is warm",
            dict(PLANTED, filters=FILTERS, folds=FOLDS),
            lambda seed: planted_corpus(seed=seed, **PLANTED),
            60,
            (
                INDEX,
                RETRIEVE,
                Stage("train", ("train", "--index", "{p}/index", "--topics", "{topics}",
                                "--qrels", "{qrels}", "--run", "{p}/ql.run", "--top-k", "{k}",
                                "--filters", FILTERS, "--folds", str(FOLDS),
                                "--output-dir", "{p}/models"),
                      ("models",)),
                _rerank("rerank-npm", "npm.run", "--mode", "npm", "--model", "{p}/models",
                        "--top-k", "{k}", "--filters", FILTERS),
                _rerank("rerank-msp", "msp.run", "--mode", "msp", "--passage-size", "50"),
                Stage("eval", ("eval", "--qrels", "{qrels}", "--run", "{p}/npm.run",
                               "--baseline", "{p}/ql.run"),
                      ("eval.out",)),
            ),
        ),
        Workload(
            "zipf-firststage",
            "ingest and first-stage retrieval on a Zipf corpus; homogeneity, "
            "training and fusion never run, so changes to them must not show here",
            dict(FIRSTSTAGE, passage_sizes=[50, 150]),
            lambda seed: zipf_corpus(seed=seed, **FIRSTSTAGE),
            50,
            (
                INDEX,
                RETRIEVE,
                _rerank("rerank-msp50", "msp50.run", "--mode", "msp", "--passage-size", "50"),
                _rerank("rerank-msp150", "msp150.run", "--mode", "msp", "--passage-size", "150"),
            ),
        ),
        Workload(
            "zipf-homogeneity",
            "homogeneity on a cold cache: only 20-30% of pairs reuse a document; "
            "msp-ent shows work spent on homogeneity kinds it does not use",
            dict(HOMOGENEITY, passage_size=50),
            lambda seed: zipf_corpus(seed=seed, **HOMOGENEITY),
            20,
            (
                INDEX,
                RETRIEVE,
                _rerank("rerank-msp-ent", "msp-ent.run", "--mode", "msp-ent"),
                _rerank("rerank-msp-intpsg", "msp-intpsg.run", "--mode", "msp-intpsg"),
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def _stage_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cmd: list[str], out: Path, err: Path, timeout: float) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, max RSS MB).

    The process is killed once ``timeout`` passes; either way it has
    ended and been reaped when this returns.
    """
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=ROOT, env=_stage_env())
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# one pipeline pass
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    dir: Path
    traced: bool
    walls: dict[str, float] = field(default_factory=dict)
    rss_mb: dict[str, float] = field(default_factory=dict)
    problems: dict[str, list[str]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    complete: bool = False

    def end_to_end(self, wl: Workload) -> dict[str, float]:
        """pipeline_s, one <command>_s per CLI command run, peak_rss_mb."""
        out = {"pipeline_s": sum(self.walls.values())}
        for command in dict.fromkeys(s.command for s in wl.stages):
            out[f"{command}_s"] = sum(self.walls[s.name] for s in wl.stages
                                      if s.command == command)
        out["peak_rss_mb"] = max(self.rss_mb.values())
        return out


def check_stage(stage: Stage, wl: Workload, corpus: Corpus, pdir: Path) -> list[str]:
    if stage.command == "index":
        return checks.check_index(pdir / "index", corpus)
    ql_run = checks.read_run(pdir / "ql.run")
    if stage.command == "retrieve":
        return checks.check_ql(ql_run, corpus, wl.top_k, QL_SAMPLE)
    if stage.command == "train":
        return checks.check_models(pdir / "models", [q for q, _ in corpus.queries], FOLDS)
    if stage.command == "rerank":
        run = checks.read_run(pdir / stage.artifacts[0])
        problems = checks.check_rerank(run, ql_run)
        if corpus.qrels is not None:
            problems += checks.check_planted_top(run, corpus.qrels)
        return problems
    text = (pdir / "eval.out").read_text(encoding="utf-8")
    return checks.check_eval_table(text, expect_map=1.0)


def run_pass(wl: Workload, corpus: Corpus, inputs: dict[str, Path], pdir: Path,
             traced: bool, reference: dict[str, str] | None, deadline: float) -> Pass:
    """Run every stage once; a failed stage ends the pass."""
    pdir.mkdir(parents=True)
    res = Pass(pdir, traced)
    for stage in wl.stages:
        argv = [a.format(p=pdir, k=wl.top_k, **inputs) for a in stage.argv]
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"),
                   str(pdir / f"{stage.name}.spans.json"), stage.name, wl.name, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "passagerank.cli", *argv]
        rc, wall, rss = spawn(cmd, pdir / f"{stage.name}.out", pdir / f"{stage.name}.err",
                              deadline - time.monotonic())
        res.walls[stage.name] = wall
        res.rss_mb[stage.name] = rss
        if rc != 0:
            tail = (pdir / f"{stage.name}.err").read_text(errors="replace").strip()[-300:]
            res.problems[stage.name] = [f"exit code {rc}: {tail}"]
            return res
        try:
            problems = check_stage(stage, wl, corpus, pdir)
        except (OSError, ValueError, KeyError, IndexError) as e:
            problems = [f"output unreadable: {e!r}"]
        digests = checks.digest_tree(pdir, list(stage.artifacts))
        res.digests.update(digests)
        if reference is not None:
            expected = {k: v for k, v in reference.items()
                        if k.split("/")[0] in stage.artifacts}
            differ = sorted(k for k in set(digests) | set(expected)
                            if digests.get(k) != expected.get(k))
            if differ:
                problems.append(f"artifacts differ from pass 0: {differ}")
        res.problems[stage.name] = problems[:3] + (
            [f"... and {len(problems) - 3} more"] if len(problems) > 3 else [])
    res.complete = True
    return res


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=False)
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def probe_backend() -> str:
    """Backend the package selects; also compiles its bytecode once, so
    no timed stage pays for that."""
    out = subprocess.run(
        [sys.executable, "-c", "import passagerank; print(passagerank.backend_name())"],
        cwd=ROOT, env=_stage_env(), capture_output=True, text=True, check=False,
        timeout=60,
    )
    if out.returncode != 0:
        raise RuntimeError(f"cannot import the package from src/: {out.stderr.strip()[-300:]}")
    return out.stdout.strip()


def machine_record(backend: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend,
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def setup(wl: Workload, seed: int, inputs_dir: Path) -> tuple[Corpus, dict[str, Path], float]:
    """Generate the inputs SETUP_REPEATS times; median time, same bytes."""
    times, seen = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs_dir, ignore_errors=True)
        start = time.perf_counter()
        corpus = wl.make(seed)
        paths = write_inputs(corpus, inputs_dir)
        times.append(time.perf_counter() - start)
        seen.add(tuple(sorted(checks.digest_tree(inputs_dir, ["."]).items())))
    if len(seen) != 1:
        raise RuntimeError(f"generator for {wl.name} is not deterministic for seed {seed}")
    return corpus, paths, statistics.median(times)


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, machine: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    work = OUT / "work" / f"{wl.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    corpus, inputs, setup_s = setup(wl, seed, work / "inputs")

    passes: list[Pass] = []
    measure_start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        ref = passes[0].digests if passes else None
        p = run_pass(wl, corpus, inputs, work / f"pass{len(passes)}", traced, ref, deadline)
        passes.append(p)
        if not p.complete:
            break
        now = time.monotonic()
        per_pass = (now - measure_start) / len(passes)
        if len(passes) >= (2 if trace else 1) and (
                now - measure_start + per_pass > seconds or now + per_pass > deadline):
            break

    complete = [p for p in passes if p.complete]
    untraced = [p for p in complete if not p.traced]
    traced = [p for p in complete if p.traced]
    ql_run = checks.read_run(complete[0].dir / "ql.run") if complete else {}
    e2e = median_of([p.end_to_end(wl) for p in untraced]) if untraced else {}
    e2e["setup_s"] = setup_s

    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    cli_by_stage: dict[str, dict[str, float]] = {}
    if not trace and untraced:
        units = END_TO_END
        metrics = {k: e2e[k] for k in units}
    elif trace and untraced and traced:
        units = per_layer_units()
        rows = [layer_metrics(sorted(p.dir.glob("*.spans.json")), p.walls) for p in traced]
        metrics = median_of(rows)
        traced_pipeline = statistics.median(sum(p.walls.values()) for p in traced)
        metrics["trace_overhead_s"] = traced_pipeline - e2e["pipeline_s"]
        last = traced[-1]
        for stage in wl.stages:
            one = layer_metrics([last.dir / f"{stage.name}.spans.json"], last.walls)
            cli_by_stage[stage.name] = {k: one[k] for k in ("cli.startup_s", "cli.self_s")}

    attempted = sum(len(p.walls) for p in passes)
    failed = sum(1 for p in passes for probs in p.problems.values() if probs)
    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "trace": int(trace),
        "scale": dict(wl.scale, top_k=wl.top_k),
        "machine": machine,
        "inputs": {"docs": corpus.num_docs, "queries": len(corpus.queries),
                   "tokens": corpus.total_tokens,
                   **(checks.candidate_stats(ql_run) if ql_run else {})},
        "passes": [{"traced": p.traced, "stage_s": p.walls, "rss_mb": p.rss_mb,
                    "problems": {k: v for k, v in p.problems.items() if v}}
                   for p in passes],
        "end_to_end": e2e,
        "cli_by_stage": cli_by_stage,
        "digests": passes[0].digests,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{wl.name}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return record


def print_record(rec: dict) -> None:
    m = rec["machine"]
    print(f"== {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"backend {m['backend']}, {m['nproc']} cpus ({m['cpu_model']}), "
          f"python {m['python']}, numpy {m['numpy']}, commit {m['commit']}, "
          f"src {m['src_sha256'][:12]}")
    print(f"scale  {json.dumps(rec['scale'])}")
    print(f"inputs {json.dumps(rec['inputs'])}")
    for i, p in enumerate(rec["passes"]):
        stages = "  ".join(f"{k} {v:.3f}" for k, v in p["stage_s"].items())
        print(f"pass {i}{' traced' if p['traced'] else ''}: {stages}")
        for stage, probs in p["problems"].items():
            for prob in probs:
                print(f"  FAIL {stage}: {prob}")
    for path, digest in rec["digests"].items():
        print(f"sha256 {digest}  {path}")
    print("end-to-end, medians of the untraced passes:")
    for name, value in rec["end_to_end"].items():
        print(f"  {name:<36} {value:>16.6f} {'MB' if name.endswith('_mb') else 's'}")
    if rec["trace"]:
        print("per layer, medians of the traced passes:")
        for name, v in rec["metrics"].items():
            print(f"  {name:<36} {v['value']:>16.6f} {v['unit']}")
        print("cli per stage, last traced pass: " + "  ".join(
            f"{stage} startup {v['cli.startup_s']:.3f} s self {v['cli.self_s']:.3f} s"
            for stage, v in rec["cli_by_stage"].items()))
    print(f"  {'ops_attempted':<36} {rec['attempted']:>16d} count")
    print(f"  {'ops_failed':<36} {rec['failed']:>16d} count")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time per workload; at least one pass runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "passagerank" / "cli.py").is_file():
        print(f"error: no passagerank package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        machine = machine_record(probe_backend())
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for name in names:
        rec = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), machine)
        print_record(rec)
        records.append(rec)

    if len(records) == 1:
        rec = records[0]
        result = {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        result = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
