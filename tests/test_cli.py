"""End-to-end command-line pipeline on a small planted corpus."""

import csv
import filecmp
import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import passagerank
from passagerank import (
    Document,
    FeatureExtractor,
    FilterSpec,
    FusionModel,
    NpmModel,
    Query,
    ScoreSettings,
    SmoothingConfig,
    build_config,
    evaluate_run,
    load_index,
    make_folds,
    npm_rank,
    npm_train,
    read_qrels,
    read_run,
    read_topics,
    save_training,
    write_run,
)
from passagerank.cli import main
from passagerank.features import HOMOGENEITY_NAMES
from conftest import corrupt_index_file, planted_corpus, rewrite_index_file, set_first


def write_trectext(path: Path, docs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write("<DOC>\n")
            fh.write(f"<DOCNO> {doc.doc_id} </DOCNO>\n")
            fh.write("<TEXT>\n")
            fh.write(" ".join(doc.terms) + "\n")
            fh.write("</TEXT>\n")
            fh.write("</DOC>\n")


def write_topics(path: Path, queries) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for q in queries:
            fh.write("<top>\n")
            fh.write(f"<num> Number: {q.query_id}\n")
            fh.write(f"<title> {' '.join(q.terms)}\n")
            fh.write("</top>\n")


def write_qrels(path: Path, qrels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(qrels, key=int):
            for doc_id in sorted(qrels[qid]):
                fh.write(f"{qid} 0 {doc_id} {qrels[qid][doc_id]}\n")


HUGE = str(10**20)  # a window length beyond int64

TRAIN_CONF = """\
# small but real training setup
filters = 50:25,150:75,inf
top_k = 40
learning_rate = 0.05
batch_size = 16
max_epochs = 6
patience = 3
negatives_per_positive = 2
folds = 3
permutations = 2000
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every command once; tests assert on the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    docs, queries, qrels = planted_corpus(
        n_queries=6, n_docs=40, doc_len=1100, bg_vocab=100, seed=0
    )
    p = {
        "root": root,
        "corpus": root / "corpus.trectext",
        "topics": root / "topics.txt",
        "qrels": root / "qrels.txt",
        "conf": root / "train.conf",
        "index": root / "index",
        "ql_run": root / "ql.run",
        "msp_run": root / "msp.run",
        "npm_run": root / "npm.run",
        "model_dir": root / "models",
        "features": root / "features.tsv",
        "qrels_map": qrels,
    }
    write_trectext(p["corpus"], docs)
    write_topics(p["topics"], queries)
    write_qrels(p["qrels"], qrels)
    p["conf"].write_text(TRAIN_CONF)

    assert main(["index", "--corpus", str(p["corpus"]),
                 "--index", str(p["index"])]) == 0
    assert main(["retrieve", "--index", str(p["index"]),
                 "--topics", str(p["topics"]), "--top-k", "40",
                 "--output", str(p["ql_run"])]) == 0
    assert main(["rerank", "--index", str(p["index"]),
                 "--topics", str(p["topics"]), "--run", str(p["ql_run"]),
                 "--mode", "msp", "--passage-size", "50",
                 "--output", str(p["msp_run"])]) == 0
    assert main(["train", "--config", str(p["conf"]),
                 "--index", str(p["index"]), "--topics", str(p["topics"]),
                 "--qrels", str(p["qrels"]), "--run", str(p["ql_run"]),
                 "--output-dir", str(p["model_dir"]), "--seed", "0"]) == 0
    assert main(["rerank", "--config", str(p["conf"]),
                 "--index", str(p["index"]), "--topics", str(p["topics"]),
                 "--run", str(p["ql_run"]), "--mode", "npm",
                 "--model", str(p["model_dir"]),
                 "--dump-features", str(p["features"]),
                 "--output", str(p["npm_run"])]) == 0
    return p


class TestArtifacts:
    def test_index_contents(self, pipeline):
        idx = pipeline["index"]
        assert (idx / "manifest.json").exists()
        meta = json.loads((idx / "manifest.json").read_text())
        assert meta["num_docs"] == 40

    def test_run_files_cover_all_queries(self, pipeline):
        for key in ("ql_run", "msp_run", "npm_run"):
            run = read_run(pipeline[key])
            assert sorted(run, key=int) == [str(i) for i in range(1, 7)]
            assert all(len(ranked) == 40 for ranked in run.values())

    def test_run_tags_identify_stage(self, pipeline):
        first = pipeline["ql_run"].read_text().splitlines()[0]
        assert first.split()[-1].startswith("ql-")
        first = pipeline["npm_run"].read_text().splitlines()[0]
        assert first.split()[-1].startswith("npm-")

    def test_training_outputs(self, pipeline):
        model_dir = pipeline["model_dir"]
        folds = (model_dir / "folds.csv").read_text().splitlines()
        assert folds[0] == "query_id,fold"
        assert len(folds) == 7
        assigned = {line.split(",")[0] for line in folds[1:]}
        assert assigned == {str(i) for i in range(1, 7)}
        for fold in range(3):
            model = json.loads((model_dir / f"fold_{fold}.json").read_text())
            assert model["feature_names"][-1] == "list_mean"
            log = (model_dir / f"train_log_fold_{fold}.csv").read_text()
            assert log.splitlines()[0] == "epoch,mean_loss,val_map"
            assert log.splitlines()[1].startswith("0,")

    def test_feature_dump_shape(self, pipeline):
        lines = pipeline["features"].read_text().splitlines()
        header = lines[0].split("\t")
        assert header[:2] == ["query_id", "doc_id"]
        assert header[-1] == "list_mean"
        assert len(header) == 2 + 29
        assert len(lines) == 1 + 6 * 40

    def test_msp_beats_ql_and_npm_beats_msp(self, pipeline):
        qrels = pipeline["qrels_map"]
        maps = {}
        for key in ("ql_run", "msp_run", "npm_run"):
            report = evaluate_run(read_run(pipeline[key]), qrels)
            maps[key] = report.means["map"]
        assert maps["msp_run"] > maps["ql_run"]
        assert maps["npm_run"] >= maps["msp_run"]

    def test_qrels_round_trip(self, pipeline):
        assert read_qrels(pipeline["qrels"]) == pipeline["qrels_map"]


class TestDeterminism:
    def test_retrieve_is_byte_identical(self, pipeline, tmp_path):
        out = tmp_path / "ql2.run"
        assert main(["retrieve", "--index", str(pipeline["index"]),
                     "--topics", str(pipeline["topics"]), "--top-k", "40",
                     "--output", str(out)]) == 0
        assert out.read_bytes() == pipeline["ql_run"].read_bytes()

    def test_train_is_byte_identical(self, pipeline, tmp_path):
        out_dir = tmp_path / "models2"
        assert main(["train", "--config", str(pipeline["conf"]),
                     "--index", str(pipeline["index"]),
                     "--topics", str(pipeline["topics"]),
                     "--qrels", str(pipeline["qrels"]),
                     "--run", str(pipeline["ql_run"]),
                     "--output-dir", str(out_dir), "--seed", "0"]) == 0
        for name in ("folds.csv", "fold_0.json", "fold_1.json", "fold_2.json",
                     "train_log_fold_0.csv"):
            assert filecmp.cmp(out_dir / name, pipeline["model_dir"] / name,
                               shallow=False), name

    def test_rerank_is_byte_identical(self, pipeline, tmp_path):
        out = tmp_path / "npm2.run"
        assert main(["rerank", "--config", str(pipeline["conf"]),
                     "--index", str(pipeline["index"]),
                     "--topics", str(pipeline["topics"]),
                     "--run", str(pipeline["ql_run"]), "--mode", "npm",
                     "--model", str(pipeline["model_dir"]),
                     "--output", str(out)]) == 0
        assert out.read_bytes() == pipeline["npm_run"].read_bytes()

    def test_different_seed_changes_models(self, pipeline, tmp_path):
        out_dir = tmp_path / "models3"
        assert main(["train", "--config", str(pipeline["conf"]),
                     "--index", str(pipeline["index"]),
                     "--topics", str(pipeline["topics"]),
                     "--qrels", str(pipeline["qrels"]),
                     "--run", str(pipeline["ql_run"]),
                     "--output-dir", str(out_dir), "--seed", "9"]) == 0
        assert not filecmp.cmp(out_dir / "fold_0.json",
                               pipeline["model_dir"] / "fold_0.json",
                               shallow=False)


class TestNpmTag:
    """An npm run is tagged with the fingerprint of the model that
    scored it, not with the rerank command's own flags."""

    @staticmethod
    def rerank(pipeline, out, model, *flags):
        assert main(["rerank", "--index", str(pipeline["index"]),
                     "--topics", str(pipeline["topics"]),
                     "--run", str(pipeline["ql_run"]), "--mode", "npm",
                     "--model", str(model), *flags, "--output", str(out)]) == 0
        return out

    def test_flags_do_not_move_the_tag(self, pipeline, tmp_path):
        fold_0 = pipeline["model_dir"] / "fold_0.json"
        plain = self.rerank(pipeline, tmp_path / "plain.run", fold_0)
        flagged = self.rerank(pipeline, tmp_path / "flagged.run", fold_0,
                              "--filters", "30,inf", "--top-k", "7")
        assert plain.read_bytes() == flagged.read_bytes()
        assert run_tag(plain) == f"npm-{FusionModel.load(fold_0).fingerprint()}"

    def test_fold_files_get_different_tags(self, pipeline, tmp_path):
        tags = {run_tag(self.rerank(pipeline, tmp_path / f"{fold}.run",
                                    pipeline["model_dir"] / f"fold_{fold}.json"))
                for fold in range(3)}
        assert len(tags) == 3

    def test_directory_tag_hashes_the_fold_fingerprints(self, pipeline, tmp_path,
                                                        caplog):
        fps = [FusionModel.load(pipeline["model_dir"] / f"fold_{fold}.json")
               .fingerprint() for fold in range(3)]
        expect = hashlib.sha1("\n".join(fps).encode()).hexdigest()[:10]
        with caplog.at_level(logging.INFO, logger="passagerank.cli"):
            out = self.rerank(pipeline, tmp_path / "npm.run", pipeline["model_dir"],
                              "--top-k", "7", "--filters", "30,inf")
        assert run_tag(out) == run_tag(pipeline["npm_run"]) == f"npm-{expect}"
        assert f"model fingerprint {expect}" in caplog.text

    def test_fingerprints_are_ten_hex_digits(self, pipeline):
        # as the README's npm-<fingerprint> tag says, for a file and a directory
        fold_0 = pipeline["model_dir"] / "fold_0.json"
        for fp in (FusionModel.load(fold_0).fingerprint(),
                   NpmModel.load(fold_0).fingerprint,
                   NpmModel.load(pipeline["model_dir"]).fingerprint):
            assert re.fullmatch(r"[0-9a-f]{10}", fp), fp


class TestLibrary:
    """``train`` is ``npm_train`` plus ``save_training``, and ``rerank
    --mode npm`` is ``npm_rank`` over a loaded model."""

    def test_npm_rank_writes_the_rerank_run(self, pipeline, tmp_path):
        model = NpmModel.load(pipeline["model_dir"])
        index = load_index(pipeline["index"])
        run_in = read_run(pipeline["ql_run"])
        out = {}
        for q in read_topics(pipeline["topics"]):
            doc_ids, scores = zip(*run_in[q.query_id])
            out[q.query_id] = npm_rank(q, doc_ids, scores, index, model)
        write_run(tmp_path / "npm.run", out, f"npm-{model.fingerprint}")
        assert (tmp_path / "npm.run").read_bytes() == pipeline["npm_run"].read_bytes()

    def test_directory_scores_each_query_with_its_fold_model(self, pipeline):
        model = NpmModel.load(pipeline["model_dir"])
        rows = read_table(pipeline["model_dir"] / "folds.csv")[1:]
        assert model.fold_of == {qid: int(fold) for qid, fold in rows}
        for qid, fold in model.fold_of.items():
            assert model.model_for(qid) is model.models[fold]
            assert model.models[fold].meta["fold"] == fold

    def test_models_record_the_training_settings(self, pipeline):
        cfg = build_config(pipeline["conf"])
        assert NpmModel.load(pipeline["model_dir"]).settings == cfg.score_settings()

    def test_query_outside_the_manifest(self, pipeline):
        model = NpmModel.load(pipeline["model_dir"])
        with pytest.raises(ValueError, match=r"not in the fold manifest: \['99'\]"):
            npm_rank(Query("99", ("q0a",)), ["d000"], [0.0],
                     load_index(pipeline["index"]), model)

    def test_missing_queries_named_up_to_five(self, pipeline):
        model = NpmModel.load(pipeline["model_dir"])
        missing = ["91", "92", "93", "94", "95", "96"]
        with pytest.raises(ValueError) as info:
            model.check_queries(["1", *missing])
        assert str(info.value) == ("queries not in the fold manifest: "
                                   "['91', '92', '93', '94', '95'] and 1 more")

    def test_npm_train_writes_the_train_directory(self, pipeline, tmp_path):
        cfg = build_config(pipeline["conf"])
        results = npm_train(
            read_topics(pipeline["topics"]), read_run(pipeline["ql_run"]),
            read_qrels(pipeline["qrels"]), load_index(pipeline["index"]),
            cfg.score_settings(), cfg.train_config(),
            {"config_fingerprint": cfg.fingerprint()})
        save_training(tmp_path / "models", results)
        names = sorted(p.name for p in pipeline["model_dir"].iterdir())
        assert sorted(p.name for p in (tmp_path / "models").iterdir()) == names
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "models", pipeline["model_dir"], names, shallow=False)
        assert (mismatch, errors) == ([], [])

    def test_npm_train_drops_one_sided_queries(self, pipeline, caplog):
        qrels = read_qrels(pipeline["qrels"])
        run = read_run(pipeline["ql_run"])
        qrels["1"] = {}
        qrels["2"] = {d: 1 for d, _ in run["2"]}
        cfg = build_config(pipeline["conf"])
        with caplog.at_level(logging.WARNING, logger="passagerank.npm"):
            results = npm_train(read_topics(pipeline["topics"]), run, qrels,
                                load_index(pipeline["index"]), cfg.score_settings(),
                                cfg.train_config())
        assert "query 1 has no relevant candidates, dropped" in caplog.text
        assert "query 2 has no non-relevant candidates, dropped" in caplog.text
        # the dropped queries train and validate nowhere, but each gets a
        # test fold; the other queries keep the split made without them
        assert sorted(q for r in results for q in r.test_qids) == ["1", "2", "3", "4",
                                                                   "5", "6"]
        kept = make_folds(["3", "4", "5", "6"], 3, cfg.seed)
        for r in results:
            assert {"1", "2"}.isdisjoint(r.train_qids + r.val_qids)
            assert [q for q in r.test_qids if q in kept] == [
                q for q in sorted(kept) if kept[q] == r.fold]
        model = results[0].model
        assert ScoreSettings.from_model(model, "fold_0.json") == cfg.score_settings()
        assert "config_fingerprint" not in model.meta

    def test_model_file_scores_every_query(self, pipeline):
        path = pipeline["model_dir"] / "fold_1.json"
        model = NpmModel.load(path)
        assert model.fold_of is None
        assert model.model_for("99").fingerprint() == model.fingerprint
        assert model.fingerprint == FusionModel.load(path).fingerprint()
        assert model.settings == ScoreSettings.from_model(model.models[0], path)


def rename_query(pipeline, dest, new_qid):
    """Copies of the topics, qrels and QL run under ``dest`` in which
    query 1 is called ``new_qid``."""
    topics, qrels, run = dest / "topics.txt", dest / "qrels.txt", dest / "ql.run"
    topics.write_text(pipeline["topics"].read_text().replace(
        "<num> Number: 1\n", f"<num> Number: {new_qid}\n"))
    for src, out in ((pipeline["qrels"], qrels), (pipeline["ql_run"], run)):
        out.write_text("".join(
            new_qid + line[1:] if line.startswith("1 ") else line
            for line in src.read_text().splitlines(True)))
    return topics, qrels, run


def untagged_lines(run_path):
    """A run file's lines without their tag column."""
    return [line.rsplit(" ", 1)[0] for line in run_path.read_text().splitlines()]


def run_tag(run_path):
    return run_path.read_text().split("\n", 1)[0].split()[-1]


def read_table(path, delimiter=","):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh, delimiter=delimiter))


class TestFoldManifest:
    """``folds.csv`` maps query ids, which may hold commas, to folds."""

    @staticmethod
    def rename_query(pipeline, tmp_path, new_qid):
        """Copies of the topics, QL run and model directory in which
        query 1 is called ``new_qid``."""
        topics, _, run = rename_query(pipeline, tmp_path, new_qid)
        models = tmp_path / "models"
        shutil.copytree(pipeline["model_dir"], models)
        rows = [[new_qid if qid == "1" else qid, fold]
                for qid, fold in read_table(models / "folds.csv")]
        with open(models / "folds.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        return topics, run, models

    def rerank(self, pipeline, topics, run, models, out):
        return main(["rerank", "--index", str(pipeline["index"]),
                     "--topics", str(topics), "--run", str(run),
                     "--mode", "npm", "--model", str(models),
                     "--output", str(out)])

    def test_query_id_with_comma(self, pipeline, tmp_path):
        topics, run, models = self.rename_query(pipeline, tmp_path, "1,2")
        assert '"1,2",' in (models / "folds.csv").read_text()
        out = tmp_path / "npm.run"
        assert self.rerank(pipeline, topics, run, models, out) == 0
        got = read_run(out)
        want = read_run(pipeline["npm_run"])
        assert got["1,2"] == want["1"]
        assert {q: r for q, r in got.items() if q != "1,2"} == \
            {q: r for q, r in want.items() if q != "1"}

    def test_malformed_line(self, pipeline, tmp_path, capsys):
        topics, run, models = self.rename_query(pipeline, tmp_path, "1")
        with open(models / "folds.csv", "a", encoding="utf-8") as fh:
            fh.write("7;0\n")
        rc = self.rerank(pipeline, topics, run, models, tmp_path / "x.run")
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{models / 'folds.csv'}:8:" in err and "'7;0\\n'" in err

    def test_header_only(self, pipeline, tmp_path, capsys):
        topics, run, models = self.rename_query(pipeline, tmp_path, "1")
        folds = models / "folds.csv"
        folds.write_text("query_id,fold\n")
        rc = self.rerank(pipeline, topics, run, models, tmp_path / "x.run")
        assert rc == 2
        assert f"error: {folds} lists no queries" in capsys.readouterr().err

    def test_unquoted_comma_is_rejected(self, pipeline, tmp_path, capsys):
        # the form written before folds.csv used csv quoting
        topics, run, models = self.rename_query(pipeline, tmp_path, "1,2")
        folds = models / "folds.csv"
        folds.write_text(folds.read_text().replace('"1,2"', "1,2"))
        rc = self.rerank(pipeline, topics, run, models, tmp_path / "x.run")
        assert rc == 2
        assert f"{folds}:" in capsys.readouterr().err
        assert not (tmp_path / "x.run").exists()

    def test_bad_header(self, pipeline, tmp_path, capsys):
        topics, run, models = self.rename_query(pipeline, tmp_path, "1")
        folds, out = models / "folds.csv", tmp_path / "x.run"
        folds.write_text(folds.read_text().replace("query_id,fold", "qid,fold", 1))
        rc = self.rerank(pipeline, topics, run, models, out)
        captured = capsys.readouterr()
        assert rc == 2 and not out.exists() and captured.out == ""
        assert captured.err == (f"error: {folds}:1: expected 'query_id,fold', "
                                f"got 'qid,fold\\n'\n")

    def test_undecodable(self, pipeline, tmp_path, capsys):
        topics, run, models = self.rename_query(pipeline, tmp_path, "1")
        folds, out = models / "folds.csv", tmp_path / "x.run"
        folds.write_bytes(folds.read_bytes() + b"\xff,0\n")
        rc = self.rerank(pipeline, topics, run, models, out)
        captured = capsys.readouterr()
        assert rc == 2 and not out.exists() and captured.out == ""
        assert captured.err == f"error: {folds} is not UTF-8 text\n"

    def test_duplicate_query_is_rejected(self, pipeline, tmp_path, capsys):
        # a second line for query 1 would score it with a model trained on it
        topics, run, models = self.rename_query(pipeline, tmp_path, "1")
        folds = models / "folds.csv"
        rows = read_table(folds)  # the header, then one line per query
        fold = next(int(f) for qid, f in rows if qid == "1")
        with open(folds, "a", encoding="utf-8") as fh:
            fh.write(f"1,{(fold + 1) % 3}\n")
        rc = self.rerank(pipeline, topics, run, models, tmp_path / "x.run")
        assert rc == 2
        assert (f"error: {folds}:{len(rows) + 1}: duplicate query '1'"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.run").exists()


def test_rerank_uses_the_trained_homogeneity_filter(pipeline, tmp_path):
    """A strided homogeneity filter is recorded whole in the model and
    reused by rerank, not rebuilt from its window length."""
    # 60 documents, so terms miss some of them and the passage
    # homogeneity scores depend on the stride
    docs, queries, qrels = planted_corpus(n_queries=6, n_docs=60, doc_len=1100,
                                          bg_vocab=500, seed=0)
    corpus, index = tmp_path / "corpus.trectext", tmp_path / "index"
    topics, qrels_file = tmp_path / "topics.txt", tmp_path / "qrels.txt"
    run, models, dump = tmp_path / "ql.run", tmp_path / "models", tmp_path / "f.tsv"
    write_trectext(corpus, docs)
    write_topics(topics, queries)
    write_qrels(qrels_file, qrels)
    common = ["--index", str(index), "--topics", str(topics), "--run", str(run)]
    assert main(["index", "--corpus", str(corpus), "--index", str(index)]) == 0
    assert main(["retrieve", *common[:4], "--top-k", "40", "--output", str(run)]) == 0
    assert main(["train", "--config", str(pipeline["conf"]), *common,
                 "--qrels", str(qrels_file), "--filters", "50:10,150,inf",
                 "--output-dir", str(models), "--seed", "0"]) == 0
    assert main(["rerank", *common, "--mode", "npm", "--model", str(models),
                 "--dump-features", str(dump),
                 "--output", str(tmp_path / "npm.run")]) == 0
    rows = read_table(dump, delimiter="\t")
    assert rows[0][2:6] == list(HOMOGENEITY_NAMES)
    extractor = FeatureExtractor(load_index(index), ScoreSettings(
        (FilterSpec.whole_document(),), SmoothingConfig(), "doc",
        FilterSpec(50, 10), 1))
    for _, doc_id, *values in rows[1:]:
        assert values[:4] == [format(x, ".12g") for x in extractor.doc_block(doc_id)]
    meta = json.loads((models / "fold_0.json").read_text())["meta"]
    assert meta["homogeneity_filter"] == "50:10" and "homogeneity_m" not in meta


def test_held_out_npm_reranks_the_queries_training_dropped(pipeline, tmp_path, capsys):
    """An unjudged topic and a query with no relevant candidate cannot
    train, yet each gets a test fold: held-out npm reranks every query of
    the run, and eval compares it with its baseline."""
    topics, qrels, run = (tmp_path / name for name in ("topics.txt", "qrels.txt", "ql.run"))
    topics.write_text(pipeline["topics"].read_text()
                      + "<top>\n<num> Number: 99\n<title> q0a q1b\n</top>\n")
    judged = {qid: dict(grades) for qid, grades in pipeline["qrels_map"].items()}
    judged["2"] = {d: 0 for d in judged["2"]}
    write_qrels(qrels, judged)
    data = ["--index", str(pipeline["index"]), "--topics", str(topics)]
    assert main(["retrieve", *data, "--top-k", "40", "--output", str(run)]) == 0
    assert main(["train", "--config", str(pipeline["conf"]), *data, "--qrels", str(qrels),
                 "--run", str(run), "--output-dir", str(tmp_path / "models")]) == 0
    folds = dict(read_table(tmp_path / "models" / "folds.csv")[1:])
    assert sorted(folds, key=int) == ["1", "2", "3", "4", "5", "6", "99"]
    assert main(["rerank", *data, "--run", str(run), "--mode", "npm",
                 "--model", str(tmp_path / "models"),
                 "--output", str(tmp_path / "npm.run")]) == 0
    ql, npm = read_run(run), read_run(tmp_path / "npm.run")
    assert sorted(npm) == sorted(ql) == sorted(folds)
    for qid in ql:
        assert sorted(d for d, _ in npm[qid]) == sorted(d for d, _ in ql[qid])
    capsys.readouterr()
    assert main(["eval", "--qrels", str(qrels), "--run", str(tmp_path / "npm.run"),
                 "--baseline", str(run), "--permutations", "200"]) == 0
    assert capsys.readouterr().out.startswith("  metric")


def test_stoplist_end_to_end(tmp_path, caplog):
    """--stoplist drops its words from the index and from the topics; a
    topic of stopwords only is skipped with a warning."""
    corpus, index, run = tmp_path / "corpus.trectext", tmp_path / "index", tmp_path / "ql.run"
    topics, stoplist = tmp_path / "topics.txt", tmp_path / "stop.txt"
    write_trectext(corpus, [Document("d1", ("the", "alpha", "beta")),
                            Document("d2", ("the", "gamma"))])
    write_topics(topics, [Query("1", ("the", "alpha")), Query("2", ("the",))])
    stoplist.write_text("# stopwords\nThe\n")
    stop = ["--stoplist", str(stoplist)]
    assert main(["index", "--corpus", str(corpus), "--index", str(index), *stop]) == 0
    vocab = [line.split("\t")[0] for line in
             (index / "vocab.tsv").read_text(encoding="utf-8").splitlines()]
    assert sorted(vocab) == ["alpha", "beta", "gamma"]
    assert main(["retrieve", "--index", str(index), "--topics", str(topics), *stop,
                 "--output", str(run)]) == 0
    assert list(read_run(run)) == ["1"]
    assert [r.getMessage() for r in caplog.records] == [
        "skipping topic 2: empty title after tokenization"]


@pytest.mark.parametrize("entry,n_tokens", [("don't", 2), ("U.S.", 2), ("--", 0)])
def test_stoplist_entry_not_one_token(tmp_path, capsys, entry, n_tokens):
    """A stoplist entry that is not exactly one token could never match
    one: index exits 2 naming its line, and writes no index. A comment
    after an entry is stripped, as in config files."""
    corpus, index, stoplist = tmp_path / "c.trectext", tmp_path / "index", tmp_path / "s.txt"
    write_trectext(corpus, [Document("d1", ("the", "alpha"))])
    stoplist.write_text(f"the  # article\n{entry}\n", encoding="utf-8")
    assert main(["index", "--corpus", str(corpus), "--index", str(index),
                 "--stoplist", str(stoplist)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {stoplist}:2: stoplist entry {entry!r} is "
                            f"{n_tokens} tokens, expected one\n")
    assert captured.out == "" and not index.exists()


def test_undecodable_stoplist(tmp_path, capsys):
    corpus, index, stoplist = tmp_path / "c.trectext", tmp_path / "index", tmp_path / "s.txt"
    write_trectext(corpus, [Document("d1", ("the", "alpha"))])
    stoplist.write_bytes(b"the\n\xff\n")
    assert main(["index", "--corpus", str(corpus), "--index", str(index),
                 "--stoplist", str(stoplist)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {stoplist} is not UTF-8 text\n"
    assert captured.out == "" and not index.exists()


QID = '1,"2'  # a query id holding the delimiter and the quote character
TABLES = {"eval": "eval.csv", "paired": "paired.csv", "weights": "weights.csv",
          "folds": "models/folds.csv", "train_log": "models/train_log_fold_0.csv"}


@pytest.fixture(scope="module")
def renamed(pipeline, tmp_path_factory):
    """Every CLI table, written for inputs in which query 1 is ``QID``."""
    root = tmp_path_factory.mktemp("renamed")
    topics, qrels, run = rename_query(pipeline, root, QID)
    common = ["--index", str(pipeline["index"]), "--topics", str(topics)]
    assert main(["train", "--config", str(pipeline["conf"]), *common,
                 "--qrels", str(qrels), "--run", str(run),
                 "--output-dir", str(root / "models"), "--seed", "0"]) == 0
    assert main(["rerank", "--config", str(pipeline["conf"]), *common,
                 "--run", str(run), "--mode", "npm", "--model", str(root / "models"),
                 "--dump-features", str(root / "features.tsv"),
                 "--output", str(root / "npm.run")]) == 0
    assert main(["eval", "--qrels", str(qrels), "--run", str(root / "npm.run"),
                 "--csv", str(root / "eval.csv")]) == 0
    assert main(["eval", "--qrels", str(qrels), "--run", str(root / "npm.run"),
                 "--baseline", str(run), "--csv", str(root / "paired.csv")]) == 0
    assert main(["weights", *common, "--model", str(root / "models" / "fold_0.json"),
                 "--run", str(run), "--csv", str(root / "weights.csv")]) == 0
    return {"root": root, "common": common, "run": run}


class TestTables:
    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_rows_have_the_header_width(self, renamed, table):
        rows = read_table(renamed["root"] / TABLES[table])
        assert len(rows) > 1
        assert {len(r) for r in rows} == {len(rows[0])}

    @pytest.mark.parametrize("table", ["eval", "paired", "folds"])
    def test_query_id_round_trips(self, renamed, table):
        rows = read_table(renamed["root"] / TABLES[table])
        assert [r[0] for r in rows[1:]].count(QID) == 1

    def test_feature_tsv_round_trips(self, renamed):
        rows = read_table(renamed["root"] / "features.tsv", delimiter="\t")
        assert [r[0] for r in rows[1:]].count(QID) == 40
        assert {len(r) for r in rows} == {2 + 29}

    def test_held_out_rerank_uses_the_query_fold(self, renamed, tmp_path):
        fold = dict(read_table(renamed["root"] / "models" / "folds.csv")[1:])[QID]
        out = tmp_path / "fold.run"
        assert main(["rerank", *renamed["common"], "--run", str(renamed["run"]),
                     "--mode", "npm", "--output", str(out), "--model",
                     str(renamed["root"] / "models" / f"fold_{fold}.json")]) == 0
        assert read_run(renamed["root"] / "npm.run")[QID] == read_run(out)[QID]


class TestStdout:
    def test_no_stderr_output(self):
        src = str(Path(passagerank.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-m", "passagerank.cli", "eval", "--help"],
                             env=env, capture_output=True, text=True, check=True)
        assert out.stderr == ""
        assert "--qrels" in out.stdout

    def test_index_summary(self, pipeline, tmp_path, capsys):
        assert main(["index", "--corpus", str(pipeline["corpus"]),
                     "--index", str(tmp_path / "idx")]) == 0
        out = capsys.readouterr().out
        assert "documents  : 40" in out
        assert "vocabulary" in out

    def test_eval_single_run_bytes(self, tmp_path, capsys):
        """The one-run table and CSV, byte for byte: queries in numeric id
        order, query 3 (nothing relevant) left out, then the means."""
        qrels, run, table = tmp_path / "qrels.txt", tmp_path / "a.run", tmp_path / "eval.csv"
        qrels.write_text("1 0 a 1\n1 0 b 0\n1 0 c 2\n2 0 a 1\n10 0 d 1\n10 0 f 1\n"
                         "3 0 x 0\n")
        run.write_text("1 Q0 a 1 3.0 t\n1 Q0 c 2 2.0 t\n1 Q0 b 3 1.0 t\n"
                       "10 Q0 e 1 1.0 t\n10 Q0 d 2 0.5 t\n"
                       "2 Q0 b 1 2.0 t\n2 Q0 a 2 1.0 t\n3 Q0 x 1 1.0 t\n")
        assert main(["eval", "--qrels", str(qrels), "--run", str(run),
                     "--csv", str(table)]) == 0
        assert capsys.readouterr().out == (
            "     query       map   ndcg@20      p@20\n"
            "         1    1.0000    0.7967    0.1000\n"
            "         2    0.5000    0.6309    0.0500\n"
            "        10    0.2500    0.3869    0.0500\n"
            "       all    0.5833    0.6048    0.0667\n")
        assert table.read_text() == ("query,map,ndcg@20,p@20\n"
                                     "1,1.000000,0.796708,0.100000\n"
                                     "2,0.500000,0.630930,0.050000\n"
                                     "10,0.250000,0.386853,0.050000\n"
                                     "all,0.583333,0.604830,0.066667\n")

    def test_eval_single_run_table(self, pipeline, capsys):
        assert main(["eval", "--qrels", str(pipeline["qrels"]),
                     "--run", str(pipeline["npm_run"])]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert "map" in lines[0]
        assert lines[-1].split()[0] == "all"

    def test_eval_paired_with_csv(self, pipeline, tmp_path, capsys):
        table = tmp_path / "paired.csv"
        assert main(["eval", "--qrels", str(pipeline["qrels"]),
                     "--run", str(pipeline["npm_run"]),
                     "--baseline", str(pipeline["ql_run"]),
                     "--csv", str(table)]) == 0
        out = capsys.readouterr().out
        assert "p-value" in out
        rows = table.read_text().splitlines()
        assert rows[0].startswith("query,")
        assert rows[-1].startswith("p_value,")
        assert any(r.startswith("all,") for r in rows)

    def test_paired_eval_scores_each_run_once(self, pipeline, tmp_path, monkeypatch):
        calls = []

        def counting(run, qrels):
            calls.append(run)
            return evaluate_run(run, qrels)

        monkeypatch.setattr(passagerank.cli, "evaluate_run", counting)
        assert main(["eval", "--qrels", str(pipeline["qrels"]),
                     "--run", str(pipeline["npm_run"]),
                     "--baseline", str(pipeline["ql_run"])]) == 0
        assert calls == [read_run(pipeline["npm_run"]), read_run(pipeline["ql_run"])]

    def test_eval_prints_a_tiny_p_value_in_exponent_form(self, tmp_path, capsys):
        # 40 queries, the relevant document first in one run and last in
        # the other: 1 / 100,001 is the smallest sampled p
        qrels, run, baseline = (tmp_path / n for n in ("qrels", "a.run", "b.run"))
        qrels.write_text("".join(f"{q} 0 r 1\n{q} 0 n 0\n" for q in range(1, 41)))
        run.write_text("".join(f"{q} Q0 r 1 2 a\n{q} Q0 n 2 1 a\n" for q in range(1, 41)))
        baseline.write_text("".join(f"{q} Q0 n 1 2 b\n{q} Q0 r 2 1 b\n"
                                    for q in range(1, 41)))
        table = tmp_path / "paired.csv"
        assert main(["eval", "--qrels", str(qrels), "--run", str(run),
                     "--baseline", str(baseline), "--csv", str(table)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1] == ("     map          1.0000          0.5000   +0.5000"
                           "   1.0e-05 *")
        assert table.read_text().splitlines()[-1].startswith("p_value,0.000010,,")

    def test_eval_star_needs_p_below_five_percent(self, tmp_path, capsys):
        # 20 queries with one MAP difference each: 2^20 patterns exceed
        # 19, so 19 are sampled, none reaches the observed all-plus or
        # all-minus one, and MAP's p = (1 + 0) / (1 + 19) is 0.05 exactly,
        # which earns no star
        qrels, run, baseline = (tmp_path / n for n in ("qrels", "a.run", "b.run"))
        qrels.write_text("".join(f"{q} 0 r 1\n{q} 0 n 0\n" for q in range(1, 21)))
        run.write_text("".join(f"{q} Q0 r 1 2 a\n{q} Q0 n 2 1 a\n" for q in range(1, 21)))
        baseline.write_text("".join(f"{q} Q0 n 1 2 b\n{q} Q0 r 2 1 b\n"
                                    for q in range(1, 21)))
        assert main(["eval", "--qrels", str(qrels), "--run", str(run),
                     "--baseline", str(baseline), "--permutations", "19"]) == 0
        map_row = capsys.readouterr().out.splitlines()[1]
        assert map_row.split()[-1] == "0.0500"
        assert map_row == "     map          1.0000          0.5000   +0.5000    0.0500"

    @pytest.mark.parametrize("names", [("a/r.run", "b/r.run"),
                                       ("rerank_ablation_a.run", "rerank_ablation_b.run")])
    def test_eval_paired_labels_stay_distinct(self, pipeline, tmp_path, capsys, names):
        # equal stems, or stems whose first 14 characters agree, would give
        # both runs one column label
        run, baseline = (tmp_path / n for n in names)
        for src, dst in ((pipeline["npm_run"], run), (pipeline["ql_run"], baseline)):
            dst.parent.mkdir(exist_ok=True)
            shutil.copyfile(src, dst)
        table = tmp_path / "paired.csv"
        assert main(["eval", "--qrels", str(pipeline["qrels"]), "--run", str(run),
                     "--baseline", str(baseline), "--permutations", "100",
                     "--csv", str(table)]) == 0
        assert capsys.readouterr().out.splitlines()[0].split() == [
            "metric", "run", "baseline", "diff", "p-value"]
        with open(table, newline="") as fh:
            rows = {r["query"]: r for r in csv.DictReader(fh)}
        assert list(rows["all"]) == ["query", "map_run", "map_baseline",
                                     "ndcg@20_run", "ndcg@20_baseline",
                                     "p@20_run", "p@20_baseline"]
        qrels = read_qrels(pipeline["qrels"])
        for column, path in (("run", run), ("baseline", baseline)):
            means = evaluate_run(read_run(path), qrels).means
            assert rows["all"][f"map_{column}"] == f"{means['map']:.6f}"

    def test_train_table(self, pipeline, tmp_path, capsys):
        assert main(["train", "--config", str(pipeline["conf"]),
                     "--index", str(pipeline["index"]),
                     "--topics", str(pipeline["topics"]),
                     "--qrels", str(pipeline["qrels"]),
                     "--run", str(pipeline["ql_run"]),
                     "--output-dir", str(tmp_path / "m"), "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "best_epoch" in out
        assert len(out.strip().splitlines()) == 4

    def test_weights_report(self, pipeline, tmp_path, capsys):
        table = tmp_path / "weights.csv"
        assert main(["weights", "--index", str(pipeline["index"]),
                     "--topics", str(pipeline["topics"]),
                     "--model", str(pipeline["model_dir"] / "fold_0.json"),
                     "--run", str(pipeline["ql_run"]),
                     "--csv", str(table)]) == 0
        out = capsys.readouterr().out
        for label in ("50:25", "150:75", "inf"):
            assert label in out
        rows = table.read_text().splitlines()
        assert rows[0] == "filter,mean_phi,std_phi"
        assert len(rows) == 4


class TestErrors:
    def test_index_rejects_docno_with_whitespace(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.trectext"
        corpus.write_text("<DOC><DOCNO>a b</DOCNO><TEXT>x y</TEXT></DOC>\n",
                          encoding="utf-8")
        rc = main(["index", "--corpus", str(corpus),
                   "--index", str(tmp_path / "idx")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'a b'" in err
        assert not (tmp_path / "idx").exists()

    def test_missing_index_path(self, pipeline, tmp_path, capsys):
        rc = main(["retrieve", "--index", str(tmp_path / "nope"),
                   "--topics", str(pipeline["topics"]),
                   "--output", str(tmp_path / "x.run")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("name", ["tokens.bin", "postings_docs.bin"])
    @pytest.mark.parametrize("fix_digest", [False, True],
                             ids=["checksum", "structure"])
    def test_corrupt_index(self, pipeline, tmp_path, capsys, name, fix_digest):
        index = tmp_path / "index"
        shutil.copytree(pipeline["index"], index)
        corrupt_index_file(index, name, set_first(10**6), fix_digest)
        rc = main(["retrieve", "--index", str(index),
                   "--topics", str(pipeline["topics"]),
                   "--output", str(tmp_path / "x.run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "outside" in err if fix_digest else name in err
        assert not (tmp_path / "x.run").exists()

    def test_dump_features_needs_npm(self, pipeline, tmp_path, capsys):
        rc = main(["rerank", "--index", str(pipeline["index"]),
                   "--topics", str(pipeline["topics"]),
                   "--run", str(pipeline["ql_run"]), "--mode", "msp",
                   "--dump-features", str(tmp_path / "f.tsv"),
                   "--output", str(tmp_path / "x.run")])
        assert rc == 2
        assert "npm" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["msp", "msp-ent"])
    def test_model_needs_npm(self, pipeline, tmp_path, capsys, mode):
        out = tmp_path / "x.run"
        rc = main(["rerank", "--index", str(pipeline["index"]),
                   "--topics", str(pipeline["topics"]),
                   "--run", str(pipeline["ql_run"]), "--mode", mode,
                   "--model", str(tmp_path / "missing.json"),
                   "--output", str(out)])
        assert rc == 2
        assert "--model requires --mode npm" in capsys.readouterr().err
        assert not out.exists()

    def test_npm_needs_model(self, pipeline, tmp_path, capsys):
        rc = main(["rerank", "--index", str(pipeline["index"]),
                   "--topics", str(pipeline["topics"]),
                   "--run", str(pipeline["ql_run"]), "--mode", "npm",
                   "--output", str(tmp_path / "x.run")])
        assert rc == 2
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--lambda-c", "0.3"),
                                            ("--oov-floor", "2"),
                                            ("--passage-size", "50")])
    def test_npm_rejects_model_setting_flags(self, pipeline, tmp_path, capsys,
                                             flag, value):
        out = tmp_path / "x.run"
        rc = main(["rerank", "--index", str(pipeline["index"]),
                   "--topics", str(pipeline["topics"]),
                   "--run", str(pipeline["ql_run"]), "--mode", "npm",
                   "--model", str(pipeline["model_dir"]), flag, value,
                   "--output", str(out)])
        assert rc == 2 and not out.exists()
        message = ("npm mode has no passage size; drop --passage-size"
                   if flag == "--passage-size" else f"npm mode takes {flag} from the model")
        assert f"error: {message}" in capsys.readouterr().err

    def test_weights_rejects_directory_model(self, pipeline, tmp_path, capsys):
        rc = main(["weights", "--index", str(pipeline["index"]),
                   "--topics", str(pipeline["topics"]),
                   "--model", str(pipeline["model_dir"]),
                   "--run", str(pipeline["ql_run"])])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_mode_exits_via_argparse(self, pipeline, tmp_path):
        with pytest.raises(SystemExit):
            main(["rerank", "--index", str(pipeline["index"]),
                  "--topics", str(pipeline["topics"]),
                  "--run", str(pipeline["ql_run"]), "--mode", "sideways",
                  "--output", str(tmp_path / "x.run")])

    def test_bad_config_file(self, pipeline, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("warp_factor = 9\n")
        rc = main(["eval", "--config", str(conf),
                   "--qrels", str(pipeline["qrels"]),
                   "--run", str(pipeline["ql_run"])])
        assert rc == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_undecodable_config_file(self, pipeline, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_bytes(b"seed = 1  # caf\xe9\n")
        rc = main(["eval", "--config", str(conf),
                   "--qrels", str(pipeline["qrels"]),
                   "--run", str(pipeline["ql_run"])])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: {conf} is not UTF-8 text\n"

    def test_model_dir_without_manifest(self, pipeline, tmp_path, capsys):
        bare = tmp_path / "empty_dir"
        bare.mkdir()
        rc = main(["rerank", "--index", str(pipeline["index"]),
                   "--topics", str(pipeline["topics"]),
                   "--run", str(pipeline["ql_run"]), "--mode", "npm",
                   "--model", str(bare),
                   "--output", str(tmp_path / "x.run")])
        assert rc == 2
        assert "folds.csv" in capsys.readouterr().err

    def test_model_pooling_is_validated(self, pipeline, tmp_path, capsys):
        doctored, err = self.doctored_model(
            pipeline, tmp_path, capsys, lambda m: m["meta"].update(pooling="avg"))
        assert err.startswith(f"error: model file {doctored}:") and "'avg'" in err

    @pytest.mark.parametrize("case", ["filters_inf", "empty_manifest",
                                      "no_relevant"])
    def test_failed_train_leaves_no_output_dir(self, pipeline, tmp_path, capsys,
                                               case):
        index, qrels, flags = pipeline["index"], pipeline["qrels"], []
        if case == "filters_inf":
            flags = ["--filters", "inf"]
        elif case == "empty_manifest":
            index = tmp_path / "index"
            shutil.copytree(pipeline["index"], index)
            (index / "manifest.json").write_text("{}")
        else:
            # every query is dropped for want of a relevant candidate
            qrels = tmp_path / "qrels.txt"
            qrels.write_text("99 0 d000 1\n")
        out = tmp_path / "models"
        rc = main(["train", "--config", str(pipeline["conf"]),
                   "--index", str(index), "--topics", str(pipeline["topics"]),
                   "--qrels", str(qrels), "--run", str(pipeline["ql_run"]),
                   *flags, "--output-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("argv, data, message", [
        (lambda p, bad: ["index", "--corpus", bad, "--index"], None,
         "empty corpus directory: {bad}"),
        (lambda p, bad: ["retrieve", "--index", p["index"], "--topics", bad,
                         "--output"],
         b"<top>\n<title> alpha\n</top>\n", "{bad}: topic record #1 has no num field"),
        (lambda p, bad: ["retrieve", "--index", p["index"], "--topics", bad,
                         "--output"],
         b"<top>\n<num> Number: 1\n<title> -- !\n</top>\n",
         "{bad}: no usable topics found"),
        (lambda p, bad: ["retrieve", "--index", p["index"], "--topics", bad,
                         "--output"],
         b"<top>\n<num> Number: 1\n<title> \xff\n</top>\n",
         "{bad}: undecodable text in topic record #1"),
        (lambda p, bad: ["eval", "--qrels", bad, "--run", p["ql_run"], "--csv"],
         b"", "{bad}: no judgments found"),
        (lambda p, bad: ["eval", "--qrels", p["qrels"], "--run", bad, "--csv"],
         b"", "{bad}: empty run file"),
        (lambda p, bad: ["eval", "--qrels", bad, "--run", p["ql_run"], "--csv"],
         b"1 0 d000 1\n1 0 d\xff01 0\n", "{bad} is not UTF-8 text"),
        (lambda p, bad: ["eval", "--qrels", p["qrels"], "--run", bad, "--csv"],
         b"1 Q0 d000 1 2.5 t\xff\n", "{bad} is not UTF-8 text"),
        (lambda p, bad: ["eval", "--qrels", bad, "--run", p["ql_run"], "--csv"],
         b"1 0 d000 1\n1 0 d001 2000\n",
         "{bad}:2: relevance grade must be at most 1000, got 2000"),
    ], ids=["empty-corpus-dir", "topic-without-num", "no-usable-topic",
            "undecodable-topic", "empty-qrels", "empty-run", "undecodable-qrels",
            "undecodable-run", "qrels-grade-2000"])
    def test_malformed_input(self, pipeline, tmp_path, capsys, argv, data, message):
        """A malformed input (``data``, None for an empty directory) exits
        2 with one error line naming it, no traceback and no output."""
        bad, out = tmp_path / "bad", tmp_path / "out"
        if data is None:
            bad.mkdir()
        else:
            bad.write_bytes(data)
        rc = main([str(a) for a in (*argv(pipeline, bad), out)])
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists() and "Traceback" not in err
        assert f"error: {message.format(bad=bad)}" in err.splitlines()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_text_tags(self, pipeline, tmp_path, capsys, caplog, source):
        # an empty tag list made every document empty, one warning each
        conf = tmp_path / "index.conf"
        conf.write_text("text_tags =\n")
        flags = ["--text-tags", ","] if source == "flag" else ["--config", str(conf)]
        out = tmp_path / "index"
        rc = main(["index", "--corpus", str(pipeline["corpus"]), *flags,
                   "--index", str(out)])
        assert rc == 2 and not out.exists() and not caplog.records
        assert capsys.readouterr().err == "error: text_tags must not be empty\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_repeated_text_tag(self, pipeline, tmp_path, capsys, source):
        # TEXT,text indexed every document twice over, doubling its length
        conf = tmp_path / "index.conf"
        conf.write_text("text_tags = TEXT, HEADLINE, text\n")
        flags = (["--text-tags", "TEXT,HEADLINE,text"] if source == "flag"
                 else ["--config", str(conf)])
        out = tmp_path / "index"
        rc = main(["index", "--corpus", str(pipeline["corpus"]), *flags,
                   "--index", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == "error: text tag 'text' is listed twice\n"

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_negative_seed(self, pipeline, tmp_path, capsys, command):
        # train built every candidate matrix, and eval scored both runs,
        # before numpy rejected the seed without naming it
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--config", pipeline["conf"], "--index", pipeline["index"],
                    "--topics", pipeline["topics"], "--qrels", pipeline["qrels"],
                    "--run", pipeline["ql_run"], "--output-dir", out]
        else:
            argv = ["eval", "--qrels", pipeline["qrels"], "--run", pipeline["npm_run"],
                    "--baseline", pipeline["ql_run"], "--csv", out]
        rc = main([*map(str, argv), "--seed", "-1"])
        captured = capsys.readouterr()
        assert rc == 2 and not out.exists() and captured.out == ""
        assert captured.err == "error: seed must be >= 0\n"

    @pytest.mark.parametrize("case, message", [
        ("lengths", "token store inconsistent with document lengths"),
        ("no-document", "index requires at least one non-empty document"),
        ("zero-length", "index holds a document of length 0"),
        ("undecodable", "docs.tsv is not UTF-8 text"),
    ], ids=["lengths", "no-document", "zero-length", "undecodable"])
    def test_doctored_index_structure(self, pipeline, tmp_path, capsys, case, message):
        """A re-signed docs.tsv (and, with no document, tokens.bin) whose
        structure is broken fails with the index directory named; an
        undecodable one printed only the codec's error."""
        index, out = tmp_path / "index", tmp_path / "x.run"
        shutil.copytree(pipeline["index"], index)
        rows = [line.split("\t") for line in
                (index / "docs.tsv").read_text(encoding="utf-8").splitlines()]
        if case == "lengths":
            rows[0][1] = str(int(rows[0][1]) + 1)
        elif case == "zero-length":  # the first document's tokens move to the second
            rows[1][1] = str(int(rows[0][1]) + int(rows[1][1]))
            rows[0][1] = "0"
        elif case == "no-document":
            rows = []
            rewrite_index_file(index, "tokens.bin", b"", fix_digest=True)
        data = "".join("\t".join(row) + "\n" for row in rows).encode("utf-8")
        if case == "undecodable":
            data = b"\xff" + data
        rewrite_index_file(index, "docs.tsv", data, fix_digest=True)
        rc = main(["retrieve", "--index", str(index), "--topics", str(pipeline["topics"]),
                   "--output", str(out)])
        captured = capsys.readouterr()
        assert rc == 2 and not out.exists() and captured.out == ""
        assert captured.err == f"error: {index}: {message}; rebuild the index\n"

    def test_train_needs_three_folds(self, pipeline, tmp_path, capsys):
        out = tmp_path / "models"
        rc = main(["train", "--index", str(pipeline["index"]),
                   "--topics", str(pipeline["topics"]),
                   "--qrels", str(pipeline["qrels"]),
                   "--run", str(pipeline["ql_run"]), "--folds", "2",
                   "--output-dir", str(out)])
        assert rc == 2
        assert "folds must be >= 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["rerank", "--mode", "msp", "--passage-size", HUGE, "--output"],
        ["train", "--filters", f"{HUGE},inf", "--output-dir"],
        ["train", "--homogeneity-m", HUGE, "--output-dir"],
    ], ids=["passage-size", "filters", "homogeneity-m"])
    def test_oversized_window(self, pipeline, tmp_path, capsys, flags):
        # at 2**63 the window no longer fits the kernels' int64 positions
        out = tmp_path / "out"
        qrels = ["--qrels", str(pipeline["qrels"])] if flags[0] == "train" else []
        rc = main([*flags[:-1], "--config", str(pipeline["conf"]),
                   "--index", str(pipeline["index"]),
                   "--topics", str(pipeline["topics"]), *qrels,
                   "--run", str(pipeline["ql_run"]), flags[-1], str(out)])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and "window length must be < 2**62" in err
        # only a filter label can spell the whole document as inf
        assert ("use inf for the whole document" in err) == (flags[1] == "--filters")

    @pytest.mark.parametrize("flags,message", [
        (["rerank", "--mode", "msp", "--passage-size", str(2**62), "--output"],
         f"passage_size: window length must be < 2**62, got {2**62}"),
        (["rerank", "--mode", "msp", "--passage-size", "0", "--output"],
         "passage_size: window length must be >= 1, got 0"),
        (["train", "--homogeneity-m", str(2**62), "--output-dir"],
         f"homogeneity_m: window length must be < 2**62, got {2**62}"),
        (["train", "--homogeneity-m", "-3", "--output-dir"],
         "homogeneity_m: window length must be >= 1, got -3"),
        (["rerank", "--mode", "npm", "--output"], "npm mode requires --model"),
    ], ids=["passage-size-huge", "passage-size-0", "homogeneity-m-huge",
            "homogeneity-m-negative", "npm-without-model"])
    def test_window_key_checked_before_inputs(self, tmp_path, capsys, flags, message):
        # no input exists: the flag's error comes first, not a missing path
        missing, out = tmp_path / "missing", tmp_path / "out"
        inputs = ["--index", str(missing), "--topics", str(missing), "--run", str(missing)]
        if flags[0] == "train":
            inputs += ["--qrels", str(missing)]
        rc = main([*flags[:-1], *inputs, flags[-1], str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    @staticmethod
    def doctored_model(pipeline, tmp_path, capsys, edit, *flags):
        """Run ``rerank --mode npm`` and ``weights`` on a copy of fold 0's
        model that ``edit`` changed. Both must exit 2, write nothing and
        print the same error; returns the model copy and that error."""
        model = json.loads((pipeline["model_dir"] / "fold_0.json").read_text())
        edit(model)
        doctored, out, table = (tmp_path / "fold_0.json", tmp_path / "x.run",
                                tmp_path / "weights.csv")
        doctored.write_text(json.dumps(model))
        common = ["--index", str(pipeline["index"]),
                  "--topics", str(pipeline["topics"]),
                  "--run", str(pipeline["ql_run"]), "--model", str(doctored), *flags]
        errors = []
        for argv in (["rerank", *common, "--mode", "npm", "--output", str(out)],
                     ["weights", *common, "--csv", str(table)]):
            assert main(argv) == 2, argv[0]
            captured = capsys.readouterr()
            assert captured.out == "", argv[0]
            errors.append(captured.err)
        assert not out.exists() and not table.exists()
        assert errors[0] == errors[1]
        return doctored, errors[0]

    def test_model_missing_key(self, pipeline, tmp_path, capsys):
        doctored, err = self.doctored_model(pipeline, tmp_path, capsys,
                                            lambda m: m.pop("W"))
        assert f"error: model file {doctored} lacks key 'W'" in err

    @pytest.mark.parametrize("field", ["filters", "homogeneity_filter"])
    def test_model_bad_filter_label(self, pipeline, tmp_path, capsys, field):
        def edit(model):
            if field == "filters":
                model["filters"][0] = "50:x"
            else:
                model["meta"]["homogeneity_filter"] = "50:x"
        doctored, err = self.doctored_model(pipeline, tmp_path, capsys, edit)
        assert f"error: model file {doctored}: bad filter label '50:x'" in err
        assert "expected m, m:tau or inf" in err

    @pytest.mark.parametrize("field", ["filters", "homogeneity_filter"])
    def test_model_oversized_window(self, pipeline, tmp_path, capsys, field):
        def edit(model):
            if field == "filters":
                model["filters"][0] = f"{HUGE}:25"
            else:
                model["meta"]["homogeneity_filter"] = f"{HUGE}:25"
        doctored, err = self.doctored_model(pipeline, tmp_path, capsys, edit)
        assert (f"error: model file {doctored}: window length must be < 2**62, "
                f"got {HUGE}; use inf for the whole document" in err)

    @pytest.mark.parametrize("std", [0.0, -1.0, float("nan")])
    def test_model_bad_normalization_std(self, pipeline, tmp_path, capsys, std):
        # 0 wrote inf scores that read_run rejects; -1 reversed a filter
        doctored, err = self.doctored_model(
            pipeline, tmp_path, capsys,
            lambda m: m["score_norm"]["std"].__setitem__(0, std))
        assert (f"error: model file {doctored}: score normalization stds must "
                f"be finite and >= 1e-08" in err)

    @pytest.mark.parametrize("key", ["lambda_c", "homogeneity_filter"])
    def test_model_missing_setting(self, pipeline, tmp_path, capsys, key):
        # a config value does not stand in for the trained one
        conf = tmp_path / "rerank.conf"
        conf.write_text("lambda_c = 0.3\nfilters = 30,inf\n")
        doctored, err = self.doctored_model(
            pipeline, tmp_path, capsys, lambda m: m["meta"].pop(key),
            "--config", str(conf))
        assert f"error: model file {doctored}: no {key!r} setting recorded" in err

    def test_legacy_homogeneity_m_model(self, pipeline, tmp_path, capsys):
        # a file that records only the window, not the stride, is not
        # guessed at: its features would differ from training's
        def legacy(model):
            assert model["meta"].pop("homogeneity_filter") == "50:25"
            model["meta"]["homogeneity_m"] = 50
        doctored, err = self.doctored_model(pipeline, tmp_path, capsys, legacy)
        assert (f"error: model file {doctored}: no 'homogeneity_filter' setting "
                f"recorded" in err)

    @pytest.mark.parametrize("key,value,message", [
        ("homogeneity_filter", "inf",
         "document features need a finite homogeneity_filter"),
        ("list_k", 0, "list_k must be >= 1, got 0"),
        # each of these was read as a number: 2.5 as 2, True as 1, "3" as 3
        ("list_k", 2.5, "list_k: expected an integer, got 2.5"),
        ("list_k", True, "list_k: expected an integer, got True"),
        ("list_k", "3", "list_k: expected an integer, got '3'"),
        ("oov_floor", 1.7, "oov_floor: expected an integer, got 1.7"),
        ("lambda_c", "0.5", "lambda_c: expected a number, got '0.5'"),
    ])
    def test_model_bad_setting(self, pipeline, tmp_path, capsys, key, value,
                               message):
        doctored, err = self.doctored_model(
            pipeline, tmp_path, capsys, lambda m: m["meta"].update({key: value}))
        assert f"error: model file {doctored}: {message}" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(version=2), "unsupported model version 2"),
        (lambda m: m.update(version=True), "unsupported model version True"),
        (lambda m: m.update(version=1.0), "unsupported model version 1.0"),
        (lambda m: m.update(b="0.5"), "b: expected a number, got '0.5'"),
        (lambda m: m.update(b=True), "b: expected a number, got True"),
        (lambda m: m.update(b=10**400), "int too large to convert to float"),
        (lambda m: m["W"][0].__setitem__(0, "0.5"), "W: expected a number, got '0.5'"),
        (lambda m: m["feature_norm"]["mean"].__setitem__(0, True),
         "feature_norm mean: expected a number, got True"),
        (lambda m: m["score_norm"]["std"].__setitem__(0, "1"),
         "score_norm std: expected a number, got '1'"),
        (lambda m: m["W"].pop(), "W has shape ({a1}, {b}), expected ({a}, {b})"),
        (lambda m: [m["score_norm"][part].pop() for part in ("mean", "std")],
         "normalization record dimensions do not match model"),
        (lambda m: m["score_norm"]["std"].pop(),
         "normalization record dimensions do not match model"),
        (lambda m: m["feature_norm"].update(mean=0.0, std=1.0),
         "normalization record dimensions do not match model"),
        (lambda m: m["feature_names"].__setitem__(0, "bogus"),
         "model feature names do not match feature set 'doc+query': {names}"),
        (lambda m: m["meta"].update(homogeneity_filter=40),
         "bad filter label 40: expected m, m:tau or inf"),
        (lambda m: m["filters"].__setitem__(0, 50),
         "bad filter label 50: expected m, m:tau or inf"),
    ], ids=["version-2", "version-true", "version-float", "b-string", "b-true",
            "b-huge", "W-string", "mean-true", "std-string", "W-shape", "norm-size",
            "std-size", "norm-scalar", "feature-names", "hom-label-number",
            "filter-label-number"])
    def test_model_fields(self, pipeline, tmp_path, capsys, edit, message):
        """One error line naming the file. Before, true and "0.5" were read
        as numbers (version true as version 1), a number as a filter label
        (40 as 40:20), a huge b or a scalar mean ended in a traceback, and
        a short std in numpy's broadcast error."""
        model = json.loads((pipeline["model_dir"] / "fold_0.json").read_text())
        alpha, beta = len(model["filters"]), len(model["feature_names"])
        names = ["bogus", *model["feature_names"][1:]]
        doctored, err = self.doctored_model(pipeline, tmp_path, capsys, edit)
        message = message.format(a=alpha, a1=alpha - 1, b=beta, names=names)
        assert err == f"error: model file {doctored}: {message}\n"

    def test_model_negative_oov_floor(self, pipeline, tmp_path, capsys):
        doctored, err = self.doctored_model(
            pipeline, tmp_path, capsys, lambda m: m["meta"].update(oov_floor=-3))
        assert f"error: model file {doctored}: oov_floor must be >= 0" in err

    @pytest.mark.parametrize("text", ["[]", "7", "{", "\"model\""])
    def test_model_file_not_a_json_object(self, pipeline, tmp_path, capsys, text):
        model = tmp_path / "fold_0.json"
        model.write_text(text)
        rc = main(["rerank", "--index", str(pipeline["index"]),
                   "--topics", str(pipeline["topics"]),
                   "--run", str(pipeline["ql_run"]), "--mode", "npm",
                   "--model", str(model), "--output", str(tmp_path / "x.run")])
        assert rc == 2 and not (tmp_path / "x.run").exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(model) in err

    def test_index_manifest_not_a_json_object(self, pipeline, tmp_path, capsys):
        # the other malformed manifests are in test_corpus
        index = tmp_path / "index"
        shutil.copytree(pipeline["index"], index)
        (index / "manifest.json").write_text("[1]")
        rc = main(["retrieve", "--index", str(index),
                   "--topics", str(pipeline["topics"]),
                   "--output", str(tmp_path / "x.run")])
        assert rc == 2 and not (tmp_path / "x.run").exists()
        assert (f"error: {index / 'manifest.json'} does not hold a JSON object"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag", ["--pooling", "--feature-set",
                                      "--homogeneity-m"])
    def test_rerank_has_no_model_setting_flags(self, pipeline, tmp_path, flag):
        # npm takes these from the model file, and no msp mode reads them
        with pytest.raises(SystemExit):
            main(["rerank", "--index", str(pipeline["index"]),
                  "--topics", str(pipeline["topics"]),
                  "--run", str(pipeline["ql_run"]), "--mode", "msp",
                  flag, "1", "--output", str(tmp_path / "x.run")])

    def test_fold_models_must_agree(self, pipeline, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(pipeline["model_dir"], models)
        model = json.loads((models / "fold_1.json").read_text())
        model["meta"]["lambda_c"] = 0.3
        (models / "fold_1.json").write_text(json.dumps(model))
        rc = main(["rerank", "--index", str(pipeline["index"]),
                   "--topics", str(pipeline["topics"]),
                   "--run", str(pipeline["ql_run"]), "--mode", "npm",
                   "--model", str(models), "--output", str(tmp_path / "x.run")])
        assert rc == 2
        assert "fold models disagree" in capsys.readouterr().err

    def test_run_with_unknown_topics_errors(self, pipeline, tmp_path, capsys):
        orphan = tmp_path / "orphan.run"
        orphan.write_text("99 Q0 d000 1 1.000000 t\n")
        rc = main(["rerank", "--index", str(pipeline["index"]),
                   "--topics", str(pipeline["topics"]),
                   "--run", str(orphan), "--mode", "msp",
                   "--output", str(tmp_path / "x.run")])
        assert rc == 2
        assert "no topic query" in capsys.readouterr().err
