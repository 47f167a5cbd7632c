"""Tokenization, index construction, persistence, and TREC file parsing."""

import json
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from passagerank import (
    CorpusError,
    Document,
    TokenizeConfig,
    build_index,
    iter_trectext,
    load_index,
    read_stoplist,
    read_topics,
    save_index,
    tokenize,
)
from conftest import (corrupt_index_file, planted_corpus, rewrite_index_file,
                      set_first)
from reference import (postings_reference, same_index, tokenize_reference,
                       trectext_reference)


def assert_postings_match_reference(index):
    ref = postings_reference(index)
    np.testing.assert_array_equal(index.df, [d.shape[0] for d, _ in ref])
    np.testing.assert_array_equal(index.postings_docs,
                                  np.concatenate([d for d, _ in ref]))
    np.testing.assert_array_equal(index.postings_tf,
                                  np.concatenate([tf for _, tf in ref]))


@pytest.fixture(scope="module")
def planted_index():
    docs, _, _ = planted_corpus(n_queries=6, n_docs=40, doc_len=1100,
                                bg_vocab=100, seed=0)
    return build_index(docs)


@pytest.fixture
def saved_index(tmp_path, small_random_index):
    path = tmp_path / "index"
    save_index(small_random_index, path)
    return path


TRICKY_CHARS = "\u212a\u0130\u017f\u00b2\uff11\u00e9"
TOKEN_CHARS = "aAzZkKsS09 _-.,@[`{\t\n" + TRICKY_CHARS


class TestTokenize:
    def test_lowercases_and_splits_on_nonalnum(self):
        assert tokenize("The CAT, sat-on 2 mats!") == [
            "the", "cat", "sat", "on", "2", "mats"]

    def test_digits_kept_punctuation_dropped(self):
        assert tokenize("x86-64; 3.5%") == ["x86", "64", "3", "5"]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("  \n\t ") == []

    def test_stopwords_removed(self):
        cfg = TokenizeConfig(stopwords=frozenset({"the", "on"}))
        assert tokenize("The cat ON the mat", cfg) == ["cat", "mat"]

    # KELVIN SIGN lowercases to "k", DOTTED CAPITAL I to "i" plus a
    # combining dot; LONG S, superscript two and the full-width digit
    # stay non-ASCII, so none of them is a token
    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(alphabet=TOKEN_CHARS), st.text()),
           stopwords=st.sets(st.sampled_from(["k", "i", "the", "a1", "9"])))
    @example(text="\u212aelvin \u0130stanbul \u017fun x\u00b2 \uff11st",
             stopwords=set())
    @example(text="The K\u212a 9 A1 i\u0130", stopwords={"k", "i", "a1"})
    def test_matches_the_regex_reference(self, text, stopwords):
        cfg = TokenizeConfig(stopwords=frozenset(stopwords))
        assert tokenize(text, cfg) == tokenize_reference(text, cfg)


class TestIndex:
    def test_statistics(self, tiny_index):
        idx = tiny_index
        assert idx.num_docs == 2
        assert idx.total_len == 10
        assert idx.corpus_freq("a") == 4
        assert idx.corpus_freq("b") == 2
        assert idx.corpus_freq("c") == 4
        assert idx.doc_freq("a") == 2
        assert idx.doc_freq("c") == 1
        assert idx.doc_len[idx.doc_index("d1")] == 3
        assert idx.doc_len[idx.doc_index("d2")] == 7

    def test_oov_statistics_floor(self, tiny_index):
        assert tiny_index.corpus_freq("nope") == 1
        assert tiny_index.corpus_freq("nope", floor=3) == 3
        assert tiny_index.doc_freq("nope") == 1

    def test_term_ids_marks_oov(self, tiny_index):
        ids = tiny_index.term_ids(("a", "nope", "c"))
        assert ids.dtype == np.int32
        assert ids[1] == -1
        assert ids[0] != -1 and ids[2] != -1

    def test_doc_tokens_round_trip(self, tiny_index):
        i = tiny_index.doc_index("d2")
        toks = tiny_index.doc_tokens(i)
        terms = tuple(tiny_index.vocab[t] for t in toks)
        assert terms == ("a", "a", "c", "b", "c", "c", "c")

    def test_batch_tokens_concatenates_in_order(self, tiny_index):
        tokens, lengths = tiny_index.batch_tokens(["d2", "d1", "d2"])
        d1, d2 = (tiny_index.doc_tokens(i).tolist() for i in (0, 1))
        assert tokens.tolist() == d2 + d1 + d2
        assert lengths.tolist() == [7, 3, 7]
        tokens, lengths = tiny_index.batch_tokens([])
        assert tokens.size == 0 and lengths.size == 0

    def test_unknown_doc_raises(self, tiny_index):
        with pytest.raises(CorpusError):
            tiny_index.doc_index("missing")

    def test_duplicate_doc_id_raises(self):
        docs = [Document("d1", ("a",)), Document("d1", ("b",))]
        with pytest.raises(CorpusError, match="duplicate"):
            build_index(docs)

    def test_empty_document_skipped_with_warning(self, caplog):
        docs = [Document("d1", ("a",)), Document("d2", ())]
        with caplog.at_level("WARNING"):
            idx = build_index(docs)
        assert idx.num_docs == 1
        assert "d2" in caplog.text

    def test_all_empty_raises(self):
        with pytest.raises(CorpusError):
            build_index([Document("d1", ())])

    def test_postings_match_token_stream(self, small_random_index):
        idx = small_random_index
        for tid in range(len(idx.vocab)):
            doc_idx, tf = idx.postings(tid)
            assert np.sum(tf) == idx.cf[tid]
            assert len(doc_idx) == idx.df[tid]
            for d, count in zip(doc_idx, tf):
                assert np.sum(idx.doc_tokens(int(d)) == tid) == count

    @pytest.mark.parametrize("name", ["tiny_index", "small_random_index",
                                      "planted_index"])
    def test_postings_match_reference(self, request, name):
        assert_postings_match_reference(request.getfixturevalue(name))

    def test_vocabulary_in_first_occurrence_order(self, tiny_index):
        assert tiny_index.vocab == ["a", "b", "c"]
        np.testing.assert_array_equal(tiny_index.tokens,
                                      [0, 1, 0, 0, 0, 2, 1, 2, 2, 2])

    def test_doc_sort_rank_orders_ids(self, small_random_index):
        idx = small_random_index
        ranks = idx.doc_sort_rank()
        by_rank = [idx.doc_ids[i] for i in np.argsort(ranks)]
        assert by_rank == sorted(idx.doc_ids)


INDEX_FILES = ("manifest.json", "vocab.tsv", "docs.tsv", "tokens.bin",
               "postings_docs.bin", "postings_tf.bin")

# letters and digits only, like the tokenizer's output; two letters and
# short documents make single-token documents and heavy repeats common
TERMS = st.text("ab01", min_size=1, max_size=2)


class TestPersistence:
    def test_round_trip(self, tmp_path, small_random_index):
        path = tmp_path / "index"
        save_index(small_random_index, path)
        loaded = load_index(path)
        assert same_index(loaded, small_random_index)
        assert_postings_match_reference(loaded)

    def test_save_is_deterministic(self, tmp_path, small_random_index):
        a, b = tmp_path / "a", tmp_path / "b"
        save_index(small_random_index, a)
        save_index(small_random_index, b)
        assert sorted(p.name for p in a.iterdir()) == sorted(INDEX_FILES)
        for name in INDEX_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(docs=st.lists(st.lists(TERMS, max_size=8), min_size=1, max_size=6))
    def test_round_trip_property(self, docs):
        kept = [(f"d{i}", tuple(terms)) for i, terms in enumerate(docs) if terms]
        assume(kept)
        index = build_index(Document(f"d{i}", tuple(t)) for i, t in enumerate(docs))
        assert index.doc_ids == [d for d, _ in kept]
        assert index.vocab == list(dict.fromkeys(t for _, ts in kept for t in ts))
        cf = Counter(t for _, ts in kept for t in ts)
        df = Counter(t for _, ts in kept for t in set(ts))
        assert index.cf.tolist() == [cf[t] for t in index.vocab]
        assert index.df.tolist() == [df[t] for t in index.vocab]
        assert_postings_match_reference(index)
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a", Path(tmp) / "b"
            save_index(index, a)
            loaded = load_index(a)
            save_index(loaded, b)
            assert same_index(loaded, index)
            for name in INDEX_FILES:
                assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_holds_sha256_of_every_data_file(self, saved_index):
        manifest = json.loads((saved_index / "manifest.json").read_text())
        assert manifest["version"] == 2
        assert sorted(manifest["sha256"]) == sorted(INDEX_FILES[1:])

    @pytest.mark.parametrize("name, value, fixed_message", [
        ("tokens.bin", 20, "token ids outside the vocabulary"),
        ("tokens.bin", -1, "token ids outside the vocabulary"),
        ("postings_docs.bin", 30, "document indices outside"),
    ])
    @pytest.mark.parametrize("fix_digest", [False, True],
                             ids=["checksum", "structure"])
    def test_out_of_range_ids_raise(self, saved_index, small_random_index,
                                    name, value, fixed_message, fix_digest):
        assert len(small_random_index.vocab) == 20
        assert small_random_index.num_docs == 30
        corrupt_index_file(saved_index, name, set_first(value), fix_digest)
        message = fixed_message if fix_digest else rf"{name} .*sha256"
        with pytest.raises(CorpusError, match=message):
            load_index(saved_index)

    @pytest.mark.parametrize("name, mutate, message", [
        ("postings_tf.bin", set_first(0), "term frequency below 1"),
        ("postings_tf.bin", lambda a: a[:-1], "postings hold"),
        ("postings_docs.bin", lambda a: np.append(a, 0), "postings hold"),
        ("postings_tf.bin", lambda a: a + 1, "do not sum to cf"),
    ], ids=["tf-zero", "tf-short", "docs-long", "tf-sums"])
    def test_inconsistent_postings_raise(self, saved_index, name, mutate, message):
        corrupt_index_file(saved_index, name, mutate, fix_digest=True)
        with pytest.raises(CorpusError, match=message):
            load_index(saved_index)

    @pytest.mark.parametrize("name", ["vocab.tsv", "docs.tsv"])
    def test_tsv_with_a_missing_field_raises(self, saved_index, name):
        text = (saved_index / name).read_text(encoding="utf-8")
        text = text.rstrip("\n").rsplit("\t", 1)[0] + "\n"
        rewrite_index_file(saved_index, name, text.encode("utf-8"), fix_digest=True)
        with pytest.raises(CorpusError, match=f"{name} does not have"):
            load_index(saved_index)

    def test_missing_data_file_raises(self, saved_index):
        (saved_index / "postings_tf.bin").unlink()
        with pytest.raises(CorpusError, match="has no postings_tf.bin"):
            load_index(saved_index)

    def test_version_1_index_asks_for_rebuild(self, saved_index):
        # a version-1 index had no postings files and no checksums
        (saved_index / "postings_docs.bin").unlink()
        (saved_index / "postings_tf.bin").unlink()
        manifest_path = saved_index / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["sha256"]
        manifest["version"] = 1
        manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2))
        with pytest.raises(CorpusError,
                           match=r"format version 1.*rebuild it with `passagerank index`"):
            load_index(saved_index)

    def test_tampered_manifest_raises(self, tmp_path, small_random_index):
        path = tmp_path / "index"
        save_index(small_random_index, path)
        manifest = path / "manifest.json"
        manifest.write_text(
            manifest.read_text().replace('"num_docs": 30', '"num_docs": 7'))
        with pytest.raises(CorpusError):
            load_index(path)

    @pytest.mark.parametrize("edit", [
        lambda text: "[1]",
        lambda text: text[:-3],
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "num_docs"}),
        lambda text: json.dumps(dict(json.loads(text), sha256=[])),
    ], ids=["list", "truncated", "no-num-docs", "sha256-list"])
    def test_malformed_manifest_names_the_file(self, saved_index, edit):
        manifest = saved_index / "manifest.json"
        manifest.write_text(edit(manifest.read_text()))
        with pytest.raises(CorpusError, match=re.escape(str(manifest))):
            load_index(saved_index)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises((CorpusError, OSError)):
            load_index(tmp_path / "nope")


TRECTEXT = """
<DOC>
<DOCNO> DOC-001 </DOCNO>
<TITLE>ignored by default</TITLE>
<TEXT>
The quick <em>brown</em> fox.
</TEXT>
</DOC>
<DOC>
<DOCNO>DOC-002</DOCNO>
<TEXT>jumps over</TEXT>
<TEXT>the lazy dog</TEXT>
</DOC>
"""


# each text tag as it may be spelled in a record; case-insensitive regex
# matching folds KELVIN SIGN to K, LONG S to S and DOTTED CAPITAL I to I,
# and lowercasing DOTTED CAPITAL I adds a character
TAG_SPELLINGS = {
    "TEXT": ["TEXT", "text", "tExT"],
    "TITLE": ["TITLE", "Title"],
    "KEYWORDS": ["KEYWORDS", "keywords", "\u212aEYWORDS", "KEYWORD\u017f"],
    "NOTE\u0130": ["NOTE\u0130", "note\u0130", "NOTEI"],
}
MARKUP = ["<em>", "</em>", "<b class='x'>", "<", ">", "<>", "<doc>", "</Doc>"]


@st.composite
def trectext_files(draw):
    """TRECTEXT bytes: records of text, markup and text tags in any case,
    opened and closed in any order, between noise; the last record may
    lack its ``</DOC>``."""
    ascii_only = draw(st.booleans())
    chars = "aAkKzZ09 \n.-" + ("" if ascii_only else TRICKY_CHARS)
    spellings = st.sampled_from(list(TAG_SPELLINGS.values())).flatmap(
        lambda names: st.sampled_from([n for n in names if n.isascii() or not ascii_only]))
    text = st.text(alphabet=chars, max_size=10)
    segment = st.one_of(
        text,
        st.sampled_from(MARKUP),
        st.builds("<{}{}>".format, st.sampled_from(["", "/"]), spellings),
        st.builds("<{}>{}</{}>".format, spellings, text, spellings),
    )
    parts = []
    for i in range(draw(st.integers(0, 4))):
        gap = draw(st.sampled_from(["", "\n", "x"]))
        body = "".join(draw(st.lists(segment, max_size=10)))
        parts.append(f"{gap}<DOC><DOCNO> d{i} </DOCNO>{body}</DOC>")
    if draw(st.booleans()):
        parts.append("<DOC><DOCNO>open</DOCNO><TEXT>never closed")
    return "".join(parts).encode("utf-8")


class TestTrectext:
    def test_parses_documents(self, tmp_path):
        f = tmp_path / "corpus.trectext"
        f.write_text(TRECTEXT, encoding="utf-8")
        docs = list(iter_trectext(f))
        assert [d.doc_id for d in docs] == ["DOC-001", "DOC-002"]
        assert docs[0].terms == ("the", "quick", "brown", "fox")
        assert docs[1].terms == ("jumps", "over", "the", "lazy", "dog")

    def test_custom_text_tags(self, tmp_path):
        f = tmp_path / "corpus.trectext"
        f.write_text(TRECTEXT, encoding="utf-8")
        docs = list(iter_trectext(f, text_tags=("TITLE", "TEXT")))
        assert docs[0].terms[:3] == ("ignored", "by", "default")

    def test_missing_docno_raises(self, tmp_path):
        f = tmp_path / "bad.trectext"
        f.write_text("<DOC><TEXT>no id here</TEXT></DOC>", encoding="utf-8")
        with pytest.raises(CorpusError, match="DOCNO"):
            list(iter_trectext(f))

    @pytest.mark.parametrize("docno", ["a b", "a\tb", "   "])
    def test_docno_with_whitespace_or_empty_raises(self, tmp_path, docno):
        # run files are whitespace-separated, so such an id could not be
        # read back from the run file it would be written to
        f = tmp_path / "bad.trectext"
        f.write_text("<DOC><DOCNO>ok</DOCNO><TEXT>x</TEXT></DOC>\n"
                     f"<DOC><DOCNO>{docno}</DOCNO><TEXT>y</TEXT></DOC>",
                     encoding="utf-8")
        with pytest.raises(CorpusError, match=r"bad\.trectext: record #2 .*DOCNO"):
            list(iter_trectext(f))

    def test_directory_input_sorted(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "b.trectext").write_text(
            "<DOC><DOCNO>B1</DOCNO><TEXT>beta</TEXT></DOC>", encoding="utf-8")
        (d / "a.trectext").write_text(
            "<DOC><DOCNO>A1</DOCNO><TEXT>alpha</TEXT></DOC>", encoding="utf-8")
        docs = list(iter_trectext(d))
        assert [x.doc_id for x in docs] == ["A1", "B1"]

    def test_text_tags_concatenate_in_text_tags_order(self, tmp_path):
        f = tmp_path / "corpus.trectext"
        f.write_text("<DOC><DOCNO>D1</DOCNO><TEXT>b</TEXT><TITLE>a</TITLE></DOC>",
                     encoding="utf-8")
        docs = list(iter_trectext(f, text_tags=("TITLE", "TEXT")))
        assert docs[0].terms == ("a", "b")

    def test_case_folded_non_ascii_tag_matches(self, tmp_path):
        # KELVIN SIGN makes the record non-ASCII; case-insensitive regex
        # matching folds it to the K of the configured tag
        f = tmp_path / "corpus.trectext"
        f.write_text("<DOC><DOCNO>D1</DOCNO>"
                     "<\u212aEYWORDS>hot</\u212aEYWORDS></DOC>", encoding="utf-8")
        docs = list(iter_trectext(f, text_tags=("KEYWORDS",)))
        assert docs[0].terms == ("hot",)

    @settings(max_examples=300, deadline=None)
    @given(blob=trectext_files(),
           text_tags=st.lists(st.sampled_from(list(TAG_SPELLINGS) + ["text"]),
                              min_size=1, max_size=3, unique=True),
           stopwords=st.sets(st.sampled_from(["a", "k", "zz"])))
    def test_matches_the_regex_reference(self, blob, text_tags, stopwords):
        cfg = TokenizeConfig(stopwords=frozenset(stopwords))
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "corpus.trectext"
            f.write_bytes(blob)
            docs = list(iter_trectext(f, cfg, text_tags))
        assert docs == trectext_reference(blob, cfg, text_tags)

    def test_bad_encoding_names_document(self, tmp_path):
        f = tmp_path / "bad.trectext"
        f.write_bytes(b"<DOC>\n<DOCNO>X1</DOCNO>\n<TEXT>\xff\xfe</TEXT>\n</DOC>")
        with pytest.raises(CorpusError):
            list(iter_trectext(f))


TOPICS = """
<top>
<num> Number: 301 </num>
<title> International Organized Crime </title>
<desc> Description: ignored </desc>
</top>
<top>
<num>302</num>
<title>poliomyelitis and post polio</title>
</top>
<top>
<num>303</num>
<title>  </title>
</top>
"""


class TestTopics:
    def test_parses_topics(self, tmp_path, caplog):
        f = tmp_path / "topics.txt"
        f.write_text(TOPICS, encoding="utf-8")
        with caplog.at_level("WARNING"):
            queries = read_topics(f)
        assert [q.query_id for q in queries] == ["301", "302"]
        assert queries[0].terms == ("international", "organized", "crime")
        assert queries[1].terms == ("poliomyelitis", "and", "post", "polio")
        assert "303" in caplog.text  # empty title is skipped, not fatal

    def test_stopwords_applied(self, tmp_path):
        f = tmp_path / "topics.txt"
        f.write_text(TOPICS, encoding="utf-8")
        cfg = TokenizeConfig(stopwords=frozenset({"and"}))
        queries = read_topics(f, cfg)
        assert queries[1].terms == ("poliomyelitis", "post", "polio")

    def test_duplicate_num_raises(self, tmp_path):
        f = tmp_path / "topics.txt"
        f.write_text(
            "<top><num>1</num><title>a</title></top>"
            "<top><num>1</num><title>b</title></top>", encoding="utf-8")
        with pytest.raises(CorpusError, match="duplicate"):
            read_topics(f)


def test_documents_and_topics_share_one_tokenizer(tmp_path, monkeypatch):
    # perfbench's tracer times ingest through corpus.tokenize
    calls = []

    def counting(raw_text, config=None):
        calls.append(raw_text)
        return tokenize(raw_text, config)

    monkeypatch.setattr("passagerank.corpus.tokenize", counting)
    corpus_file, topics_file = tmp_path / "corpus.trectext", tmp_path / "topics.txt"
    corpus_file.write_text(TRECTEXT, encoding="utf-8")
    topics_file.write_text(TOPICS, encoding="utf-8")
    assert len(list(iter_trectext(corpus_file))) == len(calls) == 2
    calls.clear()
    read_topics(topics_file)
    assert len(calls) == TOPICS.count("<top>") == 3


def test_read_stoplist(tmp_path):
    f = tmp_path / "stop.txt"
    f.write_text("the\n\nAnd\n a \n", encoding="utf-8")
    words = read_stoplist(f)
    assert words == frozenset({"the", "and", "a"})
