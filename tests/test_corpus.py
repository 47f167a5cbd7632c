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
    Query,
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


TRICKY_CHARS = "\u212a\u0130\u0131\u017f\u00b2\uff11\u00e9"
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
        stopwords = frozenset({"the", "on"})
        assert tokenize("The cat ON the mat", stopwords) == ["cat", "mat"]

    # str.lower() maps KELVIN SIGN to "k" and DOTTED CAPITAL I to "i"
    # plus a combining dot, and Unicode case folding matches DOTLESS I
    # and LONG S with I and S; all four, superscript two, the full-width
    # digit and a lone surrogate are non-ASCII, so each separates tokens
    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(alphabet=TOKEN_CHARS), st.text()),
           stopwords=st.sets(st.sampled_from(["k", "i", "the", "a1", "9"])))
    @example(text="\u212aelvin \u0130stanbul \u0131t \u017fun x\u00b2 \uff11st",
             stopwords=set())
    @example(text="The K\u212a 9 A1 i\u0130", stopwords={"k", "i", "a1"})
    @example(text="a\ud800b", stopwords=set())
    def test_matches_the_regex_reference(self, text, stopwords):
        stopwords = frozenset(stopwords)
        assert tokenize(text, stopwords) == tokenize_reference(text, stopwords)


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

    @pytest.mark.parametrize("doc_id", ["", "a\tb", "a\nb", "a b", " a"])
    def test_doc_id_the_index_files_cannot_hold_raises(self, tmp_path, doc_id):
        # docs.tsv splits on tabs and newlines, run lines on any whitespace
        docs = [Document("d1", ("a",)), Document(doc_id, ("b",))]
        with pytest.raises(CorpusError, match=re.escape(
                f"doc_id {doc_id!r} is empty or holds whitespace")):
            save_index(build_index(docs), tmp_path / "index")
        assert not (tmp_path / "index").exists()

    @pytest.mark.parametrize("term", ["", "x\ty", "x\ny", "x y"])
    def test_term_the_index_files_cannot_hold_raises(self, tmp_path, term):
        docs = [Document("d1", ("a", term)), Document("d2", ("b",))]
        with pytest.raises(CorpusError, match=re.escape(
                f"term {term!r} is empty or holds whitespace")):
            save_index(build_index(docs), tmp_path / "index")
        assert not (tmp_path / "index").exists()

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

    @pytest.mark.parametrize("name", ["tokens.bin", "postings_docs.bin",
                                      "postings_tf.bin"])
    def test_bin_of_a_partial_int32_names_the_file(self, saved_index, name):
        data = (saved_index / name).read_bytes() + b"\0"
        rewrite_index_file(saved_index, name, data, fix_digest=True)
        with pytest.raises(CorpusError, match="^" + re.escape(
                f"{saved_index / name} holds {len(data)} bytes, not a whole number "
                f"of int32 values; rebuild the index") + "$"):
            load_index(saved_index)

    @pytest.mark.parametrize("name", ["vocab.tsv", "docs.tsv"])
    def test_tsv_with_a_missing_field_raises(self, saved_index, name):
        text = (saved_index / name).read_text(encoding="utf-8")
        text = text.rstrip("\n").rsplit("\t", 1)[0] + "\n"
        rewrite_index_file(saved_index, name, text.encode("utf-8"), fix_digest=True)
        with pytest.raises(CorpusError, match=f"{name} does not have"):
            load_index(saved_index)

    @pytest.mark.parametrize("name, column, value, message", [
        ("vocab.tsv", 0, None, "vocabulary contains duplicate terms"),
        ("docs.tsv", 0, None, "duplicate doc_id in index"),
        ("vocab.tsv", 2, "0", "a vocabulary term has document frequency 0"),
    ], ids=["duplicate-term", "duplicate-doc", "df-zero"])
    def test_doctored_tsv_raises(self, saved_index, name, column, value, message):
        """A re-signed TSV whose second row copies the first row's field
        (``value`` None) or holds ``value`` fails the load."""
        rows = [line.split("\t") for line in
                (saved_index / name).read_text(encoding="utf-8").splitlines()]
        rows[1][column] = rows[0][column] if value is None else value
        text = "".join("\t".join(row) + "\n" for row in rows)
        rewrite_index_file(saved_index, name, text.encode("utf-8"), fix_digest=True)
        with pytest.raises(CorpusError, match="^" + re.escape(
                f"{saved_index}: {message}; rebuild the index") + "$"):
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
        with pytest.raises(CorpusError, match="^" + re.escape(str(manifest))):
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


# each text tag and spellings a record may hold; a tag name matches with
# ASCII letters in any case and every other character as itself, so
# T\u0131TLE, \u212aEYWORDS, KEYWORD\u017f, NOTEI, R\u00e9SUM\u00e9 and RESUME are
# other tags, although Unicode case folding matches all but the last
TAG_SPELLINGS = {
    "TEXT": ["TEXT", "text", "tExT"],
    "TITLE": ["TITLE", "Title", "T\u0131TLE"],
    "KEYWORDS": ["KEYWORDS", "keywords", "\u212aEYWORDS", "KEYWORD\u017f"],
    "NOTE\u0130": ["NOTE\u0130", "note\u0130", "NOTEI"],
    "R\u00c9SUM\u00c9": ["R\u00c9SUM\u00c9", "r\u00c9sum\u00c9", "R\u00e9SUM\u00e9", "RESUME"],
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

    def test_unicode_folds_onto_ascii_do_not_apply(self, tmp_path):
        # str.lower() or Unicode case folding maps each of these code
        # points onto an ASCII letter; the tokenizer splits at it and a
        # tag name holding it matches only itself, ASCII letters in any case
        f = tmp_path / "corpus.trectext"
        for char, letter in [("\u0130", "i"), ("\u0131", "i"),
                             ("\u017f", "s"), ("\u212a", "k")]:
            f.write_text(f"<DOC><DOCNO>D1</DOCNO><X{letter}>folded</X{letter}>"
                         f"<x{char}>a{char}b {letter}</X{char}></DOC>", encoding="utf-8")
            [ascii_tag] = iter_trectext(f, text_tags=(f"X{letter.upper()}",))
            [own_tag] = iter_trectext(f, text_tags=(f"X{char}",))
            assert ascii_tag.terms == ("folded",), char
            assert own_tag.terms == ("a", "b", letter), char

    @settings(max_examples=300, deadline=None)
    @given(blob=trectext_files(),
           text_tags=st.lists(st.sampled_from(list(TAG_SPELLINGS) + ["text"]),
                              min_size=1, max_size=3,
                              unique_by=lambda t: t.encode().lower()),
           stopwords=st.sets(st.sampled_from(["a", "k", "zz"])))
    def test_matches_the_regex_reference(self, blob, text_tags, stopwords):
        stopwords = frozenset(stopwords)
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "corpus.trectext"
            f.write_bytes(blob)
            docs = list(iter_trectext(f, stopwords, text_tags))
        assert docs == trectext_reference(blob, stopwords, text_tags)

    @pytest.mark.parametrize("tags,repeated", [(("TEXT", "TEXT"), "TEXT"),
                                               (("TEXT", "TITLE", "text"), "text"),
                                               (("KEYWORDS", "tExT", "keywords"), "keywords")])
    def test_repeated_text_tag_raises_before_reading(self, tmp_path, tags, repeated):
        # a tag listed twice read every document's text twice over;
        # the check comes before any file is read, so a missing path
        # still names the tag
        f = tmp_path / "corpus.trectext"
        f.write_text("<DOC><DOCNO>A</DOCNO><TEXT>alpha beta</TEXT></DOC>",
                     encoding="utf-8")
        for path in (f, tmp_path / "nowhere.trectext"):
            with pytest.raises(ValueError,
                               match=f"^text tag '{repeated}' is listed twice$"):
                list(iter_trectext(path, frozenset(), tags))

    def test_distinct_text_tags_are_accepted(self, tmp_path):
        # names that differ outside ASCII case are different tags
        f = tmp_path / "corpus.trectext"
        f.write_text("<DOC><DOCNO>A</DOCNO><TEXT>alpha beta</TEXT>"
                     "<KEYWORDS>kw</KEYWORDS></DOC>", encoding="utf-8")
        [doc] = iter_trectext(f, frozenset(), ("TEXT", "KEYWORDS", "\u212aEYWORDS"))
        assert doc.terms == ("alpha", "beta", "kw")

    def test_bad_encoding_names_document(self, tmp_path):
        f = tmp_path / "bad.trectext"
        f.write_bytes(b"<DOC>\n<DOCNO>X1</DOCNO>\n<TEXT>\xff\xfe</TEXT>\n</DOC>")
        with pytest.raises(CorpusError):
            list(iter_trectext(f))

    def test_missing_path_is_named(self, tmp_path):
        missing = tmp_path / "nowhere.trectext"
        with pytest.raises(CorpusError, match="^corpus path does not exist: "
                                              + re.escape(str(missing)) + "$"):
            list(iter_trectext(missing))


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
        queries = read_topics(f, frozenset({"and"}))
        assert queries[1].terms == ("poliomyelitis", "post", "polio")

    def test_duplicate_num_raises(self, tmp_path):
        f = tmp_path / "topics.txt"
        f.write_text(
            "<top><num>1</num><title>a</title></top>"
            "<top><num>1</num><title>b</title></top>", encoding="utf-8")
        with pytest.raises(CorpusError, match="duplicate"):
            read_topics(f)

    def test_unicode_folds_onto_ascii_do_not_apply(self, tmp_path):
        # as for text tags, a field name or prefix holding one of these
        # code points is not read as the ASCII one it folds onto, while
        # Unicode whitespace still separates a field from its value
        f = tmp_path / "topics.txt"
        for char in ["\u0130", "\u0131", "\u017f", "\u212a"]:
            f.write_text(f"<top><num>\u3000Number:\u00a07 <t{char}tle> alpha "
                         f"<TITLE>\u3000Top{char}c: beta</top>"
                         f"<top><NUM> 8 <T{char}TLE> gamma <title> delta</top>",
                         encoding="utf-8")
            assert read_topics(f) == [Query("7", ("top", "c", "beta")),
                                      Query("8", ("delta",))], char


def test_documents_and_topics_share_one_tokenizer(tmp_path, monkeypatch):
    # perfbench's tracer times ingest through corpus.tokenize
    calls = []

    def counting(raw_text, stopwords=frozenset()):
        calls.append(raw_text)
        return tokenize(raw_text, stopwords)

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


def test_read_stoplist_tokenizes_entries(tmp_path):
    # a comment may follow an entry; an entry is stored as its one token
    f = tmp_path / "stop.txt"
    f.write_text("# articles\nthe # definite\n\t\"An\"\nA#\n", encoding="utf-8")
    assert read_stoplist(f) == frozenset({"the", "an", "a"})
    f.write_text("of\nU.S.\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="stop.txt:2: stoplist entry 'U.S.' is 2"):
        read_stoplist(f)
