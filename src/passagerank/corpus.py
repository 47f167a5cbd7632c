"""Corpus ingestion, tokenization, and the persisted statistics index.

Everything downstream (scoring, features, training) consumes the
:class:`CorpusIndex` built here: term frequencies, document frequencies,
per-document token id sequences, the inverted index (postings), and the
corpus-level length extrema.

Ingestion streams documents into the index one at a time, but each
trectext file is read whole (``read_bytes``), so the raw text of the
largest file has to fit in memory. The token-id index itself (4 bytes
per token), the postings (8 bytes per distinct (term, document) pair)
and all statistics stay in memory too; that is the same footprint the
scorer needs at query time anyway.

A record's text is its configured text tags concatenated tag by tag in
``text_tags`` order, each tag's occurrences in record order; tag names
match with ASCII letters in any case. A token is a run of ASCII letters
and digits, lowercased, for documents, topic titles and stoplists alike
(:func:`tokenize`); every other character, non-ASCII ones included,
separates tokens.

On-disk format (version 2), one directory per index:

* ``manifest.json`` - format name, version, counts, and the sha256 of
  every other file (sorted keys, no timestamps, so rebuilds are
  byte-identical);
* ``vocab.tsv`` - one term per line: ``term<TAB>cf<TAB>df``; the line
  number is the term id;
* ``docs.tsv`` - one document per line: ``doc_id<TAB>n_d``;
* ``tokens.bin`` - little-endian int32 token ids, documents concatenated
  in ``docs.tsv`` order;
* ``postings_docs.bin`` and ``postings_tf.bin`` - the postings in CSR
  layout: little-endian int32 document indices and within-document term
  frequencies, ordered by term id and by document index inside a term.
  Term ``t`` owns entries ``[off[t], off[t+1])`` with ``off = cumsum(df)``
  starting at 0, so the offsets need no file of their own.

Loading verifies every checksum and runs O(n) vectorized structural
checks, so a corrupt index raises :class:`CorpusError` instead of
failing later or scoring silently wrong.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .evaluation import numbered_lines

log = logging.getLogger(__name__)

INDEX_FORMAT = "passagerank-index"
INDEX_VERSION = 2

OOV_ID = -1


class CorpusError(ValueError):
    """Raised on malformed corpus input or a broken index."""


def _one_field(text: str) -> bool:
    """Whether ``text`` is non-empty and holds no whitespace: what a field
    of a whitespace-split run line or of the index's TSV files can hold."""
    return text.split() == [text]


# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------

# Byte table of the tokenizer: A-Z lowercased, a-z and 0-9 kept, every
# other byte, each byte of a non-ASCII character included, a separator.
_ASCII_TOKEN_TABLE = bytes(
    ord(ch) if ch.isascii() and ch.isalnum() else ord(" ")
    for ch in (chr(c).lower() for c in range(256))
)


def tokenize(raw_text: str, stopwords: frozenset[str] = frozenset()) -> list[str]:
    """Split raw text into normalized tokens, document order preserved,
    and drop the ``stopwords``.

    A token is a run of ASCII letters and digits, lowercased; every other
    character, a non-ASCII one or a lone surrogate included, separates
    tokens (KELVIN SIGN U+212A is a separator, not ``k``).
    """
    tokens = (raw_text.encode("utf-8", "surrogatepass").translate(_ASCII_TOKEN_TABLE)
              .decode("ascii").split())
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Document:
    doc_id: str
    terms: tuple[str, ...]

    @property
    def n_d(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class Query:
    query_id: str
    terms: tuple[str, ...]

    @property
    def n_q(self) -> int:
        return len(self.terms)


class CorpusIndex:
    """Immutable corpus statistics plus the positional token store.

    Attributes mirror the statistics the scoring formulas need: ``cf`` and
    ``df`` arrays indexed by term id, ``total_len`` (sum of document
    lengths), ``num_docs``, per-document lengths, and the UNSMOOTHED log
    length extrema over the corpus. The postings are two flat int32
    arrays in CSR layout (see the module docstring), sliced by
    :meth:`postings`. Documents keep their ingest order; the index holds
    no ranking order, since every ranking breaks ties by doc_id through
    ``evaluation.rank_by_score``.
    """

    def __init__(
        self,
        vocab: list[str],
        cf: np.ndarray,
        df: np.ndarray,
        doc_ids: list[str],
        doc_len: np.ndarray,
        tokens: np.ndarray,
        postings_docs: np.ndarray,
        postings_tf: np.ndarray,
    ):
        self.vocab = vocab
        self.term_to_id = {t: i for i, t in enumerate(vocab)}
        if len(self.term_to_id) != len(vocab):
            raise CorpusError("vocabulary contains duplicate terms")
        self.cf = np.ascontiguousarray(cf, dtype=np.int64)
        self.df = np.ascontiguousarray(df, dtype=np.int64)
        self.doc_ids = doc_ids
        self.doc_to_idx = {d: i for i, d in enumerate(doc_ids)}
        if len(self.doc_to_idx) != len(doc_ids):
            raise CorpusError("duplicate doc_id in index")
        self.doc_len = np.ascontiguousarray(doc_len, dtype=np.int64)
        self.tokens = np.ascontiguousarray(tokens, dtype=np.int32)
        self.doc_offset = np.zeros(len(doc_ids) + 1, dtype=np.int64)
        np.cumsum(self.doc_len, out=self.doc_offset[1:])
        self.num_docs = len(doc_ids)
        self.total_len = int(self.doc_len.sum())
        if self.total_len != self.tokens.shape[0]:
            raise CorpusError("token store inconsistent with document lengths")
        if self.num_docs < 1:
            raise CorpusError("index requires at least one non-empty document")
        self.postings_docs = np.ascontiguousarray(postings_docs, dtype=np.int32)
        self.postings_tf = np.ascontiguousarray(postings_tf, dtype=np.int32)
        self.postings_offset = np.zeros(len(vocab) + 1, dtype=np.int64)
        np.cumsum(self.df, out=self.postings_offset[1:])
        self._check_structure()
        self.min_log_len = float(np.log(self.doc_len.min()))
        self.max_log_len = float(np.log(self.doc_len.max()))
        # (doc_id, m, tau, kinds) -> row in kinds order; see features.cached_homogeneity
        self.homogeneity_rows: dict = {}

    def _check_structure(self) -> None:
        """Vectorized O(n) range and consistency checks of the arrays.

        They keep a corrupt index from ending in an IndexError or in
        silently wrong scores; the order matters, each check relies on
        the ones before it.
        """
        vocab_size = len(self.vocab)
        if self.doc_len.min() < 1:
            raise CorpusError("index holds a document of length 0")
        if self.tokens.min() < 0 or self.tokens.max() >= vocab_size:
            raise CorpusError(f"token ids outside the vocabulary [0, {vocab_size})")
        if self.df.min() < 1:
            raise CorpusError("a vocabulary term has document frequency 0")
        n = self.postings_offset[-1]
        if self.postings_docs.shape[0] != n or self.postings_tf.shape[0] != n:
            raise CorpusError(
                f"postings hold {self.postings_docs.shape[0]} document and "
                f"{self.postings_tf.shape[0]} tf entries, document "
                f"frequencies sum to {n}"
            )
        if self.postings_docs.min() < 0 or self.postings_docs.max() >= self.num_docs:
            raise CorpusError(
                f"postings document indices outside [0, {self.num_docs})"
            )
        if self.postings_tf.min() < 1:
            raise CorpusError("postings hold a term frequency below 1")
        tf_sums = np.add.reduceat(self.postings_tf, self.postings_offset[:-1],
                                  dtype=np.int64)
        if not np.array_equal(tf_sums, self.cf):
            raise CorpusError("postings term frequencies do not sum to cf")

    # -- statistics ---------------------------------------------------------

    def corpus_freq(self, term: str, floor: int = 1) -> int:
        """cf_t with the OOV floor applied for unseen terms."""
        tid = self.term_to_id.get(term)
        return int(self.cf[tid]) if tid is not None else floor

    def doc_freq(self, term: str, floor: int = 1) -> int:
        """D_t with the OOV floor applied for unseen terms."""
        tid = self.term_to_id.get(term)
        return int(self.df[tid]) if tid is not None else floor

    # -- documents ----------------------------------------------------------

    def doc_index(self, doc_id: str) -> int:
        try:
            return self.doc_to_idx[doc_id]
        except KeyError:
            raise CorpusError(f"unknown doc_id: {doc_id!r}") from None

    def doc_tokens(self, idx: int) -> np.ndarray:
        """Token ids of document ``idx`` (a view, do not mutate)."""
        return self.tokens[self.doc_offset[idx] : self.doc_offset[idx + 1]]

    def batch_tokens(self, doc_ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Token ids of ``doc_ids`` concatenated in order, and their
        lengths: the batch layout of the scoring kernels."""
        idx = [self.doc_index(d) for d in doc_ids]
        if not idx:
            return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64)
        return np.concatenate([self.doc_tokens(i) for i in idx]), self.doc_len[idx]

    def term_ids(self, terms: Sequence[str]) -> np.ndarray:
        """Map terms to int32 ids; unseen terms map to OOV_ID (-1)."""
        return np.array(
            [self.term_to_id.get(t, OOV_ID) for t in terms], dtype=np.int32
        )

    def postings(self, tid: int) -> tuple[np.ndarray, np.ndarray]:
        """(document indices ascending, within-document tf) of term ``tid``.

        Both are int32 views into the stored postings; do not mutate.
        """
        lo, hi = self.postings_offset[tid], self.postings_offset[tid + 1]
        return self.postings_docs[lo:hi], self.postings_tf[lo:hi]


# ---------------------------------------------------------------------------
# index construction
# ---------------------------------------------------------------------------


def build_index(documents: Iterable[Document]) -> CorpusIndex:
    """Build the index, postings included, from a document stream.

    Term ids follow first occurrence in the stream. Duplicate doc_ids
    raise, and so does a doc_id or term that is empty or holds whitespace;
    zero-length documents are skipped with a warning; at least one
    non-empty document is required.
    """
    # a missing term gets the next id as it is first looked up
    term_to_id: defaultdict[str, int] = defaultdict(count().__next__)
    doc_ids: list[str] = []
    seen: set[str] = set()
    doc_len: list[int] = []
    chunks: list[np.ndarray] = []
    doc_terms: list[np.ndarray] = []
    doc_tf: list[np.ndarray] = []

    for doc in documents:
        if doc.doc_id in seen:
            raise CorpusError(f"duplicate doc_id: {doc.doc_id!r}")
        if not _one_field(doc.doc_id):
            raise CorpusError(f"doc_id {doc.doc_id!r} is empty or holds whitespace")
        seen.add(doc.doc_id)
        if doc.n_d == 0:
            log.warning("skipping empty document %s", doc.doc_id)
            continue
        # one lookup call per document; one key gives a scalar, not a tuple
        found = itemgetter(*doc.terms)(term_to_id)
        ids = np.fromiter(found if doc.n_d > 1 else (found,), np.int32, count=doc.n_d)
        distinct, counts = np.unique(ids, return_counts=True)
        doc_ids.append(doc.doc_id)
        doc_len.append(doc.n_d)
        chunks.append(ids)
        doc_terms.append(distinct)
        doc_tf.append(counts.astype(np.int32))

    if not doc_ids:
        raise CorpusError("no non-empty documents to index")
    bad = [term for term in term_to_id if not _one_field(term)]
    if bad:  # tokenize never yields one, a hand-built Document can
        raise CorpusError(f"term {bad[0]!r} is empty or holds whitespace")

    # Postings by counting sort: each document, in index order, scatters
    # its distinct terms into the next free slot of each term's run, so
    # documents come out ascending inside each term. A stable argsort of
    # the entries gives the same arrays but needs an int64 index array
    # and sorted copies of every column, the peak memory of the build.
    df = np.zeros(len(term_to_id), dtype=np.int64)
    for distinct in doc_terms:
        df[distinct] += 1
    offset = np.zeros(len(term_to_id) + 1, dtype=np.int64)
    np.cumsum(df, out=offset[1:])
    postings_docs = np.empty(offset[-1], dtype=np.int32)
    postings_tf = np.empty(offset[-1], dtype=np.int32)
    slot = offset[:-1].copy()
    for i, (distinct, counts) in enumerate(zip(doc_terms, doc_tf)):
        at = slot[distinct]
        postings_docs[at] = i
        postings_tf[at] = counts
        slot[distinct] += 1
    return CorpusIndex(
        vocab=list(term_to_id),
        cf=np.add.reduceat(postings_tf, offset[:-1], dtype=np.int64),
        df=df,
        doc_ids=doc_ids,
        doc_len=np.array(doc_len, dtype=np.int64),
        tokens=np.concatenate(chunks),
        postings_docs=postings_docs,
        postings_tf=postings_tf,
    )


def save_index(index: CorpusIndex, path: str | Path) -> None:
    """Persist the index to a directory (format documented in the module).

    The manifest is written last, so an interrupted save fails the
    checksums of the next load.
    """
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    vocab = "".join(f"{t}\t{c}\t{d}\n" for t, c, d in
                    zip(index.vocab, index.cf.tolist(), index.df.tolist()))
    docs = "".join(f"{d}\t{n}\n" for d, n in
                   zip(index.doc_ids, index.doc_len.tolist()))
    files = {
        "vocab.tsv": vocab.encode("utf-8"),
        "docs.tsv": docs.encode("utf-8"),
        "tokens.bin": np.ascontiguousarray(index.tokens, dtype="<i4"),
        "postings_docs.bin": np.ascontiguousarray(index.postings_docs, dtype="<i4"),
        "postings_tf.bin": np.ascontiguousarray(index.postings_tf, dtype="<i4"),
    }
    for name, data in files.items():
        (out / name).write_bytes(data)
    manifest = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "num_docs": index.num_docs,
        "total_len": index.total_len,
        "vocab_size": len(index.vocab),
        "sha256": {name: hashlib.sha256(data).hexdigest()
                   for name, data in files.items()},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _tsv_columns(data: bytes, width: int, name: str) -> list[list[str]]:
    """The ``width`` columns of a tab-separated file, one row per line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise CorpusError(f"{name} is not UTF-8 text") from None
    fields = text.replace("\n", "\t").split("\t")
    if len(fields) != width * text.count("\n") + 1 or fields[-1]:
        raise CorpusError(f"{name} does not have {width} fields per line")
    return [fields[i:-1:width] for i in range(width)]


def load_index(path: str | Path) -> CorpusIndex:
    """Load a persisted index; verifies format, version, checksums, counts
    and the structure of the arrays."""
    src = Path(path)
    manifest_path = src / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CorpusError(f"not an index directory: {src}") from None
    except ValueError as e:  # JSON and UTF-8 errors
        raise CorpusError(f"{manifest_path} is not valid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise CorpusError(f"{manifest_path} does not hold a JSON object")
    if manifest.get("format") != INDEX_FORMAT:
        raise CorpusError(f"unrecognized index format in {src}")
    version = manifest.get("version")
    if version != INDEX_VERSION:
        raise CorpusError(
            f"index in {src} is format version {version!r}, this release "
            f"reads version {INDEX_VERSION}; rebuild it with `passagerank index`"
        )
    digests = manifest.get("sha256")
    if not isinstance(digests, dict):
        raise CorpusError(f"{manifest_path} has no sha256 table")

    def read(name: str) -> bytes:
        try:
            data = (src / name).read_bytes()
        except FileNotFoundError:
            raise CorpusError(f"index in {src} has no {name}") from None
        if hashlib.sha256(data).hexdigest() != digests.get(name):
            raise CorpusError(
                f"{src / name} does not match the sha256 in its manifest; "
                f"rebuild the index"
            )
        return data

    vocab_tsv, docs_tsv = read("vocab.tsv"), read("docs.tsv")
    arrays = []
    for name in ("tokens.bin", "postings_docs.bin", "postings_tf.bin"):
        if len(data := read(name)) % 4:
            raise CorpusError(f"{src / name} holds {len(data)} bytes, not a whole "
                              f"number of int32 values; rebuild the index")
        arrays.append(np.frombuffer(data, dtype="<i4"))
    try:  # malformed tables, unparsable counts and CorpusIndex's structure checks
        vocab, cf, df = _tsv_columns(vocab_tsv, 3, "vocab.tsv")
        doc_ids, doc_len = _tsv_columns(docs_tsv, 2, "docs.tsv")
        cf, df, doc_len = (np.array(c, dtype=np.int64) for c in (cf, df, doc_len))
        index = CorpusIndex(vocab, cf, df, doc_ids, doc_len, *arrays)
    except (ValueError, OverflowError) as e:
        raise CorpusError(f"{src}: {e}; rebuild the index") from None
    counts = (index.num_docs, index.total_len, len(index.vocab))
    if counts != tuple(manifest.get(k) for k in ("num_docs", "total_len", "vocab_size")):
        raise CorpusError(f"{manifest_path}: num_docs, total_len and vocab_size "
                          f"do not match the index files")
    return index


# ---------------------------------------------------------------------------
# TREC-format readers
# ---------------------------------------------------------------------------

_DOCNO_RE = re.compile(r"<DOCNO>(.*?)</DOCNO>", re.S)
_TAG_RE = re.compile(rb"<[^>]+>")
_NUM_RE = re.compile(r"(?a:<num>)\s*(?a:Number:)?\s*([^<\s]+)", re.I)
_TITLE_RE = re.compile(r"(?a:<title>)\s*(?a:Topic:)?\s*(.*?)\s*(?=<|\Z)", re.S | re.I)


def _between(text: bytes, open_tag: bytes, close_tag: bytes,
             lowered: bytes | None = None) -> Iterator[bytes]:
    """Yield the pieces of ``text`` between ``open_tag`` and the first
    ``close_tag`` after it, left to right: what ``finditer`` of the lazy
    regex ``open(.*?)close`` finds. With ``lowered``, ``text.lower()``, and
    tags lowercased alike, the tags match with ASCII letters in any case."""
    haystack = text if lowered is None else lowered
    start = haystack.find(open_tag)
    while start != -1:
        begin = start + len(open_tag)
        end = haystack.find(close_tag, begin)
        if end == -1:  # no later opening tag can be closed either
            return
        yield text[begin:end]
        start = haystack.find(open_tag, end + len(close_tag))


def _corpus_files(path: Path) -> list[Path]:
    if path.is_dir():
        files = sorted(p for p in path.rglob("*") if p.is_file())
        if not files:
            raise CorpusError(f"empty corpus directory: {path}")
        return files
    if path.is_file():
        return [path]
    raise CorpusError(f"corpus path does not exist: {path}")


def iter_trectext(
    path: str | Path,
    stopwords: frozenset[str] = frozenset(),
    text_tags: Sequence[str] = ("TEXT",),
) -> Iterator[Document]:
    """Stream Documents out of trectext files (a file or a directory).

    Records are ``<DOC><DOCNO>id</DOCNO>...<TEXT>...</TEXT></DOC>``; the
    ``<DOC>`` and ``<DOCNO>`` tags are case-sensitive; a text tag's name
    matches with ASCII letters in any case and other characters as they
    are (``<\u212aEYWORDS>`` is not ``<KEYWORDS>``). The text tags, each
    listed once, are concatenated tag by tag in ``text_tags`` order, each
    tag's occurrences in record order, and any interleaved markup inside
    them is stripped. Other tags are ignored.
    """
    bounds = [(f"<{t}>".encode().lower(), f"</{t}>".encode().lower()) for t in text_tags]
    for i, bound in enumerate(bounds):
        if bound in bounds[:i]:
            raise ValueError(f"text tag {text_tags[i]!r} is listed twice")
    for fp in _corpus_files(Path(path)):
        blob = fp.read_bytes()
        for ordinal, body in enumerate(_between(blob, b"<DOC>", b"</DOC>"), start=1):
            try:
                record = body.decode("utf-8")
            except UnicodeDecodeError:
                docno_m = _DOCNO_RE.search(body.decode("utf-8", errors="replace"))
                name = docno_m.group(1).strip() if docno_m else f"record #{ordinal}"
                raise CorpusError(f"{fp}: undecodable text in document {name}") from None
            docno_m = _DOCNO_RE.search(record)
            if docno_m is None:
                raise CorpusError(f"{fp}: record #{ordinal} has no DOCNO")
            doc_id = docno_m.group(1).strip()
            if not _one_field(doc_id):
                raise CorpusError(f"{fp}: record #{ordinal} has an empty DOCNO or "
                                  f"whitespace inside it: {doc_id!r}")
            lowered = body.lower()
            raw = b" ".join(piece for open_tag, close_tag in bounds
                            for piece in _between(body, open_tag, close_tag, lowered))
            if b"<" in raw:
                raw = _TAG_RE.sub(b" ", raw)
            yield Document(doc_id, tuple(tokenize(raw.decode("utf-8"), stopwords)))


def read_topics(
    path: str | Path, stopwords: frozenset[str] = frozenset()
) -> list[Query]:
    """Parse TREC topics; the title field is the query, num the query_id.

    Topics whose title tokenizes to nothing are skipped with a warning
    (queries must have at least one term).
    """
    blob = Path(path).read_bytes()
    queries: list[Query] = []
    seen: set[str] = set()
    for ordinal, body in enumerate(_between(blob, b"<top>", b"</top>"), start=1):
        try:
            record = body.decode("utf-8")
        except UnicodeDecodeError:
            raise CorpusError(f"{path}: undecodable text in topic record #{ordinal}") from None
        num_m = _NUM_RE.search(record)
        if num_m is None:
            raise CorpusError(f"{path}: topic record #{ordinal} has no num field")
        qid = num_m.group(1).strip()
        title_m = _TITLE_RE.search(record)
        terms = tuple(tokenize(title_m.group(1) if title_m else "", stopwords))
        if not terms:
            log.warning("skipping topic %s: empty title after tokenization", qid)
            continue
        if qid in seen:
            raise CorpusError(f"{path}: duplicate topic number {qid}")
        seen.add(qid)
        queries.append(Query(qid, terms))
    if not queries:
        raise CorpusError(f"{path}: no usable topics found")
    return queries


def read_stoplist(path: str | Path) -> frozenset[str]:
    """One term per line, tokenized as text is; blank lines and '#'
    comments ignored. An entry that is not exactly one token could never
    match one, so it is a ``CorpusError`` naming its line."""
    words = set()
    for lineno, line in numbered_lines(path):
        entry = line.split("#", 1)[0].strip()
        tokens = tokenize(entry)
        if entry and len(tokens) != 1:
            raise CorpusError(f"{path}:{lineno}: stoplist entry {entry!r} is "
                              f"{len(tokens)} tokens, expected one")
        words.update(tokens)
    return frozenset(words)
