"""Okapi BM25 sparse retrieval: tokenizer, inverted index, top-k search, persistence."""
from __future__ import annotations

import hashlib
import heapq
import math
import os
import re
import struct
import sys
import threading
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, pairwise
from typing import BinaryIO, Iterable, Sequence

MAGIC = b"ITKIDX1"
VERSION = 3

# Maximal runs of alphanumeric characters (unicode-aware, underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# The file is little-endian with u32 refs/lengths, u64 offsets and f64 impacts.
assert [array(t).itemsize for t in "IQd"] == [4, 8, 8], "array typecodes I/Q/d must be 4/8/8 bytes"
_SWAP = sys.byteorder == "big"

# Items per slice of a column check in load_index: one C call over 1.1M
# posting refs holds the GIL for about 50 ms, one over a slice about 3 ms.
_SLICE = 1 << 16


class IndexFormatError(ValueError):
    """Index file is corrupt, truncated, or has a bad magic/version header."""


def tokenize(text: str, stopwords: frozenset[str] = frozenset()) -> list[str]:
    """Lowercased alphanumeric tokens, split on everything else, stopwords dropped."""
    tokens = [m.group().lower() for m in _TOKEN_RE.finditer(text)]
    if stopwords:
        return [t for t in tokens if t not in stopwords]
    return tokens


def token_spans(text: str) -> list[tuple[int, int]]:
    """Character [start, end) spans of each token, in original-text coordinates."""
    return [m.span() for m in _TOKEN_RE.finditer(text)]


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.5
    b: float = 0.75

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError(f"k1 must be nonnegative, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


@dataclass(frozen=True)
class ScoredDoc:
    chunk_id: str
    score: float


@dataclass
class Index:
    """Columnar inverted index; immutable after build/load, safe for concurrent readers.

    terms maps each term to its ordinal t, in sorted order; the term's postings
    are refs/impacts[offsets[t]:offsets[t + 1]]. refs are sorted within a term
    and index into chunk_ids / doc_len. impacts[i] is the BM25 weight of that
    term in chunk refs[i], precomputed because it does not depend on the query.
    Chunk r's text is texts[text_offsets[r]:text_offsets[r + 1]].

    A loaded index's offsets, refs, impacts and text_offsets are memoryviews
    over the bytes read from the file (byteswapped arrays on a big-endian
    host), and sha256 is the hex SHA-256 of those bytes; a built one has
    arrays and no sha256.
    """

    terms: dict[str, int]
    offsets: Sequence[int]
    refs: Sequence[int]
    impacts: Sequence[float]
    doc_len: list[int]
    avg_doc_len: float
    n_docs: int
    chunk_ids: list[str]
    texts: str
    text_offsets: Sequence[int]
    params: Bm25Params
    stopwords: frozenset[str] = frozenset()
    sha256: str | None = field(default=None, compare=False)
    _by_id: dict[str, int] | None = field(default=None, repr=False, compare=False)

    def ref_of(self, chunk_id: str) -> int:
        if self._by_id is None:
            self._by_id = {cid: i for i, cid in enumerate(self.chunk_ids)}
        return self._by_id[chunk_id]

    def text_of(self, chunk_id: str) -> str:
        ref = self.ref_of(chunk_id)
        return self.texts[self.text_offsets[ref]:self.text_offsets[ref + 1]]

    @property
    def vocab_size(self) -> int:
        return len(self.terms)


def build_index(
    chunks: Iterable,
    params: Bm25Params | None = None,
    stopwords: frozenset[str] = frozenset(),
) -> Index:
    """Build an inverted index from chunks (anything with .chunk_id and .text)."""
    params = params or Bm25Params()
    stopwords = frozenset(stopwords)
    postings: dict[str, tuple[list[int], list[int]]] = {}  # term -> (refs, tfs)
    doc_len: list[int] = []
    chunk_ids: list[str] = []
    # The texts are gathered as UTF-8 and decoded once at the end: a list of
    # them and its join would hold every text twice at the build's peak.
    text_blob = bytearray()
    text_offsets = array("Q", [0])
    seen: set[str] = set()

    for chunk in chunks:
        if chunk.chunk_id in seen:
            raise ValueError(f"duplicate chunk_id {chunk.chunk_id!r}")
        seen.add(chunk.chunk_id)
        ref = len(chunk_ids)
        chunk_ids.append(chunk.chunk_id)
        text_blob += chunk.text.encode("utf-8")
        text_offsets.append(text_offsets[-1] + len(chunk.text))
        tokens = tokenize(chunk.text, stopwords)
        doc_len.append(len(tokens))
        for term, tf in Counter(tokens).items():
            plist = postings.get(term)
            if plist is None:
                plist = postings[term] = ([], [])
            plist[0].append(ref)
            plist[1].append(tf)

    if not chunk_ids:
        raise ValueError("empty corpus")
    texts = text_blob.decode("utf-8")
    del text_blob

    n_docs = len(chunk_ids)
    avg_doc_len = sum(doc_len) / len(doc_len)
    k1 = params.k1
    k1_plus_1 = k1 + 1.0
    k1_norm = [k1 * _norm(n, avg_doc_len, params.b) for n in doc_len]
    terms: dict[str, int] = {}
    offsets, refs, impacts = array("Q", [0]), array("I"), array("d")
    # Sorted terms make the layout canonical: identical indexes serialize identically.
    for term in sorted(postings):
        term_refs, term_tfs = postings[term]
        w = _idf(len(term_refs), n_docs)
        terms[term] = len(terms)
        refs.extend(term_refs)
        offsets.append(len(refs))
        # The operations of per-query scoring, w * tf * (k1 + 1.0) / (tf + k1 * norm),
        # in the same order, so sums of impacts equal its scores bit for bit.
        impacts.extend([w * tf * k1_plus_1 / (tf + k1_norm[ref])
                        for ref, tf in zip(term_refs, term_tfs)])
    return Index(
        terms=terms,
        offsets=offsets,
        refs=refs,
        impacts=impacts,
        doc_len=doc_len,
        avg_doc_len=avg_doc_len,
        n_docs=n_docs,
        chunk_ids=chunk_ids,
        texts=texts,
        text_offsets=text_offsets,
        params=params,
        stopwords=stopwords,
    )


def _idf(df: int, n_docs: int) -> float:
    """Smoothed inverse document frequency; strictly positive for any df in [0, N]."""
    return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def _norm(doc_len: int, avg_doc_len: float, b: float) -> float:
    rel_len = doc_len / avg_doc_len if avg_doc_len > 0 else 0.0
    return 1.0 - b + b * rel_len


def retrieve_top_k(index: Index, query: str, k: int) -> list[ScoredDoc]:
    """Exact top-k by BM25 score; zero-scoring chunks are never returned.

    Query-token multiplicity counts. Ties break by ascending chunk_ref, so
    results are deterministic for a given index.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tokens = tokenize(query, index.stopwords)
    if not tokens:
        return []
    n = index.n_docs
    terms, offsets, refs, impacts = index.terms, index.offsets, index.refs, index.impacts
    acc = [0.0] * n
    for tok in tokens:
        t = terms.get(tok)
        if t is None:
            continue
        start, end = offsets[t], offsets[t + 1]
        for ref, impact in zip(refs[start:end], impacts[start:end]):
            acc[ref] += impact
    # Negated refs make the larger key the smaller ref on equal scores.
    top = heapq.nlargest(k, zip(acc, range(0, -n, -1)))
    return [ScoredDoc(index.chunk_ids[-neg_ref], s) for s, neg_ref in top if s > 0.0]


# ---------------------------------------------------------------------------
# Persistence: single-file binary layout, little-endian.
#
#   MAGIC (7 bytes) | version (u8)
#   header: k1, b (f64); n_docs, n_terms, n_stopwords (u32); n_postings (u64);
#           byte sizes of the stopword, chunk id, chunk text and term blobs (u64)
#   stopwords, chunk ids, chunk texts: each a string table
#   doc_len: u32 x n_docs
#   terms: a string table
#   term offsets: u64 x (n_terms + 1); term t owns postings [offsets[t], offsets[t+1])
#   refs: u32 x n_postings
#   impacts: f64 x n_postings
#
# A string table of n strings is u64 x (n + 1) character offsets into the
# text of a utf-8 blob, followed by the blob: one decode gives the whole
# table, and each string is a slice of it. Terms and stopwords are written sorted.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<ddIIIQQQQQ")


def _le(typecode: str, values: Iterable) -> bytes:
    """Values of one array typecode as little-endian bytes; values are not modified."""
    if not _SWAP and isinstance(values, (array, memoryview)):
        return bytes(values)
    arr = array(typecode, values)
    if _SWAP:
        arr.byteswap()
    return arr.tobytes()


def _string_table(strings: Iterable[str]) -> tuple[bytes, bytes]:
    strings = list(strings)
    return _le("Q", accumulate(map(len, strings), initial=0)), "".join(strings).encode("utf-8")


def save_index(index: Index, path) -> None:
    """Write the index to path atomically.

    The bytes go to a temporary file beside path, which then replaces it, so
    a crash, an interrupt or a full disk leaves any earlier file at path as it was.
    """
    stop_offsets, stop_blob = _string_table(sorted(index.stopwords))
    id_offsets, id_blob = _string_table(index.chunk_ids)
    text_blob = index.texts.encode("utf-8")
    term_offsets, term_blob = _string_table(index.terms)
    header = _HEADER.pack(
        index.params.k1, index.params.b,
        index.n_docs, len(index.terms), len(index.stopwords), len(index.refs),
        len(stop_blob), len(id_blob), len(text_blob), len(term_blob),
    )
    parts = (
        MAGIC, bytes([VERSION]), header,
        stop_offsets, stop_blob, id_offsets, id_blob,
        _le("Q", index.text_offsets), text_blob,
        _le("I", index.doc_len),
        term_offsets, term_blob, _le("Q", index.offsets),
        _le("I", index.refs), _le("d", index.impacts),
    )
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            f.writelines(parts)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class _Reader:
    """Cursor over the bytes of an index file; every read is bounds-checked."""

    def __init__(self, data: bytes):
        self.view = memoryview(data)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if n > len(self.view) - self.pos:
            raise IndexFormatError("truncated index file")
        self.pos += n
        return self.view[self.pos - n:self.pos]

    def take_column(self, typecode: str, count: int) -> Sequence:
        """count items: a view over the file's bytes, or a byteswapped copy if _SWAP."""
        raw = self.take(count * struct.calcsize(typecode))
        if not _SWAP:
            return raw.cast(typecode)
        arr = array(typecode)
        arr.frombytes(raw)
        arr.byteswap()
        return arr

    def take_table(self, count: int, size: int, what: str) -> tuple[Sequence[int], str]:
        """A string table of count strings: its offsets and its decoded text."""
        offsets = self.take_column("Q", count + 1)
        try:
            text = str(self.take(size), "utf-8")
        except UnicodeDecodeError:
            raise IndexFormatError(f"corrupt index file: {what} are not valid UTF-8") from None
        return _checked_offsets(offsets, len(text), what), text

    def take_strings(self, count: int, size: int, what: str) -> list[str]:
        offsets, text = self.take_table(count, size, what)
        return [text[a:b] for a, b in pairwise(offsets)]


def _checked_offsets(offsets: Sequence[int], end: int, what: str) -> Sequence[int]:
    """Offsets that start at 0, never decrease and end at `end`."""
    if offsets[0] != 0 or offsets[-1] != end or any(map(int.__gt__, offsets, offsets[1:])):
        raise IndexFormatError(f"corrupt index file: bad {what} offsets")
    return offsets


def open_index(path) -> BinaryIO:
    """Open an index file for load_index once its magic and version are checked.

    A file that is not an index, or is one of another version, is refused
    here, from its first bytes, before a caller starts work that needs the
    index. The file is returned at its start.
    """
    f = open(path, "rb")
    try:
        _check_head(f.read(len(MAGIC) + 1))
        f.seek(0)
    except BaseException:
        f.close()
        raise
    return f


def load_index(source) -> Index:
    """Load and validate an index; any defect raises IndexFormatError.

    source is a path, or a file from open_index, read to its end and left open.
    The file is read once. A helper thread hashes those bytes while they are
    checked (hashlib releases the GIL), and the digest is Index.sha256.

    The load may run beside threads that wait for its result only when they
    need the index: `keyrag run` starts its questions, then loads the index
    while their first keyword calls are in flight, and pipeline._run waits
    for it at its first retrieval. So the longest check runs over slices of
    the column, between which those threads can take the GIL.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "rb") as f:
            data = f.read()
    else:
        data = source.read()
    digest = hashlib.sha256()
    hasher = threading.Thread(target=digest.update, args=(data,))
    hasher.start()
    try:
        index = _parse(data)
    finally:
        hasher.join()
    index.sha256 = digest.hexdigest()
    return index


def _check_head(data: bytes) -> None:
    """The magic and the version, the first len(MAGIC) + 1 bytes of an index file."""
    if len(data) <= len(MAGIC) or data[: len(MAGIC)] != MAGIC:
        raise IndexFormatError("bad magic: not a recognized index file")
    version = data[len(MAGIC)]
    if version != VERSION:
        raise IndexFormatError(
            f"unsupported index version {version} (this keyrag reads version {VERSION});"
            " rebuild the index with `keyrag index`"
        )


def _parse(data: bytes) -> Index:
    _check_head(data)
    r = _Reader(data)
    r.take(len(MAGIC) + 1)
    (k1, b, n_docs, n_terms, n_stopwords, n_postings,
     stop_size, id_size, text_size, term_size) = _HEADER.unpack(r.take(_HEADER.size))
    if n_docs == 0:
        raise IndexFormatError("index contains no chunks")
    try:
        params = Bm25Params(k1=k1, b=b)
    except ValueError as exc:
        raise IndexFormatError(f"corrupt index file: {exc}") from None
    stopwords = frozenset(r.take_strings(n_stopwords, stop_size, "stopword"))
    chunk_ids = r.take_strings(n_docs, id_size, "chunk id")
    text_offsets, texts = r.take_table(n_docs, text_size, "chunk text")
    doc_len = r.take_column("I", n_docs).tolist()
    term_list = r.take_strings(n_terms, term_size, "term")
    offsets = _checked_offsets(r.take_column("Q", n_terms + 1), n_postings, "postings")
    refs = r.take_column("I", n_postings)
    impacts = r.take_column("d", n_postings)
    if r.pos != len(data):
        raise IndexFormatError("trailing data after index payload")
    if any(max(refs[i:i + _SLICE]) >= n_docs for i in range(0, n_postings, _SLICE)):
        raise IndexFormatError("corrupt index file: posting refers past the last chunk")
    terms = dict(zip(term_list, range(n_terms)))
    if len(terms) != n_terms:
        raise IndexFormatError("corrupt index file: duplicate terms")
    return Index(
        terms=terms,
        offsets=offsets,
        refs=refs,
        impacts=impacts,
        doc_len=doc_len,
        avg_doc_len=sum(doc_len) / n_docs,
        n_docs=n_docs,
        chunk_ids=chunk_ids,
        texts=texts,
        text_offsets=text_offsets,
        params=params,
        stopwords=stopwords,
    )
