"""Okapi BM25 sparse retrieval: tokenizer, inverted index, top-k search, persistence."""
from __future__ import annotations

import heapq
import math
import re
import struct
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable

MAGIC = b"ITKIDX1"
VERSION = 2

# Maximal runs of alphanumeric characters (unicode-aware, underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# The file is little-endian with u32 refs/lengths, u64 offsets and f64 impacts.
assert [array(t).itemsize for t in "IQd"] == [4, 8, 8], "array typecodes I/Q/d must be 4/8/8 bytes"
_SWAP = sys.byteorder == "big"


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

    terms maps each term to the [start, end) slice of refs/impacts holding its
    postings, in array order; refs are sorted within a slice and index into
    chunk_ids / chunk_texts / doc_len. impacts[i] is the BM25 weight of that
    term in chunk refs[i], precomputed because it does not depend on the query.
    """

    terms: dict[str, tuple[int, int]]
    refs: array
    impacts: array
    doc_len: list[int]
    avg_doc_len: float
    n_docs: int
    chunk_ids: list[str]
    chunk_texts: list[str]
    params: Bm25Params
    stopwords: frozenset[str] = frozenset()
    _by_id: dict[str, int] | None = field(default=None, repr=False, compare=False)

    def ref_of(self, chunk_id: str) -> int:
        if self._by_id is None:
            self._by_id = {cid: i for i, cid in enumerate(self.chunk_ids)}
        return self._by_id[chunk_id]

    def text_of(self, chunk_id: str) -> str:
        return self.chunk_texts[self.ref_of(chunk_id)]

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
    chunk_texts: list[str] = []
    seen: set[str] = set()

    for chunk in chunks:
        if chunk.chunk_id in seen:
            raise ValueError(f"duplicate chunk_id {chunk.chunk_id!r}")
        seen.add(chunk.chunk_id)
        ref = len(chunk_ids)
        chunk_ids.append(chunk.chunk_id)
        chunk_texts.append(chunk.text)
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

    n_docs = len(chunk_ids)
    avg_doc_len = sum(doc_len) / len(doc_len)
    k1 = params.k1
    k1_plus_1 = k1 + 1.0
    k1_norm = [k1 * _norm(n, avg_doc_len, params.b) for n in doc_len]
    terms: dict[str, tuple[int, int]] = {}
    refs, impacts = array("I"), array("d")
    # Sorted terms make the layout canonical: identical indexes serialize identically.
    for term in sorted(postings):
        term_refs, term_tfs = postings[term]
        w = _idf(len(term_refs), n_docs)
        terms[term] = (len(refs), len(refs) + len(term_refs))
        refs.extend(term_refs)
        # The operations of per-query scoring, w * tf * (k1 + 1.0) / (tf + k1 * norm),
        # in the same order, so sums of impacts equal its scores bit for bit.
        impacts.extend([w * tf * k1_plus_1 / (tf + k1_norm[ref])
                        for ref, tf in zip(term_refs, term_tfs)])
    return Index(
        terms=terms,
        refs=refs,
        impacts=impacts,
        doc_len=doc_len,
        avg_doc_len=avg_doc_len,
        n_docs=n_docs,
        chunk_ids=chunk_ids,
        chunk_texts=chunk_texts,
        params=params,
        stopwords=stopwords,
    )


def _idf(df: int, n_docs: int) -> float:
    return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def idf(term: str, index: Index) -> float:
    """Smoothed inverse document frequency; strictly positive for any df in [0, N]."""
    start, end = index.terms.get(term, (0, 0))
    return _idf(end - start, index.n_docs)


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
    acc = [0.0] * n
    for tok in tokens:
        span = index.terms.get(tok)
        if span is None:
            continue
        start, end = span
        for ref, impact in zip(index.refs[start:end], index.impacts[start:end]):
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
# A string table of n strings is u64 x (n + 1) byte offsets into a utf-8
# blob, followed by the blob. Terms and stopwords are written sorted.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<ddIIIQQQQQ")


def _le(arr: array) -> bytes:
    if _SWAP:
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _string_table(strings: Iterable[str]) -> tuple[bytes, bytes]:
    encoded = [s.encode("utf-8") for s in strings]
    offsets = array("Q", accumulate((len(e) for e in encoded), initial=0))
    return _le(offsets), b"".join(encoded)


def save_index(index: Index, path) -> None:
    stop_offsets, stop_blob = _string_table(sorted(index.stopwords))
    id_offsets, id_blob = _string_table(index.chunk_ids)
    text_offsets, text_blob = _string_table(index.chunk_texts)
    term_offsets, term_blob = _string_table(index.terms)
    postings_offsets = array("Q", [start for start, _ in index.terms.values()])
    postings_offsets.append(len(index.refs))
    header = _HEADER.pack(
        index.params.k1, index.params.b,
        index.n_docs, len(index.terms), len(index.stopwords), len(index.refs),
        len(stop_blob), len(id_blob), len(text_blob), len(term_blob),
    )
    with open(path, "wb") as f:
        for part in (
            MAGIC, bytes([VERSION]), header,
            stop_offsets, stop_blob, id_offsets, id_blob, text_offsets, text_blob,
            _le(array("I", index.doc_len)),
            term_offsets, term_blob, _le(postings_offsets),
            _le(index.refs), _le(index.impacts),
        ):
            f.write(part)


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

    def take_array(self, typecode: str, count: int) -> array:
        arr = array(typecode)
        arr.frombytes(self.take(count * arr.itemsize))
        if _SWAP:
            arr.byteswap()
        return arr

    def take_offsets(self, count: int, end: int, what: str) -> array:
        """count + 1 offsets that start at 0, never decrease and end at `end`."""
        offsets = self.take_array("Q", count + 1)
        if offsets[0] != 0 or offsets[-1] != end or any(map(int.__gt__, offsets, offsets[1:])):
            raise IndexFormatError(f"corrupt index file: bad {what} offsets")
        return offsets

    def take_strings(self, count: int, size: int, what: str) -> list[str]:
        offsets = self.take_offsets(count, size, what)
        blob = self.take(size)
        try:
            return [str(blob[a:b], "utf-8") for a, b in zip(offsets, offsets[1:])]
        except UnicodeDecodeError:
            raise IndexFormatError(f"corrupt index file: {what} are not valid UTF-8") from None


def load_index(path) -> Index:
    """Load and validate an index file; any defect raises IndexFormatError."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) <= len(MAGIC) or data[: len(MAGIC)] != MAGIC:
        raise IndexFormatError("bad magic: not a recognized index file")
    version = data[len(MAGIC)]
    if version != VERSION:
        raise IndexFormatError(
            f"unsupported index version {version} (this keyrag reads version {VERSION});"
            " rebuild the index with `keyrag index`"
        )
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
    chunk_texts = r.take_strings(n_docs, text_size, "chunk text")
    doc_len = r.take_array("I", n_docs).tolist()
    term_list = r.take_strings(n_terms, term_size, "term")
    offsets = r.take_offsets(n_terms, n_postings, "postings")
    refs = r.take_array("I", n_postings)
    impacts = r.take_array("d", n_postings)
    if r.pos != len(data):
        raise IndexFormatError("trailing data after index payload")
    if n_postings and max(refs) >= n_docs:
        raise IndexFormatError("corrupt index file: posting refers past the last chunk")
    terms = dict(zip(term_list, zip(offsets, offsets[1:])))
    if len(terms) != n_terms:
        raise IndexFormatError("corrupt index file: duplicate terms")
    return Index(
        terms=terms,
        refs=refs,
        impacts=impacts,
        doc_len=doc_len,
        avg_doc_len=sum(doc_len) / n_docs,
        n_docs=n_docs,
        chunk_ids=chunk_ids,
        chunk_texts=chunk_texts,
        params=params,
        stopwords=stopwords,
    )
