from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import struct
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from keyrag import bm25
from keyrag.bm25 import (
    Bm25Params,
    IndexFormatError,
    build_index,
    idf,
    load_index,
    retrieve_top_k,
    save_index,
    tokenize,
)

from keyrag.corpus import Document, chunk_corpus

from .helpers import (
    chunks_from_texts,
    index_from_texts,
    keyrag_env,
    oracle_top_k,
    random_corpus,
    random_query,
)


# --- tokenizer ------------------------------------------------------------------


def test_tokenize_splits_on_non_alphanumerics():
    assert tokenize("Apollo 11, Lunar-Module!") == ["apollo", "11", "lunar", "module"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_stopwords():
    assert tokenize("the Moon", stopwords=frozenset({"the"})) == ["moon"]


def test_tokenize_roundtrip_single_token():
    for tok in tokenize("Some Mixed-Case text 42"):
        assert tokenize(tok) == [tok]


# --- index build ----------------------------------------------------------------


def test_build_avg_doc_len():
    idx = index_from_texts(["a b c d", "a b c d e f", "a b"])
    assert idx.avg_doc_len == 4.0
    assert idx.doc_len == [4, 6, 2]


def _postings(idx, term):
    t = idx.terms[term]
    start, end = idx.offsets[t], idx.offsets[t + 1]
    return list(idx.refs[start:end]), list(idx.impacts[start:end])


def test_build_term_frequencies():
    # One chunk, so its length is the average and norm is 1: impact = idf*tf*(k1+1)/(tf+k1).
    idx = index_from_texts(["moon moon base"])
    w = math.log((0.5 / 1.5) + 1)
    assert _postings(idx, "moon") == ([0], [w * 2 * 2.5 / (2 + 1.5)])
    assert _postings(idx, "base") == ([0], [w * 1 * 2.5 / (1 + 1.5)])


def test_build_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty corpus"):
        build_index([])


def test_build_duplicate_chunk_id_rejected():
    chunks = chunks_from_texts(["a", "b"])
    chunks[1] = dataclasses.replace(chunks[1], chunk_id=chunks[0].chunk_id)
    with pytest.raises(ValueError, match="duplicate"):
        build_index(chunks)


def test_postings_sorted_by_chunk_ref():
    idx = index_from_texts(["x y", "y z", "x z", "x y z"])
    assert list(idx.terms) == sorted(idx.terms)
    assert list(idx.terms.values()) == list(range(len(idx.terms)))
    assert len(idx.offsets) == len(idx.terms) + 1
    assert idx.offsets[0] == 0 and list(idx.offsets) == sorted(idx.offsets)
    assert idx.offsets[idx.terms["z"] + 1] == len(idx.refs) == len(idx.impacts)
    for start, end in zip(idx.offsets, idx.offsets[1:]):
        refs = list(idx.refs[start:end])
        assert refs == sorted(set(refs))
        assert all(impact > 0 for impact in idx.impacts[start:end])


# --- idf ------------------------------------------------------------------------


def test_idf_three_docs_df_one():
    idx = index_from_texts(["moon", "sun", "star"])
    assert idf("moon", idx) == pytest.approx(math.log((2.5 / 1.5) + 1), abs=1e-12)
    assert idf("moon", idx) == pytest.approx(0.9808, abs=1e-4)


def test_idf_term_in_every_doc():
    idx = index_from_texts(["moon a", "moon b", "moon c"])
    assert idf("moon", idx) == pytest.approx(math.log((0.5 / 3.5) + 1), abs=1e-12)
    assert idf("moon", idx) == pytest.approx(0.1335, abs=1e-4)


def test_idf_positive_for_all_df():
    for n in (1, 2, 5, 50):
        texts = [f"shared unique{i}" for i in range(n)]
        idx = index_from_texts(texts)
        assert idf("shared", idx) > 0  # df = N
        assert idf("unique0", idx) > 0  # df = 1
        assert idf("absent", idx) > 0  # df = 0


# --- score ----------------------------------------------------------------------


def _score(idx, query: str, chunk_id: str = "c0") -> float:
    return {r.chunk_id: r.score for r in retrieve_top_k(idx, query, idx.n_docs)}.get(chunk_id, 0.0)


def test_score_hand_computed():
    idx = index_from_texts(["moon moon base"])
    expected = math.log((0.5 / 1.5) + 1) * (2 * 2.5) / (2 + 1.5)
    got = _score(idx, "moon")
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.4110, abs=1e-4)
    assert got == pytest.approx(oracle_top_k(["moon moon base"], ["c0"], "moon", 1)[0][1], rel=1e-12)


def test_score_absent_term_is_zero():
    idx = index_from_texts(["moon base alpha", "zebra"])
    assert _score(idx, "zebra") == 0.0
    assert [r.chunk_id for r in retrieve_top_k(idx, "zebra", 2)] == ["c1"]


def test_score_query_multiplicity_counts():
    idx = index_from_texts(["moon base", "sun base"])
    single = _score(idx, "moon")
    double = _score(idx, "moon moon")
    assert double == pytest.approx(2 * single, rel=1e-12)


def test_score_b_zero_ignores_length():
    params = Bm25Params(k1=1.5, b=0.0)
    short = index_from_texts(["moon base", "filler text"], params=params)
    long = index_from_texts(["moon base extra words here now", "filler text"], params=params)
    assert _score(short, "moon") == pytest.approx(_score(long, "moon"), rel=1e-12)


def test_score_monotone_in_tf():
    # Same corpus shape, rising tf for "moon" in doc 0 while its length stays fixed.
    previous = None
    for tf in range(1, 6):
        text = " ".join(["moon"] * tf + ["pad"] * (6 - tf))
        idx = index_from_texts([text, "other doc entirely"])
        current = _score(idx, "moon")
        if previous is not None:
            assert current >= previous
        previous = current


# --- retrieval -------------------------------------------------------------------


def test_retrieve_prefers_matching_doc():
    idx = index_from_texts(["apollo eagle", "challenger shuttle"])
    result = retrieve_top_k(idx, "apollo 11 lunar module", 1)
    assert [r.chunk_id for r in result] == ["c0"]


def test_retrieve_k_larger_than_corpus_no_padding():
    idx = index_from_texts(["apollo eagle", "challenger shuttle"])
    result = retrieve_top_k(idx, "apollo", 10)
    assert [r.chunk_id for r in result] == ["c0"]


def test_retrieve_no_hits_empty():
    idx = index_from_texts(["apollo eagle", "challenger shuttle"])
    assert retrieve_top_k(idx, "zzz qqq", 3) == []


def test_retrieve_empty_query_empty_result():
    idx = index_from_texts(["apollo eagle"])
    assert retrieve_top_k(idx, "...", 3) == []


def test_retrieve_requires_positive_k():
    idx = index_from_texts(["apollo eagle"])
    with pytest.raises(ValueError):
        retrieve_top_k(idx, "apollo", 0)


def test_retrieve_tie_break_by_insertion_order():
    idx = index_from_texts(["same text", "same text", "same text"])
    result = retrieve_top_k(idx, "same", 3)
    assert [r.chunk_id for r in result] == ["c0", "c1", "c2"]
    assert result[0].score == result[1].score == result[2].score


def test_retrieve_df_zero_term_changes_nothing():
    idx = index_from_texts(["apollo eagle lands", "challenger shuttle flies"])
    base = retrieve_top_k(idx, "apollo eagle", 2)
    extended = retrieve_top_k(idx, "apollo eagle qqqq", 2)
    assert [(r.chunk_id, r.score) for r in base] == [(r.chunk_id, r.score) for r in extended]


def test_retrieve_deterministic_across_runs():
    rng = random.Random(3)
    texts, vocab = random_corpus(rng, max_chunks=50, max_vocab=30)
    idx = index_from_texts(texts)
    query = random_query(rng, vocab)
    first = retrieve_top_k(idx, query, 10)
    second = retrieve_top_k(idx, query, 10)
    assert first == second


def test_retrieve_matches_oracle_small_sweep():
    rng = random.Random(11)
    for _ in range(25):
        texts, vocab = random_corpus(rng, max_chunks=60, max_vocab=40)
        idx = index_from_texts(texts)
        for _ in range(3):
            query = random_query(rng, vocab)
            k = rng.randint(1, 8)
            got = retrieve_top_k(idx, query, k)
            want = oracle_top_k(texts, idx.chunk_ids, query, k)
            assert [g.chunk_id for g in got] == [w[0] for w in want]
            for g, (_, s) in zip(got, want):
                assert g.score == pytest.approx(s, rel=1e-9)


def test_retrieve_respects_stopwords():
    idx = index_from_texts(["the the the", "moon base"], stopwords=frozenset({"the"}))
    assert retrieve_top_k(idx, "the", 5) == []
    assert [r.chunk_id for r in retrieve_top_k(idx, "the moon", 5)] == ["c1"]


# --- persistence ------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    idx = index_from_texts(["moon moon base", "sun and stars", "base camp"],
                           params=Bm25Params(k1=1.2, b=0.6),
                           stopwords=frozenset({"and"}))
    path = tmp_path / "test.idx"
    save_index(idx, path)
    loaded = load_index(path)
    assert loaded == idx


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"XXXXXX" + b"\x00" * 40)
    with pytest.raises(IndexFormatError, match="magic"):
        load_index(path)


def test_load_unsupported_version(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"ITKIDX1" + bytes([9]) + b"\x00" * 40)
    with pytest.raises(IndexFormatError, match="version"):
        load_index(path)


def test_load_v1_asks_for_rebuild(tmp_path):
    # Version 1 (tuple postings) and version 2 (byte offsets in string tables).
    for version in (1, 2):
        path = tmp_path / f"v{version}.idx"
        path.write_bytes(b"ITKIDX1" + bytes([version]) + b"\x00" * 40)
        with pytest.raises(IndexFormatError, match="rebuild the index with `keyrag index`"):
            load_index(path)


def test_load_truncated_file(tmp_path):
    idx = index_from_texts(["moon base", "sun star"])
    path = tmp_path / "trunc.idx"
    save_index(idx, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(IndexFormatError, match="truncated"):
        load_index(path)


def test_load_trailing_garbage(tmp_path):
    idx = index_from_texts(["moon base"])
    path = tmp_path / "trail.idx"
    save_index(idx, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(IndexFormatError, match="trailing"):
        load_index(path)


def test_text_lookup_after_load(tmp_path):
    idx = index_from_texts(["moon base", "sun star"])
    path = tmp_path / "texts.idx"
    save_index(idx, path)
    loaded = load_index(path)
    assert loaded.text_of("c1") == "sun star"


def test_load_gives_the_sha256_of_the_file(tmp_path):
    path = tmp_path / "sha.idx"
    save_index(index_from_texts(["moon base", "sun star"]), path)
    assert load_index(path).sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert index_from_texts(["moon base"]).sha256 is None


def test_loaded_columns_are_views_over_one_buffer(tmp_path):
    path = tmp_path / "views.idx"
    save_index(index_from_texts(["moon base", "sun star"]), path)
    loaded = load_index(path)
    if sys.byteorder == "big":
        pytest.skip("big-endian hosts load byteswapped copies")
    columns = [loaded.offsets, loaded.refs, loaded.impacts, loaded.text_offsets]
    assert all(isinstance(c, memoryview) for c in columns)
    assert all(c.obj is columns[0].obj for c in columns)


def test_byteswapped_save_and_load_round_trip(tmp_path, monkeypatch):
    idx = index_from_texts(["moon moon base", "sun and stars", "base camp \u00e9t\u00e9"],
                           stopwords=frozenset({"and"}))
    native = tmp_path / "native.idx"
    save_index(idx, native)
    monkeypatch.setattr(bm25, "_SWAP", True)
    path = tmp_path / "swapped.idx"
    save_index(idx, path)
    assert path.read_bytes() != native.read_bytes()
    loaded = load_index(path)
    assert loaded == idx
    assert not isinstance(loaded.refs, memoryview)
    assert retrieve_top_k(loaded, "moon base camp", 3) == retrieve_top_k(idx, "moon base camp", 3)
    assert [loaded.text_of(c) for c in idx.chunk_ids] == [idx.text_of(c) for c in idx.chunk_ids]


_ALPHABET = st.one_of(st.sampled_from("aZ9 -\n\u00e9\u00df\u4e2d\u0416\U0001f680\U00010348"),
                      st.characters(blacklist_categories=("Cs",)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    docs=st.lists(
        st.tuples(st.text(_ALPHABET, min_size=1, max_size=8), st.text(_ALPHABET, max_size=8),
                  st.text(_ALPHABET, min_size=1, max_size=60)),
        min_size=1, max_size=6, unique_by=lambda doc: doc[0]),
    stopwords=st.frozensets(st.text(_ALPHABET, min_size=1, max_size=4), max_size=3),
)
def test_save_load_round_trip_arbitrary_unicode(tmp_path, docs, stopwords):
    chunks = list(chunk_corpus((Document(*doc) for doc in docs), chunk_size=3, overlap=1))
    assume(chunks)
    idx = build_index(chunks, stopwords=stopwords)
    path = tmp_path / "unicode.idx"
    save_index(idx, path)
    loaded = load_index(path)
    assert loaded == idx
    for chunk in chunks:
        assert loaded.text_of(chunk.chunk_id) == idx.text_of(chunk.chunk_id) == chunk.text
        assert retrieve_top_k(loaded, chunk.text, 4) == retrieve_top_k(idx, chunk.text, 4)


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE")
def test_save_that_fails_halfway_leaves_the_old_file(tmp_path):
    path = tmp_path / "corpus.idx"
    save_index(index_from_texts(["moon base"]), path)
    old = path.read_bytes()
    # The child may write no more than the old file's size, so its write of a
    # larger index fails partway with EFBIG, as on a full disk.
    code = (
        "import resource, signal, sys, types\n"
        "from keyrag.bm25 import build_index, save_index\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_FSIZE)\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({len(old)}, hard))\n"
        "chunks = [types.SimpleNamespace(chunk_id=f'c{i}', text=f'w{i} moon base camp')"
        " for i in range(2000)]\n"
        "save_index(build_index(chunks), sys.argv[1])\n"
    )
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=keyrag_env(),
                          capture_output=True, text=True)
    assert done.returncode != 0
    assert "File too large" in done.stderr, done.stderr
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_save_load_exact_round_trip_random_corpora(tmp_path):
    rng = random.Random(7)
    path = tmp_path / "rt.idx"
    for _ in range(20):
        texts, vocab = random_corpus(rng, max_chunks=200, max_vocab=60)
        k1, b = rng.choice([1.5, 1.2, 0.0, 2.0]), rng.choice([0.75, 0.0, 1.0, 0.3])
        stopwords = frozenset(rng.sample(vocab, rng.randint(0, 3)))
        idx = index_from_texts(texts, params=Bm25Params(k1=k1, b=b), stopwords=stopwords)
        save_index(idx, path)
        loaded = load_index(path)
        assert loaded == idx
        for _ in range(5):
            query = random_query(rng, vocab)
            k = rng.randint(1, 10)
            got = retrieve_top_k(loaded, query, k)
            assert [(g.chunk_id, g.score) for g in got] == [
                (g.chunk_id, g.score) for g in retrieve_top_k(idx, query, k)]
            want = oracle_top_k(texts, idx.chunk_ids, query, k, k1=k1, b=b, stopwords=stopwords)
            assert [g.chunk_id for g in got] == [w[0] for w in want]
            for g, (_, s) in zip(got, want):
                assert g.score == pytest.approx(s, rel=1e-9)


# --- corrupt index files ------------------------------------------------------------


def _small_index_bytes(tmp_path) -> bytes:
    idx = index_from_texts(["moon moon base", "sun and stars", "base camp \u00e9t\u00e9"],
                           stopwords=frozenset({"and"}))
    path = tmp_path / "small.idx"
    save_index(idx, path)
    return path.read_bytes()


def _load_or_format_error(path) -> None:
    """A load either gives a well-formed index or raises IndexFormatError, nothing else."""
    try:
        loaded = load_index(path)
    except IndexFormatError:
        return
    # Term ordinals are 0..n-1, and their offsets tile refs/impacts in order,
    # with no posting lost and no span reversed; the text offsets tile the texts.
    assert list(loaded.terms.values()) == list(range(len(loaded.terms)))
    bounds = list(loaded.offsets)
    assert len(bounds) == len(loaded.terms) + 1 and bounds[0] == 0
    assert bounds == sorted(bounds) and bounds[-1] == len(loaded.refs) == len(loaded.impacts)
    text_bounds = list(loaded.text_offsets)
    assert len(text_bounds) == loaded.n_docs + 1 and text_bounds[0] == 0
    assert text_bounds == sorted(text_bounds) and text_bounds[-1] == len(loaded.texts)
    assert all(ref < loaded.n_docs for ref in loaded.refs)
    retrieve_top_k(loaded, "moon base sun camp stars", 3)


def test_load_every_truncation_is_a_format_error(tmp_path):
    data = _small_index_bytes(tmp_path)
    path = tmp_path / "cut.idx"
    for n in range(len(data)):
        path.write_bytes(data[:n])
        with pytest.raises(IndexFormatError):
            load_index(path)


def test_load_refuses_a_posting_past_the_last_chunk_in_any_slice_of_refs(tmp_path):
    # Three chunks share 44,000 terms: 132,000 postings, more than two slices of refs.
    path = tmp_path / "wide.idx"
    save_index(index_from_texts([" ".join(f"t{i}" for i in range(44_000))] * 3), path)
    data = path.read_bytes()
    n_postings = len(load_index(path).refs)
    assert n_postings > 2 * bm25._SLICE
    refs_at = len(data) - 12 * n_postings  # refs (u32) and then impacts (f64) end the file
    for i in (0, bm25._SLICE - 1, bm25._SLICE, 2 * bm25._SLICE, n_postings - 1):
        bad = bytearray(data)
        bad[refs_at + 4 * i:refs_at + 4 * i + 4] = (3).to_bytes(4, "little")
        path.write_bytes(bad)
        with pytest.raises(IndexFormatError, match="posting refers past the last chunk"):
            load_index(path)


def test_load_refuses_bad_bm25_params(tmp_path):
    path = tmp_path / "params.idx"
    save_index(index_from_texts(["moon base"]), path)
    data = path.read_bytes()
    assert struct.unpack_from("<dd", data, 8) == (1.5, 0.75)  # k1, b after magic and version
    for k1, b, field in ((-1.0, 0.75, "k1"), (1.5, 2.0, "b")):
        path.write_bytes(data[:8] + struct.pack("<dd", k1, b) + data[24:])
        with pytest.raises(IndexFormatError, match=f"corrupt index file: {field} must be"):
            load_index(path)


def test_load_refuses_an_index_without_chunks(tmp_path):
    # A well-formed header and sections for zero chunks, terms, stopwords and postings:
    # five string-table/postings offset columns of one u64 zero each.
    path = tmp_path / "empty.idx"
    header = struct.pack("<ddIIIQQQQQ", 1.5, 0.75, 0, 0, 0, 0, 0, 0, 0, 0)
    path.write_bytes(b"ITKIDX1" + bytes([bm25.VERSION]) + header + bytes(5 * 8))
    with pytest.raises(IndexFormatError, match="no chunks"):
        load_index(path)


def test_load_refuses_invalid_utf8(tmp_path):
    path = tmp_path / "utf8.idx"
    save_index(index_from_texts(["moon base", "base camp"]), path)
    data = path.read_bytes()
    assert data.count(b"camp") == 2  # the chunk texts and the terms
    # One byte for one byte, so the character counts, and with them the offsets, still fit.
    path.write_bytes(data.replace(b"camp", b"ca\xffp"))
    with pytest.raises(IndexFormatError, match="not valid UTF-8"):
        load_index(path)


def test_load_duplicate_terms(tmp_path):
    path = tmp_path / "dup.idx"
    save_index(index_from_texts(["xa xb"]), path)
    data = path.read_bytes()
    assert data.count(b"xaxb") == 1  # the term blob
    path.write_bytes(data.replace(b"xaxb", b"xaxa"))
    with pytest.raises(IndexFormatError, match="duplicate"):
        load_index(path)


@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mask=st.integers(min_value=1, max_value=255))
def test_load_single_byte_flip_is_loaded_or_format_error(tmp_path, mask):
    data = _small_index_bytes(tmp_path)
    path = tmp_path / "flipped.idx"
    for pos in range(len(data)):
        flipped = bytearray(data)
        flipped[pos] ^= mask
        path.write_bytes(flipped)
        _load_or_format_error(path)
