from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import pytest
from hypothesis import given
from hypothesis import strategies as st

from keyrag.bm25 import token_spans, tokenize
from keyrag.corpus import (
    Chunk,
    CorpusFormatError,
    Document,
    QaExample,
    chunk_corpus,
    chunk_document,
    load_corpus,
    load_qa,
    read_jsonl,
    record,
)

from .helpers import write_jsonl


def _doc(n_tokens: int, doc_id: str = "d") -> Document:
    return Document(doc_id, "", " ".join(f"t{i}" for i in range(n_tokens)))


def _span(chunk: Chunk) -> tuple[int, int]:
    """The token window [start, end) of a chunk of a _doc, whose text runs t{start} … t{end - 1}."""
    tokens = tokenize(chunk.text)
    return int(tokens[0][1:]), int(tokens[-1][1:]) + 1


def _ordinal(chunk: Chunk) -> int:
    """A chunk's ordinal in its document: the #i suffix of its id."""
    return int(chunk.chunk_id.rpartition("#")[2])


# --- loading ------------------------------------------------------------------


def test_load_corpus_passthrough(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [
        {"id": "a", "title": "A", "text": "alpha text"},
        {"id": "b", "title": "B", "text": "beta text"},
    ])
    docs = list(load_corpus(path))
    assert [d.id for d in docs] == ["a", "b"]
    assert docs[0].title == "A" and docs[1].text == "beta text"


def test_load_corpus_empty_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("", encoding="utf-8")
    assert list(load_corpus(path)) == []


def test_load_corpus_duplicate_id_cites_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [
        {"id": "a", "title": "", "text": "one"},
        {"id": "b", "title": "", "text": "two"},
        {"id": "a", "title": "", "text": "three"},
    ])
    with pytest.raises(CorpusFormatError, match="line 3"):
        list(load_corpus(path))


def test_load_corpus_malformed_line_cites_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "title": "", "text": "one"}\n{not json\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2"):
        list(load_corpus(path))


def test_load_corpus_missing_text_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"id": "a", "title": "t"}) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="text"):
        list(load_corpus(path))


def test_load_corpus_limit(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [{"id": f"d{i}", "title": "", "text": "x"} for i in range(5)])
    assert len(list(load_corpus(path, limit=2))) == 2


def test_load_qa(tmp_path):
    path = tmp_path / "qa.jsonl"
    write_jsonl(path, [{"question": "Q1?", "answers": ["a", "b"]}])
    examples = load_qa(path)
    assert examples[0].question == "Q1?"
    assert examples[0].answers == ("a", "b")


def test_load_qa_requires_answers(tmp_path):
    path = tmp_path / "qa.jsonl"
    write_jsonl(path, [{"question": "Q1?", "answers": []}])
    with pytest.raises(CorpusFormatError, match="line 1"):
        load_qa(path)


def test_load_corpus_lone_surrogate_cites_line(tmp_path):
    # A JSON escape of half a surrogate pair decodes to a str that UTF-8 cannot hold.
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "a", "title": "", "text": "fine"}\n'
        '{"id": "b", "title": "", "text": "bad \\ud800 text"}\n',
        encoding="utf-8",
    )
    with pytest.raises(CorpusFormatError, match=r"line 2: lone surrogate '\\ud800'"):
        list(load_corpus(path))


def test_load_corpus_keeps_escaped_surrogate_pairs(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "title": "\\ud83d\\ude00", "text": "x"}\n', encoding="utf-8")
    assert next(load_corpus(path)).title == "\U0001F600"


def test_load_qa_lone_surrogate_cites_line(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text(
        '{"question": "Q1?", "answers": ["a"]}\n'
        '{"question": "Q2?", "answers": ["a"]}\n'
        '{"question": "Q3 \\udfff?", "answers": ["a"]}\n',
        encoding="utf-8",
    )
    with pytest.raises(CorpusFormatError, match="line 3: lone surrogate"):
        load_qa(path)
    path.write_text('{"question": "Q1?", "answers": ["a", "\\ud800"]}\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 1: lone surrogate"):
        load_qa(path)


@pytest.mark.parametrize("loader, obj, message", [
    (load_corpus, {"id": "a", "titel": "Apollo 11", "text": "Eagle landed."},
     "line 1: unknown key 'titel'"),
    (load_corpus, {"id": 5, "text": "x"}, "line 1: Document.id is 5, not str"),
    (load_corpus, {"title": "t", "text": "x"}, "line 1: missing 'id'"),
    (load_qa, {"question": "Q1?", "answers": ["a"], "answr": ["a"]},
     "line 1: unknown key 'answr'"),
    (load_qa, {"question": "Q1?", "answers": ["x", 3]},
     "line 1: QaExample.answers is ['x', 3], not tuple[str, ...]"),
], ids=["corpus_unknown_key", "corpus_id_a_number", "corpus_no_id", "qa_unknown_key",
        "qa_answer_a_number"])
def test_loaders_refuse_a_line_that_is_no_record_naming_it(tmp_path, loader, obj, message):
    path = tmp_path / "lines.jsonl"
    write_jsonl(path, [obj])
    with pytest.raises(CorpusFormatError) as refused:
        list(loader(path))
    assert str(refused.value) == message


@pytest.mark.parametrize("loader, obj, message", [
    (load_corpus, {"id": "", "text": "x"}, "line 2: missing or non-string 'id'"),
    (load_corpus, {"id": "a", "title": "t"}, "line 2: missing or empty 'text'"),
    (load_qa, {"question": " ", "answers": ["a"]}, "line 2: missing or empty 'question'"),
    (load_qa, {"question": "Q2?", "answers": []},
     "line 2: 'answers' must be a non-empty string list"),
], ids=["corpus_empty_id", "corpus_no_text", "qa_blank_question", "qa_no_answer"])
def test_loaders_refuse_an_empty_value_naming_its_line(tmp_path, loader, obj, message):
    # Each line is checked as it is read: the first bad one is named, not the third.
    good = {"id": "z", "text": "y"} if loader is load_corpus else {"question": "Q1?", "answers": ["a"]}
    path = tmp_path / "lines.jsonl"
    write_jsonl(path, [good, obj, {}])
    with pytest.raises(CorpusFormatError) as refused:
        list(loader(path))
    assert str(refused.value) == message


class _Refused(Exception):
    pass


def test_read_jsonl_numbers_lines_from_one_and_skips_blank_ones(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('\n{"a": 1}\n   \n{"b": "\\\\ud800 is text", "c": "\\ud83d\\ude00"}\n',
                    encoding="utf-8")
    assert list(read_jsonl(path, _Refused)) == [
        (2, {"a": 1}), (4, {"b": "\\ud800 is text", "c": "\U0001F600"})]


@pytest.mark.parametrize("line, message", [
    ("{not json", "line 2: invalid JSON (Expecting property name enclosed in double quotes)"),
    ("[1]", "line 2: not a JSON object"),
    ('"text"', "line 2: not a JSON object"),
    ('{"\\udc00": 1}', "line 2: lone surrogate '\\udc00' is not valid text"),
    ('{"a": [{"b": ["x\\ud800"]}]}', "line 2: lone surrogate '\\ud800' is not valid text"),
], ids=["not_json", "a_list", "a_string", "surrogate_in_a_key", "surrogate_nested"])
def test_read_jsonl_refuses_a_line_naming_it(tmp_path, line, message):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n' + line + "\n", encoding="utf-8")
    records = read_jsonl(path, _Refused)
    assert next(records) == (1, {"a": 1})
    with pytest.raises(_Refused) as refused:
        next(records)
    assert str(refused.value) == message


def test_load_qa_refuses_a_byte_that_is_not_utf8_naming_its_line(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_bytes(b'{"question": "Q1?", "answers": ["a"]}\n'
                     b'{"question": "Q2 \xff?", "answers": ["a"]}\n')
    with pytest.raises(CorpusFormatError) as refused:
        load_qa(path)
    assert str(refused.value) == "line 2: byte 18 is not valid UTF-8"


def test_read_jsonl_accepts_crlf_line_ends(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'{"a": "\xc3\xa9"}\r\n\r\n{"b": "\\u00e9"}\r\n')
    assert list(read_jsonl(path, _Refused)) == [(1, {"a": "\u00e9"}), (3, {"b": "\u00e9"})]


def test_loaders_parse_no_line_past_their_limit(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "a", "text": "one"}\n{not json\n', encoding="utf-8")
    assert [doc.id for doc in load_corpus(corpus, limit=1)] == ["a"]
    qa = tmp_path / "qa.jsonl"
    qa.write_text('{"question": "Q1?", "answers": ["a"]}\n\n{"question": "Q2?", "answers": ["b"]}\n'
                  "{not json\n", encoding="utf-8")
    assert [ex.question for ex in load_qa(qa, limit=2)] == ["Q1?", "Q2?"]
    with pytest.raises(CorpusFormatError, match="line 4: invalid JSON"):
        load_qa(qa)


# --- records ------------------------------------------------------------------


@dataclass
class _Leaf:
    name: str
    weight: float = 1.0


@dataclass
class _Tree:
    leaf: _Leaf | None
    leaves: list[_Leaf] = field(default_factory=list)
    tags: list[str] = field(default_factory=list)


def test_record_builds_the_records_within_a_record():
    tree = record(_Tree, {"leaf": {"name": "a"}, "leaves": [{"name": "b", "weight": 2}]})
    assert tree == _Tree(_Leaf("a"), [_Leaf("b", 2)])
    assert record(_Tree, {"leaf": None}) == _Tree(None)


def test_record_builds_a_tuple_field_from_an_array():
    example = record(QaExample, {"question": "Q1?", "answers": ["a", "b"]})
    assert example == QaExample("Q1?", ("a", "b"))
    assert type(example.answers) is tuple


@pytest.mark.parametrize("obj, message", [
    ({"leaf": None, "lef": 1}, "unknown key 'lef'"),
    ({"lef": 1}, "unknown key 'lef'"),  # an unknown key is named before a missing field
    ({"leaves": []}, "missing 'leaf'"),
    ({"leaf": {"weight": 1}}, "missing 'name'"),
    ({"leaf": None, "leaves": [{"name": "b", "wieght": 2}]}, "unknown key 'wieght'"),
    ({"leaf": None, "tags": ["a", 1]}, "_Tree.tags is ['a', 1], not list[str]"),
    ({"leaf": {"name": "a", "weight": True}}, "_Leaf.weight is True, not float"),
    ({"leaf": [], "x": 1}, "_Tree.leaf is [], not _Leaf | None"),  # in the object's key order
])
def test_record_refuses_a_bad_object_with_one_message(obj, message):
    with pytest.raises(ValueError) as refused:
        record(_Tree, obj)
    assert str(refused.value) == message


# --- chunking -----------------------------------------------------------------


def test_chunk_300_tokens_256_50():
    chunks = chunk_document(_doc(300), 256, 50)
    assert [_span(c) for c in chunks] == [(0, 256), (206, 300)]
    assert [c.chunk_id for c in chunks] == ["d#0", "d#1"]


def test_chunk_short_doc_single_chunk():
    chunks = chunk_document(_doc(100), 256, 50)
    assert [_span(c) for c in chunks] == [(0, 100)]


def test_chunk_512_tokens_256_50():
    chunks = chunk_document(_doc(512), 256, 50)
    assert [_span(c) for c in chunks] == [(0, 256), (206, 462), (412, 512)]


def test_chunk_overlap_must_be_less_than_size():
    with pytest.raises(ValueError):
        chunk_document(_doc(10), 256, 256)
    with pytest.raises(ValueError):
        chunk_document(_doc(10), 256, 300)


def test_chunk_text_matches_token_span():
    doc = Document("d", "", "Alpha, beta; GAMMA delta epsilon-zeta eta theta.")
    chunk_size, overlap = 3, 1
    stride = chunk_size - overlap
    for i, chunk in enumerate(chunk_document(doc, chunk_size, overlap)):
        assert tokenize(chunk.text) == tokenize(doc.text)[i * stride : i * stride + chunk_size]


def test_chunk_tokenless_document_yields_nothing():
    assert chunk_document(Document("d", "", "?!... --- ,,,"), 256, 50) == []


def test_chunk_ids_are_deterministic():
    doc = _doc(600, "docX")
    first = chunk_document(doc, 256, 50)
    second = chunk_document(doc, 256, 50)
    assert first == second
    assert [_ordinal(c) for c in first] == list(range(len(first)))


def _assert_chunk_invariants(chunks: list[Chunk], total: int, chunk_size: int, overlap: int):
    stride = chunk_size - overlap
    covered: set[int] = set()
    for i, chunk in enumerate(chunks):
        start, end = _span(chunk)
        assert _ordinal(chunk) == i
        assert start == i * stride
        assert end - start <= chunk_size
        assert end > start
        covered.update(range(start, end))
        if i + 1 < len(chunks):
            nxt_start, nxt_end = _span(chunks[i + 1])
            shared = end - nxt_start
            if nxt_end - nxt_start == chunk_size:
                assert shared == overlap
            else:
                assert shared >= overlap  # truncated final window keeps at least the overlap
    assert covered == set(range(total))
    assert _span(chunks[-1])[1] == total


@pytest.mark.parametrize("chunk_size,overlap", [(256, 50), (512, 50)])
def test_chunk_coverage_and_overlap_random_docs(chunk_size, overlap):
    rng = random.Random(7)
    for _ in range(100):
        total = rng.randint(1, 1500)
        chunks = chunk_document(_doc(total), chunk_size, overlap)
        _assert_chunk_invariants(chunks, total, chunk_size, overlap)


@given(st.data())
def test_chunk_coverage_and_overlap_any_setting(data):
    chunk_size = data.draw(st.integers(1, 64), label="chunk_size")
    overlap = data.draw(st.integers(0, chunk_size - 1), label="overlap")
    total = data.draw(st.integers(1, 400), label="tokens")
    chunks = chunk_document(_doc(total), chunk_size, overlap)
    _assert_chunk_invariants(chunks, total, chunk_size, overlap)
    assert [tokenize(c.text) for c in chunks] == [
        [f"t{i}" for i in range(*_span(c))] for c in chunks
    ]


def test_chunk_corpus_prepends_titles():
    docs = [Document("d1", "My Title", "some body text here")]
    chunks = list(chunk_corpus(docs, 256, 50))
    assert chunks[0].text == "My Title\nsome body text here"
    plain = list(chunk_corpus(docs, 256, 50, prepend_titles=False))
    assert plain[0].text == "some body text here"


def test_token_spans_align_with_tokenize():
    text = "Hello, World! 42 foo_bar"
    spans = token_spans(text)
    assert [text[a:b].lower() for a, b in spans] == tokenize(text)
