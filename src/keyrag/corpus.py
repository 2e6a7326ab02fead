"""Corpus and QA dataset ingestion plus overlapping token-window chunking."""
from __future__ import annotations

import json
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache, partial
from itertools import islice
from typing import Callable, Iterable, Iterator

from .bm25 import token_spans


class CorpusFormatError(ValueError):
    """Malformed corpus or dataset line; message names the offending line."""


@dataclass(frozen=True)
class Document:
    id: str
    title: str = ""
    text: str = ""


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    text: str


@dataclass(frozen=True)
class QaExample:
    question: str
    answers: tuple[str, ...]


def _lone_surrogate(value) -> str | None:
    """The first lone surrogate (\\ud800) in a decoded JSON value, keys included, or None."""
    if type(value) is dict:
        value = [*value, *value.values()]
    if type(value) is list:
        return next(filter(None, map(_lone_surrogate, value)), None)
    if type(value) is str and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            return value[exc.start]
    return None


def read_jsonl(path, error, torn=None) -> Iterator[tuple[int, dict]]:
    """Yield (line number from 1, object) for each non-blank line of a JSONL file.

    A line that is not UTF-8, not JSON, not an object, or holds a lone surrogate
    raises error("line N: ..."). A last line with no newline that is not UTF-8
    JSON is what a writer cut short leaves: if torn is given, it is not read,
    and torn(line number, its length in bytes) is called instead.
    """
    with open(path, "rb") as f:
        for line_no, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                obj = json.loads(line)
            except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
                if torn and not raw.endswith(b"\n"):  # the last line: no other follows
                    torn(line_no, len(raw))
                    continue
                if isinstance(exc, UnicodeDecodeError):
                    raise error(f"line {line_no}: byte {exc.start + 1} is not valid UTF-8") from None
                raise error(f"line {line_no}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise error(f"line {line_no}: not a JSON object")
            # Only an escape decodes to a surrogate. Trace lines, written unescaped,
            # skip the walk, which costs about as much as parsing them; a line with
            # no backslash skips the two-character search too.
            lone = "\\" in line and "\\u" in line and _lone_surrogate(obj)
            if lone:
                raise error(f"line {line_no}: lone surrogate {lone!r} is not valid text")
            yield line_no, obj


def _json_types(hint) -> tuple[frozenset, frozenset | None, Callable | None]:
    """The JSON types a value of the declared type may have, its items' types if
    it is a list[X], tuple[X, ...] or dict[str, X], and what builds the field's
    value, if anything: record for a record or each item of a list of them, tuple
    for a tuple. A record is an object, a tuple an array, a float may be an int,
    and a bool is neither."""
    origin = typing.get_origin(hint)
    if origin is types.UnionType:  # X | None
        parts = [_json_types(arg) for arg in typing.get_args(hint)]
        return frozenset().union(*(kinds for kinds, _, _ in parts)), parts[0][1], parts[0][2]
    if origin in (list, tuple, dict):  # list[X], tuple[X, ...] or dict[str, X]
        item_kinds, _, build = _json_types(typing.get_args(hint)[origin is dict])
        if origin is tuple:
            return frozenset((list,)), item_kinds, tuple
        if origin is list and build:
            return frozenset((list,)), item_kinds, lambda items: [build(item) for item in items]
        return frozenset((origin,)), item_kinds, None
    if is_dataclass(hint):
        return frozenset((dict,)), None, partial(record, hint)
    return frozenset((int, float) if hint is float else (hint,)), None, None


@cache
def _record_fields(cls) -> tuple[dict, tuple[str, ...]]:
    """_json_types of each field of record class cls, and the fields it must be
    given (those without a default), computed once."""
    required = tuple(f.name for f in fields(cls)
                     if f.default is MISSING and f.default_factory is MISSING)
    return {name: _json_types(hint) for name, hint in typing.get_type_hints(cls).items()}, required


def record(cls, obj: dict):
    """The record of class cls a JSON object holds; a field of another record, or
    of a list of them, is built the same way, and a tuple field from an array.

    A key that names no field (unknown key 'x') or a value of another type than
    its field declares (Cls.x is …, not …) raises ValueError, the first in the
    object's key order; then so does a field without a default left out
    (missing 'x').
    """
    field_types, required = _record_fields(cls)
    values = {}
    for name, value in obj.items():
        if name not in field_types:
            raise ValueError(f"unknown key {name!r}")
        kinds, items, build = field_types[name]
        if type(value) not in kinds or (
            items is not None and value is not None
            and not items.issuperset(map(type, value.values() if type(value) is dict else value))
        ):
            declared = {f.name: f.type for f in fields(cls)}[name]
            raise ValueError(f"{cls.__name__}.{name} is {value!r:.40}, not {declared}")
        values[name] = value if build is None or value is None else build(value)
    for name in required:
        if name not in obj:
            raise ValueError(f"missing {name!r}")
    return cls(**values)


def read_records(path, cls, error) -> Iterator[tuple[int, object]]:
    """(line number, record(cls, object)) for each read_jsonl line; a line that
    read_jsonl or record refuses raises error("line N: ...")."""
    for line_no, obj in read_jsonl(path, error):
        try:
            rec = record(cls, obj)
        except ValueError as exc:
            raise error(f"line {line_no}: {exc}") from None
        yield line_no, rec


def load_corpus(path, limit: int | None = None) -> Iterator[Document]:
    """Stream documents from a JSONL file of {"id", "title", "text"} records."""
    seen: dict[str, int] = {}
    for line_no, doc in islice(read_records(path, Document, CorpusFormatError), limit):
        if not doc.id:
            raise CorpusFormatError(f"line {line_no}: missing or non-string 'id'")
        if not doc.text.strip():
            raise CorpusFormatError(f"line {line_no}: missing or empty 'text'")
        if doc.id in seen:
            raise CorpusFormatError(f"line {line_no}: duplicate document id {doc.id!r}"
                                    f" (first seen on line {seen[doc.id]})")
        seen[doc.id] = line_no
        yield doc


def load_qa(path, limit: int | None = None) -> list[QaExample]:
    """Load a JSONL QA dataset of {"question", "answers"} records."""
    examples: list[QaExample] = []
    for line_no, example in islice(read_records(path, QaExample, CorpusFormatError), limit):
        if not example.question.strip():
            raise CorpusFormatError(f"line {line_no}: missing or empty 'question'")
        if not example.answers:
            raise CorpusFormatError(f"line {line_no}: 'answers' must be a non-empty string list")
        examples.append(example)
    return examples


def chunk_document(doc: Document, chunk_size: int, overlap: int) -> list[Chunk]:
    """Split a document into token windows of at most chunk_size with the given overlap.

    Window starts advance by stride = chunk_size - overlap; the final window may
    be shorter but is never empty, so a document whose text tokenizes to nothing
    yields no chunks.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if not 0 <= overlap < chunk_size:
        raise ValueError(f"overlap must satisfy 0 <= overlap < chunk_size, got {overlap}")
    spans = token_spans(doc.text)
    total = len(spans)
    if total == 0:
        return []
    stride = chunk_size - overlap
    chunks: list[Chunk] = []
    ordinal = 0
    while True:
        start = ordinal * stride
        end = min(start + chunk_size, total)
        chunks.append(Chunk(f"{doc.id}#{ordinal}", doc.text[spans[start][0] : spans[end - 1][1]]))
        if end >= total:
            return chunks
        ordinal += 1


def chunk_corpus(
    docs: Iterable[Document],
    chunk_size: int,
    overlap: int,
    prepend_titles: bool = True,
) -> Iterator[Chunk]:
    """Chunk every document; with prepend_titles, the title leads each chunk's text."""
    for doc in docs:
        for chunk in chunk_document(doc, chunk_size, overlap):
            if prepend_titles and doc.title:
                chunk = Chunk(chunk.chunk_id, f"{doc.title}\n{chunk.text}")
            yield chunk
