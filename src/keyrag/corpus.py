"""Corpus and QA dataset ingestion plus overlapping token-window chunking."""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from .bm25 import token_spans


class CorpusFormatError(ValueError):
    """Malformed corpus or dataset line; message names the offending line."""


@dataclass(frozen=True)
class Document:
    id: str
    title: str
    text: str


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    doc_id: str
    ordinal: int
    token_span: tuple[int, int]
    text: str


@dataclass(frozen=True)
class QaExample:
    question: str
    answers: tuple[str, ...]


def _check_utf8(line_no: int, values) -> None:
    """Refuse a lone surrogate (a JSON escape such as \\ud800): UTF-8 cannot hold it."""
    for value in values:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CorpusFormatError(
                f"line {line_no}: lone surrogate {value[exc.start]!r} is not valid text"
            ) from None


def load_corpus(path, limit: int | None = None) -> Iterator[Document]:
    """Stream documents from a JSONL file of {"id", "title", "text"} records."""
    seen: dict[str, int] = {}
    yielded = 0
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            if limit is not None and yielded >= limit:
                return
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise CorpusFormatError(f"line {line_no}: record is not an object")
            doc_id = obj.get("id")
            text = obj.get("text")
            title = obj.get("title", "")
            if not isinstance(doc_id, str) or not doc_id:
                raise CorpusFormatError(f"line {line_no}: missing or non-string 'id'")
            if not isinstance(text, str) or not text.strip():
                raise CorpusFormatError(f"line {line_no}: missing or empty 'text'")
            if not isinstance(title, str):
                raise CorpusFormatError(f"line {line_no}: non-string 'title'")
            _check_utf8(line_no, (doc_id, title, text))
            if doc_id in seen:
                raise CorpusFormatError(
                    f"line {line_no}: duplicate document id {doc_id!r}"
                    f" (first seen on line {seen[doc_id]})"
                )
            seen[doc_id] = line_no
            yielded += 1
            yield Document(id=doc_id, title=title, text=text)


def load_qa(path, limit: int | None = None) -> list[QaExample]:
    """Load a JSONL QA dataset of {"question", "answers"} records."""
    examples: list[QaExample] = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            if limit is not None and len(examples) >= limit:
                break
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
            question = obj.get("question") if isinstance(obj, dict) else None
            answers = obj.get("answers") if isinstance(obj, dict) else None
            if not isinstance(question, str) or not question.strip():
                raise CorpusFormatError(f"line {line_no}: missing or empty 'question'")
            if (
                not isinstance(answers, list)
                or not answers
                or not all(isinstance(a, str) for a in answers)
            ):
                raise CorpusFormatError(f"line {line_no}: 'answers' must be a non-empty string list")
            _check_utf8(line_no, [question, *answers])
            examples.append(QaExample(question=question, answers=tuple(answers)))
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
        text = doc.text[spans[start][0] : spans[end - 1][1]]
        chunks.append(
            Chunk(
                chunk_id=f"{doc.id}#{ordinal}",
                doc_id=doc.id,
                ordinal=ordinal,
                token_span=(start, end),
                text=text,
            )
        )
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
                yield dataclasses.replace(chunk, text=f"{doc.title}\n{chunk.text}")
            else:
                yield chunk
