"""Prompt templates for each loop step, and the parsers of every model reply.

Template wording is frozen under golden tests; behavioral variants (chain of
thought, per-document refinement) are separate template ids, never edits to
the originals. Alternative wordings can be loaded from a directory of text
files for ablations. A keyword reply is read by `parse_keyword_list`, and a
validation reply into a `BinaryVerdict` by `verdict_from_text` (plain mode) or
`parse_cot_verdict` (chain of thought).
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .llm import ChatMessage


class TemplateError(ValueError):
    """Unknown template id or bindings that do not cover its placeholders."""


class KeywordParseError(ValueError):
    """Model output contained no usable keywords."""


_PLACEHOLDER_RE = re.compile(r"\{(q|K|D|a|Docs)\}")
_WORD_RE = re.compile(r"[A-Za-z]+")
_JSON_DECODER = json.JSONDecoder()


@dataclass(frozen=True)
class BinaryVerdict:
    choice: bool
    p_true: float | None
    p_false: float | None
    method: str  # "logprob" or "text-fallback"
    flagged: bool = False


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    system: str
    user: str

    @property
    def placeholders(self) -> frozenset[str]:
        return frozenset(_PLACEHOLDER_RE.findall(self.user))


TEMPLATES: dict[str, PromptTemplate] = {
    t.id: t
    for t in [
        PromptTemplate(
            id="step1_keywords",
            system="You are an assistant that generates keywords for information retrieval.",
            user=(
                "Generate a list of important keywords related to the Query: {q}.\n\n"
                "Focus on keywords that are relevant and likely to appear in documents"
                " for BM25 search in the RAG framework.\n\n"
                'Output the keywords as: ["keyword1", "keyword2", "keyword3", ...].\n\n'
                "Separate each keyword with a comma and do not include any additional text."
            ),
        ),
        PromptTemplate(
            id="step2_answer",
            system="You are an assistant that generates answers based on retrieved documents.",
            user=(
                "Here is a question that you need to answer:\n"
                "Query: {q}\n\n"
                "Below are some documents that may contain information relevant to the"
                " question. Consider the information in these documents while combining"
                " it with your own knowledge to answer the question accurately.\n\n"
                "Documents: {D}\n\n"
                "Provide a clear and concise answer. Do not include any additional text."
            ),
        ),
        PromptTemplate(
            id="step3_validate",
            system="You are an assistant that validates whether the provided answer is correct.",
            user=(
                "Is the following answer correct?\n\n"
                "Query: {q}\n\n"
                "Answer: {a}\n\n"
                "Previous Retrieval Documents: {Docs}\n\n"
                "Respond 'True' or 'False'. Do not provide any additional explanation or text."
            ),
        ),
        PromptTemplate(
            id="step4_regen",
            system="You refine keywords to improve document retrieval for BM25 search in the RAG framework.",
            user=(
                "Refine the keyword selection process to improve the accuracy of"
                " retrieving documents with the correct answer.\n\n"
                "Query: {q}\n\n"
                "Previous Keywords: {K}\n\n"
                'Provide the refined list of keywords in this format: ["keyword1", "keyword2", ...].\n\n'
                "Separate each keyword with a comma and do not include any additional text."
            ),
        ),
        PromptTemplate(
            id="step4_regen_docwise",
            system=(
                "Refine the provided keywords to enhance document retrieval accuracy"
                " for BM25 search in the RAG framework."
            ),
            user=(
                "Please refine the keyword selection process to improve the accuracy of"
                " retrieving documents containing the correct answer.\n\n"
                "Query: {q}\n\n"
                "Previous Keywords: {K}\n\n"
                "Previous Retrieval Documents: {Docs}\n\n"
                'Provide the refined list of keywords in this format: ["keyword1", "keyword2", ...].\n\n'
                "Ensure each keyword is separated by a comma, and do not include any additional text."
            ),
        ),
        PromptTemplate(
            id="step3_validate_cot",
            system=(
                "You are an assistant that verifies whether an answer is correct based"
                " on retrieved documents."
            ),
            user=(
                "Question: {q}\n"
                "Answer: {a}\n"
                "Documents: {Docs}\n"
                "Let's think step by step.\n"
                "Chain of thought: (Explain your reasoning step by step. Refer to the"
                " documents when relevant.)\n"
                "Conclusion: True or False\n"
                "Do not output anything besides the above format."
            ),
        ),
        PromptTemplate(
            id="step4_regen_cot",
            system="You refine keywords to improve document retrieval for BM25 search in the RAG framework.",
            user=(
                "The previous keywords failed to retrieve useful documents for the query: {q}\n"
                "Here are the previous keywords: {K}\n"
                "Let's think step by step. Check if they are too general, too specific,"
                " or missing important concepts.\n"
                "Then, refine them to produce a more effective list of keywords for"
                " retrieving documents that contain the correct answer.\n"
                'Output the keywords in the exact format: ["kw1", "kw2", ...]\n'
                "Refined Keywords:"
            ),
        ),
        # Retrieval-free variant of the answer prompt, for the no-retrieval baseline.
        PromptTemplate(
            id="vanilla_answer",
            system="You are an assistant that generates answers based on retrieved documents.",
            user=(
                "Here is a question that you need to answer:\n"
                "Query: {q}\n\n"
                "Provide a clear and concise answer. Do not include any additional text."
            ),
        ),
    ]
}


def render(
    template_id: str,
    bindings: dict[str, str],
    templates: dict[str, PromptTemplate] | None = None,
) -> list[ChatMessage]:
    """Substitute bindings into a template; bindings must cover its placeholders exactly."""
    table = templates or TEMPLATES
    template = table.get(template_id)
    if template is None:
        raise TemplateError(f"unknown template {template_id!r}")
    needed = template.placeholders
    given = set(bindings)
    missing = sorted(needed - given)
    if missing:
        raise TemplateError(f"unbound placeholder {missing[0]}")
    extra = sorted(given - needed)
    if extra:
        raise TemplateError(f"unexpected binding {extra[0]}")
    # One pass: a bound value that holds a placeholder's text is not substituted again.
    user = _PLACEHOLDER_RE.sub(lambda match: bindings[match.group(1)], template.user)
    return [ChatMessage("system", template.system), ChatMessage("user", user)]


def format_keywords(keywords: Sequence[str]) -> str:
    """Render keywords as the bracketed quoted list the prompts ask the model for."""
    return json.dumps(list(keywords), ensure_ascii=False)


def format_documents(texts: Sequence[str]) -> str:
    """Join document texts, each prefixed "Document i:", highest rank first."""
    return "\n\n".join(f"Document {i}: {text}" for i, text in enumerate(texts, 1))


def dedupe_keywords(raw: Iterable[str]) -> list[str]:
    """Strip, drop quotes and empties, then case-insensitively dedupe keeping first spelling."""
    out: list[str] = []
    seen: set[str] = set()
    for item in raw:
        keyword = str(item).replace('"', "").strip()
        if not keyword:
            continue
        key = keyword.casefold()
        if key in seen:
            continue
        seen.add(key)
        out.append(keyword)
    return out


def parse_keyword_list(text: str) -> list[str]:
    """Parse a model keyword reply.

    Primary path: the first `[` that starts a JSON array, of which only the
    strings and numbers are keywords (null, true, false, arrays and objects are
    dropped). Fallback: strip fences and brackets, split on commas. Either
    way the result is deduplicated case-insensitively, preserving first occurrence.
    """
    items = _bracket_array(text)
    if items is None:
        items = _comma_fallback(text)
    keywords = dedupe_keywords(items)
    if not keywords:
        raise KeywordParseError(f"no keywords found in model output: {text[:80]!r}")
    return keywords


def _bracket_array(text: str) -> list | None:
    """The strings and numbers of the first JSON array that starts at a `[` of
    text; None if none does, or if one is nested too deep to decode."""
    start = text.find("[")
    while start != -1:
        try:
            array, _ = _JSON_DECODER.raw_decode(text, start)
        except RecursionError:  # stop: trying each later `[` would make the scan quadratic
            return None
        except ValueError:
            start = text.find("[", start + 1)
        else:
            return [item for item in array if type(item) in (str, int, float)]
    return None


def _comma_fallback(text: str) -> list[str]:
    cleaned = re.sub(r"```[a-zA-Z]*", "", text)
    cleaned = cleaned.replace("[", " ").replace("]", " ")
    return [part.strip().strip("\"'`") for part in cleaned.split(",")]


def verdict_from_text(text: str) -> BinaryVerdict:
    """Map the first alphabetic "true"/"false" word; neither present → flagged False."""
    for word in map(str.lower, _WORD_RE.findall(text)):
        if word in ("true", "false"):
            return BinaryVerdict(word == "true", None, None, "text-fallback")
    return BinaryVerdict(False, None, None, "text-fallback", flagged=True)


def parse_cot_verdict(text: str) -> BinaryVerdict:
    """Map the first word of the last "Conclusion:" line; if it is neither, scan the whole text."""
    conclusion = ""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.casefold().startswith("conclusion:"):
            conclusion = stripped[len("conclusion:") :]
    verdict = verdict_from_text(" ".join(_WORD_RE.findall(conclusion)[:1]))
    return verdict_from_text(text) if verdict.flagged else verdict


def load_templates(directory) -> dict[str, PromptTemplate]:
    """Load prompt variants from <id>.txt files: system text, a --- line, user text.

    Each file must name a built-in template, give both texts, and use exactly the
    built-in template's placeholders, as render demands; else TemplateError.
    """
    table = dict(TEMPLATES)
    for path in sorted(Path(directory).glob("*.txt")):
        builtin = TEMPLATES.get(path.stem)
        if builtin is None:
            raise TemplateError(f"{path.name}: no built-in template is named {path.stem!r}")
        raw = path.read_text(encoding="utf-8")
        if "\n---\n" not in raw:
            raise TemplateError(f"{path.name}: expected a '---' line between system and user text")
        system, user = (part.strip() for part in raw.split("\n---\n", 1))
        if not system or not user:
            raise TemplateError(f"{path.name}: empty {'user' if system else 'system'} text")
        template = PromptTemplate(id=path.stem, system=system, user=user)
        if template.placeholders != builtin.placeholders:
            raise TemplateError(
                f"{path.name}: placeholders {sorted(template.placeholders)},"
                f" expected {sorted(builtin.placeholders)}"
            )
        table[path.stem] = template
    return table
