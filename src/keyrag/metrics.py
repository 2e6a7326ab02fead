"""Answer normalization, exact match, recall, scoring modes, and trace statistics."""
from __future__ import annotations

import re
import string
import unicodedata
from dataclasses import dataclass
from typing import Callable, Sequence

from .pipeline import (
    EVAL_MODES,
    STEP_ANSWER,
    STEP_QUERY_EXPANSION,
    STEP_RETRIEVAL,
    STEP_VALIDATION,
    RunTrace,
    novelty,
)

_ARTICLES_RE = re.compile(r"\b(a|an|the)\b")
_ASCII_PUNCT = set(string.punctuation)


def _is_punct(ch: str) -> bool:
    return ch in _ASCII_PUNCT or unicodedata.category(ch).startswith("P")


def normalize_answer(s: str) -> str:
    """Lowercase, strip punctuation, drop articles, and consolidate whitespace."""

    def lower(text):
        return text.lower()

    def remove_punc(text):
        return "".join(ch for ch in text if not _is_punct(ch))

    def remove_articles(text):
        return _ARTICLES_RE.sub(" ", text)

    def white_space_fix(text):
        return " ".join(text.split())

    return white_space_fix(remove_articles(remove_punc(lower(s))))


def exact_match(pred: str, refs: Sequence[str]) -> bool:
    """True iff the prediction equals some reference after normalization."""
    if not refs:
        raise ValueError("refs must be non-empty")
    normalized = normalize_answer(pred)
    return any(normalized == normalize_answer(ref) for ref in refs)


# --- recall ------------------------------------------------------------------


def _hit_horizons(trace: RunTrace, refs, k: int, haystack) -> int | None:
    """First 1-based iteration horizon at which a top-k doc contains an answer.

    A doc contains an answer when some normalized reference occurs in its
    normalized text on word boundaries.
    """
    if not refs:
        raise ValueError("refs must be non-empty")
    needles = [f" {needle} " for needle in map(normalize_answer, refs) if needle]
    for h, rec in enumerate(trace.iterations, 1):
        for doc in rec.retrieved[:k]:
            text = haystack(doc.chunk_id)
            if any(needle in text for needle in needles):
                return h
    return None


def recall_curve(
    traces: Sequence[RunTrace],
    refs_list: Sequence[Sequence[str]],
    k: int,
    text_lookup: Callable[[str], str],
    haystacks: dict[str, str] | None = None,
) -> list[float]:
    """Recall@k per iteration horizon, counting hits in the union of top-k sets so far.

    haystacks caches normalized chunk texts by chunk id; pass one dict to every
    call over the same index so each text is normalized once.
    """
    _check_aligned(traces, refs_list)
    cache = {} if haystacks is None else haystacks

    def haystack(chunk_id: str) -> str:
        text = cache.get(chunk_id)
        if text is None:
            text = cache[chunk_id] = f" {normalize_answer(text_lookup(chunk_id))} "
        return text

    firsts = [_hit_horizons(t, refs, k, haystack) for t, refs in zip(traces, refs_list)]
    return _curve(traces, firsts)


def _curve(traces: Sequence[RunTrace], firsts: Sequence[int | None]) -> list[float]:
    """Per horizon h up to the longest trace, the share of traces whose first
    horizon in firsts (None for never) is at most h."""
    horizon = max((len(t.iterations) for t in traces), default=0)
    return [
        sum(1 for first in firsts if first is not None and first <= h) / len(traces)
        for h in range(1, horizon + 1)
    ]


# --- scoring modes -----------------------------------------------------------


def _first_correct(trace: RunTrace, refs, mode: str) -> int | None:
    """First 1-based horizon from which the trace counts as correct under mode."""
    for h, rec in enumerate(trace.iterations, 1):
        judged = rec.verdict is not None and rec.verdict.choice
        if mode == "base" and judged:
            # The first True-judged answer is the answer; no True means no answer.
            return h if exact_match(rec.answer, refs) else None
        if (judged or mode == "verified_all") and exact_match(rec.answer, refs):
            return h
    return None


def _check_aligned(traces, refs_list) -> None:
    if len(traces) != len(refs_list):
        raise ValueError(f"got {len(traces)} traces but {len(refs_list)} reference sets")


def score_mode(
    traces: Sequence[RunTrace],
    refs_list: Sequence[Sequence[str]],
    mode: str,
) -> "EvalResult":
    """Score traces under one of the em / base / verified_true / verified_all readings.

    em is the exact-match rate of final answers, whatever the verdicts said; it
    has no per-iteration curve. The other three correctness predicates form an
    implication chain (base ⇒ verified_true ⇒ verified_all), so accuracies are
    monotone across them. Verified modes compare answers across the full
    iteration budget and therefore refuse traces produced with early stopping
    enabled.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    _check_aligned(traces, refs_list)
    if mode in ("verified_true", "verified_all"):
        for i, trace in enumerate(traces):
            if trace.early_stop:
                raise ValueError(
                    f"{mode} requires traces produced with early stopping disabled"
                    f" (trace {i} was early-stopped); re-run with --no-early-stop"
                )
    if mode == "em":
        per_iteration = []
        accuracy = em_accuracy(traces, refs_list)
    else:
        firsts = [_first_correct(t, refs, mode) for t, refs in zip(traces, refs_list)]
        per_iteration = _curve(traces, firsts)
        accuracy = per_iteration[-1] if per_iteration else 0.0
    return EvalResult(
        mode=mode,
        accuracy=accuracy,
        n=len(traces),
        per_iteration_accuracy=per_iteration,
        avg_iterations=avg_iteration_count(traces),
        **delta_stats(traces),
        latency_seconds=latency_report(traces),
    )


def em_accuracy(traces: Sequence[RunTrace], refs_list: Sequence[Sequence[str]]) -> float:
    """Plain exact-match rate of final answers, whatever the verdicts said."""
    _check_aligned(traces, refs_list)
    if not traces:
        return 0.0
    return _mean([exact_match(t.final_answer, refs) for t, refs in zip(traces, refs_list)])


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# --- trace statistics --------------------------------------------------------


def delta_stats(traces: Sequence[RunTrace]) -> dict[str, dict]:
    """Recompute keyword/document novelty per step from the raw sets in the traces.

    For step s >= 2 (iteration index s-1), novelty is measured against the
    union of everything from earlier iterations, averaged over traces that
    reach step s. Returns the report's keyword_deltas and doc_deltas: the
    per-step means keyed by the string of s, their total, and the total over
    the number of regeneration steps.
    """
    horizon = max((len(t.iterations) for t in traces), default=0)
    per_step = {"keyword_deltas": {}, "doc_deltas": {}}
    for step in range(2, horizon + 1):
        counts = [
            novelty(trace.iterations[: step - 1], rec.keywords, rec.retrieved)
            for trace in traces
            for rec in trace.iterations[step - 1 : step]
        ]
        per_step["keyword_deltas"][str(step)] = _mean(new_keywords for new_keywords, _ in counts)
        per_step["doc_deltas"][str(step)] = _mean(new_docs for _, new_docs in counts)
    steps = max(horizon - 1, 0)
    return {
        name: {"per_step": means, "total": sum(means.values()),
               "mean": sum(means.values()) / steps if steps else 0.0}
        for name, means in per_step.items()
    }


_LATENCY_STEPS = (STEP_QUERY_EXPANSION, STEP_RETRIEVAL, STEP_ANSWER, STEP_VALIDATION)


def latency_report(traces: Sequence[RunTrace]) -> dict[str, float]:
    """Mean per-question seconds for each step; steps no trace timed are absent."""
    report: dict[str, float] = {}
    if not traces:
        return report
    for step in _LATENCY_STEPS:
        if not any(step in rec.wall_time_ms for t in traces for rec in t.iterations):
            continue
        per_question = [
            sum(rec.wall_time_ms.get(step, 0.0) for rec in t.iterations) / 1000.0 for t in traces
        ]
        report[step] = _mean(per_question)
    report["total"] = sum(report.values())
    return report


def avg_iteration_count(traces: Sequence[RunTrace]) -> float:
    """Mean iterations per question, over traces that ran at all."""
    counts = [len(t.iterations) for t in traces if t.iterations]
    return _mean(counts)


# --- combined report ---------------------------------------------------------


@dataclass
class EvalResult:
    """The report of one mode; its fields are the report's JSON keys, keyed by
    the string of a step or of k where a field is a mapping."""

    mode: str
    accuracy: float
    n: int
    per_iteration_accuracy: list[float]
    avg_iterations: float
    keyword_deltas: dict | None = None
    doc_deltas: dict | None = None
    latency_seconds: dict[str, float] | None = None
    recall_at: dict[str, float] | None = None
    recall_curves: dict[str, list[float]] | None = None
    recall_mean_over_horizons: dict[str, float] | None = None

    def to_dict(self) -> dict:
        return {key: value for key, value in vars(self).items() if value is not None}


def evaluate(
    traces: Sequence[RunTrace],
    refs_list: Sequence[Sequence[str]],
    mode: str = "base",
    recall_ks: Sequence[int] = (),
    text_lookup: Callable[[str], str] | None = None,
) -> EvalResult:
    """Full report for one mode; recall columns require a chunk-text lookup."""
    result = score_mode(traces, refs_list, mode)
    if recall_ks:
        if text_lookup is None:
            raise ValueError("recall evaluation requires a chunk-text lookup (the index)")
        haystacks: dict[str, str] = {}
        curves = {
            str(k): recall_curve(traces, refs_list, k, text_lookup, haystacks) for k in recall_ks
        }
        result.recall_curves = curves
        result.recall_at = {k: curve[-1] if curve else 0.0 for k, curve in curves.items()}
        result.recall_mean_over_horizons = {k: _mean(curve) for k, curve in curves.items()}
    return result
