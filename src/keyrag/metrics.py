"""Answer normalization, exact match, recall, scoring modes, and trace statistics."""
from __future__ import annotations

import re
import string
import unicodedata
from dataclasses import dataclass
from typing import Callable, Sequence

from .pipeline import (
    STEP_ANSWER,
    STEP_QUERY_EXPANSION,
    STEP_RETRIEVAL,
    STEP_VALIDATION,
    RunTrace,
    novelty,
)

MODES = ("em", "base", "verified_true", "verified_all")

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
    horizon = max((len(t.iterations) for t in traces), default=0)
    if horizon == 0 or not traces:
        return []
    cache = {} if haystacks is None else haystacks

    def haystack(chunk_id: str) -> str:
        text = cache.get(chunk_id)
        if text is None:
            text = cache[chunk_id] = f" {normalize_answer(text_lookup(chunk_id))} "
        return text

    firsts = [_hit_horizons(t, refs, k, haystack) for t, refs in zip(traces, refs_list)]
    return [
        sum(1 for first in firsts if first is not None and first <= h) / len(traces)
        for h in range(1, horizon + 1)
    ]


# --- scoring modes -----------------------------------------------------------


def _first_true_index(trace: RunTrace) -> int | None:
    for i, rec in enumerate(trace.iterations):
        if rec.verdict is not None and rec.verdict.choice:
            return i
    return None


def _correct_at_horizon(trace: RunTrace, refs, mode: str, h: int) -> bool:
    if mode == "verified_all":
        return any(exact_match(rec.answer, refs) for rec in trace.iterations[:h])
    if mode == "verified_true":
        return any(
            rec.verdict is not None and rec.verdict.choice and exact_match(rec.answer, refs)
            for rec in trace.iterations[:h]
        )
    # base: the first True-judged answer is the answer; no True means no answer.
    first = _first_true_index(trace)
    return first is not None and first < h and exact_match(trace.iterations[first].answer, refs)


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
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
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
        horizon = max((len(t.iterations) for t in traces), default=0)
        per_iteration = [
            _mean([_correct_at_horizon(t, refs, mode, h) for t, refs in zip(traces, refs_list)])
            for h in range(1, horizon + 1)
        ]
        accuracy = per_iteration[-1] if per_iteration else 0.0
    return EvalResult(
        mode=mode,
        accuracy=accuracy,
        n=len(traces),
        per_iteration_accuracy=per_iteration,
        avg_iterations=avg_iteration_count(traces),
        deltas=delta_stats(traces),
        latency=latency_report(traces),
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


@dataclass
class DeltaStats:
    """Per-step means of newly seen keywords/documents, steps numbered from 2."""

    keyword_step_means: dict[int, float]
    doc_step_means: dict[int, float]
    keyword_total: float
    keyword_mean: float
    doc_total: float
    doc_mean: float


def delta_stats(traces: Sequence[RunTrace]) -> DeltaStats:
    """Recompute keyword/document novelty per step from the raw sets in the traces.

    For step s >= 2 (iteration index s-1), novelty is measured against the
    union of everything from earlier iterations, averaged over traces that
    reach step s. Totals sum the per-step means; the mean divides by the
    number of regeneration steps.
    """
    horizon = max((len(t.iterations) for t in traces), default=0)
    kw_means: dict[int, float] = {}
    doc_means: dict[int, float] = {}
    for step in range(2, horizon + 1):
        counts = [
            novelty(trace.iterations[: step - 1], rec.keywords, rec.retrieved)
            for trace in traces
            for rec in trace.iterations[step - 1 : step]
        ]
        kw_means[step] = _mean(new_keywords for new_keywords, _ in counts)
        doc_means[step] = _mean(new_docs for _, new_docs in counts)
    kw_total = sum(kw_means.values())
    doc_total = sum(doc_means.values())
    steps = max(horizon - 1, 0)
    return DeltaStats(
        keyword_step_means=kw_means,
        doc_step_means=doc_means,
        keyword_total=kw_total,
        keyword_mean=kw_total / steps if steps else 0.0,
        doc_total=doc_total,
        doc_mean=doc_total / steps if steps else 0.0,
    )


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
    mode: str
    accuracy: float
    n: int
    per_iteration_accuracy: list[float]
    avg_iterations: float
    deltas: DeltaStats | None = None
    latency: dict[str, float] | None = None
    recall_at: dict[int, float] | None = None
    recall_curves: dict[int, list[float]] | None = None
    recall_mean_over_horizons: dict[int, float] | None = None

    def to_dict(self) -> dict:
        d = {
            "mode": self.mode,
            "accuracy": self.accuracy,
            "n": self.n,
            "per_iteration_accuracy": self.per_iteration_accuracy,
            "avg_iterations": self.avg_iterations,
        }
        if self.deltas is not None:
            d["keyword_deltas"] = {
                "per_step": {str(k): v for k, v in self.deltas.keyword_step_means.items()},
                "total": self.deltas.keyword_total,
                "mean": self.deltas.keyword_mean,
            }
            d["doc_deltas"] = {
                "per_step": {str(k): v for k, v in self.deltas.doc_step_means.items()},
                "total": self.deltas.doc_total,
                "mean": self.deltas.doc_mean,
            }
        if self.latency is not None:
            d["latency_seconds"] = self.latency
        if self.recall_at is not None:
            d["recall_at"] = {str(k): v for k, v in self.recall_at.items()}
        if self.recall_curves is not None:
            d["recall_curves"] = {str(k): v for k, v in self.recall_curves.items()}
        if self.recall_mean_over_horizons is not None:
            d["recall_mean_over_horizons"] = {
                str(k): v for k, v in self.recall_mean_over_horizons.items()
            }
        return d


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
        result.recall_at = {}
        result.recall_curves = {}
        result.recall_mean_over_horizons = {}
        haystacks: dict[str, str] = {}
        for k in recall_ks:
            curve = recall_curve(traces, refs_list, k, text_lookup, haystacks)
            result.recall_curves[k] = curve
            result.recall_at[k] = curve[-1] if curve else 0.0
            result.recall_mean_over_horizons[k] = _mean(curve)
    return result
