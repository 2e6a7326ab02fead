"""The keyword loop and the two baselines it is compared with, run by one routine.

`_run` answers a question by any of the three methods and builds every
IterationRecord and RunTrace: iterative repeats keywords → retrieve → answer →
validate; rag is one iteration with no keyword step and no validation, the
question itself being the query; vanilla is one answer call with no retrieval.
Within one trace, calls follow program order, except that without early stop
each iteration's answer → validate runs beside the next iteration's keyword
round, which needs neither its answer nor its verdict; the records and the
trace are the same as a sequential run's. Traces for different questions may
run concurrently (records are immutable once emitted, and backends handle
their own synchronization). The pipeline never sees reference answers:
nothing in this module takes them as input, so leakage is impossible by
construction.
"""
from __future__ import annotations

import time
from concurrent.futures import Future, wait
from contextlib import contextmanager
from dataclasses import dataclass, field

from .bm25 import Index, ScoredDoc, retrieve_top_k
from .llm import BinaryVerdict, LlmBackend, forced_choice
from .prompts import (
    KeywordParseError,
    PromptTemplate,
    dedupe_keywords,
    format_documents,
    format_keywords,
    parse_cot_verdict,
    parse_keyword_list,
    render,
)

STEP_QUERY_EXPANSION = "query_expansion"
STEP_RETRIEVAL = "retrieval"
STEP_ANSWER = "answer_generation"
STEP_VALIDATION = "answer_validation"

REGEN_MODES = ("keywords_only", "docwise")
VALIDATION_MODES = ("plain", "cot")

STOP_VALIDATED = "validated_true"
STOP_BUDGET = "budget_exhausted"

METHOD_ITERATIVE = "iterative"
METHOD_RAG = "rag"
METHOD_VANILLA = "vanilla"
METHODS = (METHOD_VANILLA, METHOD_RAG, METHOD_ITERATIVE)

# Generation budgets in tokens; every call is greedy (temperature 0).
KEYWORD_MAX_TOKENS = 50
ANSWER_MAX_TOKENS = 50
VALIDATION_MAX_TOKENS = 30


@dataclass
class StepBackends:
    """Backends per step; any subset may share one object."""

    keyword_gen: LlmBackend
    answer_gen: LlmBackend
    validate: LlmBackend

    @classmethod
    def shared(cls, backend: LlmBackend) -> "StepBackends":
        return cls(keyword_gen=backend, answer_gen=backend, validate=backend)

    def close(self) -> None:
        for backend in (self.keyword_gen, self.answer_gen, self.validate):
            backend.close()


@dataclass
class RunConfig:
    max_iterations: int = 5
    top_k: int = 3
    regen_mode: str = "keywords_only"
    validation_mode: str = "plain"
    early_stop: bool = True
    # When set, the validation prompt sees every document retrieved so far
    # instead of only the current iteration's.
    accumulate_validation_docs: bool = False
    save_raw: bool = False
    templates: dict[str, PromptTemplate] | None = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.regen_mode not in REGEN_MODES:
            raise ValueError(f"regen_mode must be one of {REGEN_MODES}, got {self.regen_mode!r}")
        if self.validation_mode not in VALIDATION_MODES:
            raise ValueError(
                f"validation_mode must be one of {VALIDATION_MODES}, got {self.validation_mode!r}"
            )


@dataclass
class IterationRecord:
    index: int
    keywords: list[str]
    expanded_query: str
    retrieved: list[ScoredDoc]
    answer: str
    verdict: BinaryVerdict | None
    new_keywords: int
    new_docs: int
    wall_time_ms: dict[str, float]
    flags: list[str] = field(default_factory=list)
    raw: list[dict] | None = None


@dataclass
class RunTrace:
    question: str
    method: str
    iterations: list[IterationRecord]
    stop_reason: str | None
    final_answer: str
    early_stop: bool
    error: str | None = None


def expand_query(question: str, keywords: list[str]) -> str:
    """Question followed by the keywords, single-space separated; empty set → question."""
    if not keywords:
        return question
    return question.rstrip() + " " + " ".join(keywords)


@contextmanager
def _timed(ms: dict[str, float], step: str):
    """Add the block's wall time, in milliseconds, to ms[step]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        ms[step] = ms.get(step, 0.0) + (time.perf_counter() - t0) * 1000.0


def _record_raw(raws: list[dict] | None, step: str, messages, completion: str) -> None:
    if raws is None:
        return
    raws.append(
        {
            "step": step,
            "system": messages[0].content,
            "user": messages[1].content,
            "completion": completion,
        }
    )


def _keywords(question, prev_keywords, backends, config, flags, raws) -> list[str]:
    """First-round keywords when prev_keywords is None, else a refinement of them.

    A reply that does not parse is asked for once more. If that fails too, the
    first round goes on with no keywords and a later round with the previous set.
    """
    if prev_keywords is None:
        messages = render("step1_keywords", {"q": question}, config.templates)
        step, failed_flag = "keyword_generation", "keyword_parse_failed"
    else:
        template_id = "step4_regen_cot" if config.validation_mode == "cot" else "step4_regen"
        messages = render(
            template_id, {"q": question, "K": format_keywords(prev_keywords)}, config.templates
        )
        step, failed_flag = "keyword_regeneration", "keyword_parse_failed_reused_previous"
    for attempt in (0, 1):
        reply = backends.keyword_gen.complete(messages, KEYWORD_MAX_TOKENS)
        _record_raw(raws, step, messages, reply)
        try:
            return parse_keyword_list(reply)
        except KeywordParseError:
            if attempt == 0:
                flags.append("keyword_parse_retry")
    flags.append(failed_flag)
    return list(prev_keywords or [])


def _keywords_regen_docwise(
    question, prev_keywords, prev_doc_texts, backends, config, flags, raws
) -> list[str]:
    # The per-document calls are independent: send them as one batch, then
    # merge the replies in document order.
    batch = [
        render(
            "step4_regen_docwise",
            {
                "q": question,
                "K": format_keywords(prev_keywords),
                "Docs": format_documents([doc_text]),
            },
            config.templates,
        )
        for doc_text in prev_doc_texts
    ]
    replies = backends.keyword_gen.complete_many(batch, KEYWORD_MAX_TOKENS)
    merged: list[str] = []
    for messages, reply in zip(batch, replies):
        _record_raw(raws, "keyword_regeneration_docwise", messages, reply)
        try:
            merged.extend(parse_keyword_list(reply))
        except KeywordParseError:
            flags.append("docwise_parse_failed")
    keywords = dedupe_keywords(merged)
    if not keywords:
        flags.append("keyword_parse_failed_reused_previous")
        return list(prev_keywords)
    return keywords


def _validate(question, answer, doc_texts, backends, config, raws) -> BinaryVerdict:
    bindings = {"q": question, "a": answer, "Docs": format_documents(doc_texts)}
    if config.validation_mode == "cot":
        messages = render("step3_validate_cot", bindings, config.templates)
        reply = backends.validate.complete(messages, VALIDATION_MAX_TOKENS)
        _record_raw(raws, "answer_validation", messages, reply)
        return parse_cot_verdict(reply)
    messages = render("step3_validate", bindings, config.templates)
    verdict = forced_choice(backends.validate, messages, VALIDATION_MAX_TOKENS)
    _record_raw(raws, "answer_validation", messages, f"verdict={verdict.choice}")
    return verdict


def novelty(
    earlier: list[IterationRecord], keywords: list[str], retrieved: list[ScoredDoc]
) -> tuple[int, int]:
    """(new keywords, new documents) of one iteration against all earlier ones.

    Keywords compare case-folded and documents by chunk id; each counts once.
    """
    seen_keywords = {kw.casefold() for rec in earlier for kw in rec.keywords}
    seen_docs = {doc.chunk_id for rec in earlier for doc in rec.retrieved}
    return (
        len({kw.casefold() for kw in keywords} - seen_keywords),
        len({doc.chunk_id for doc in retrieved} - seen_docs),
    )


def _run(
    method: str,
    question: str,
    index: Index | Future | None,
    backends: StepBackends,
    config: RunConfig,
) -> RunTrace:
    """Answer one question by any method: the one place its records and trace are built.

    index may be pending: a Future of the Index, waited on just before the
    first retrieval, so a question's first keyword round can run while the
    index loads. A failed load raises its exception there; vanilla never
    waits. The wait is in no step's wall time.

    Only the keyword loop has keyword steps, validation and more than one
    iteration; only vanilla skips retrieval and answers from the bare question.
    Each iteration has a front half (keywords → retrieve), run here, and a back
    half (answer → validate). Without early stop no keyword round needs an
    answer or a verdict, so each back half goes to backends.answer_gen.submit
    and the next front starts at once. Records are built in iteration order
    once every back half has returned; the first failure in sequential order
    is raised, only after every call of the question has returned.
    """
    refine = method == METHOD_ITERATIVE
    retrieve = method != METHOD_VANILLA
    overlap = refine and not config.early_stop
    fronts: list[tuple] = []
    backs: list = []  # per iteration: (answer, verdict), or a Future of it when overlapped
    prev_keywords: list[str] | None = None
    prev_doc_texts: list[str] = []
    all_doc_texts: list[str] = []

    def answer_and_validate(doc_texts, validation_docs, ms, flags, raws):
        with _timed(ms, STEP_ANSWER):
            if retrieve:
                bindings = {"q": question, "D": format_documents(doc_texts)}
                messages = render("step2_answer", bindings, config.templates)
            else:
                messages = render("vanilla_answer", {"q": question}, config.templates)
            answer = backends.answer_gen.complete(messages, ANSWER_MAX_TOKENS).strip()
            _record_raw(raws, STEP_ANSWER, messages, answer)
        verdict = None
        if refine:
            with _timed(ms, STEP_VALIDATION):
                verdict = _validate(question, answer, validation_docs, backends, config, raws)
            if verdict.flagged:
                flags.append("verdict_unparsed")
        return answer, verdict

    try:
        for _ in range(config.max_iterations if refine else 1):
            ms: dict[str, float] = {}
            flags: list[str] = []
            raws: list[dict] | None = [] if config.save_raw else None

            keywords: list[str] = []
            if refine:
                with _timed(ms, STEP_QUERY_EXPANSION):
                    if prev_keywords is not None and config.regen_mode == "docwise":
                        keywords = _keywords_regen_docwise(
                            question, prev_keywords, prev_doc_texts, backends, config, flags, raws
                        )
                    else:
                        keywords = _keywords(question, prev_keywords, backends, config, flags, raws)

            expanded = expand_query(question, keywords)
            retrieved: list[ScoredDoc] = []
            if retrieve:
                if isinstance(index, Future):
                    index = index.result()
                with _timed(ms, STEP_RETRIEVAL):
                    retrieved = retrieve_top_k(index, expanded, config.top_k)
                if not retrieved and not refine:  # rag answers from no document at all
                    flags.append("empty_retrieval")
            doc_texts = [index.text_of(doc.chunk_id) for doc in retrieved]
            for text in doc_texts:
                if text not in all_doc_texts:
                    all_doc_texts.append(text)
            if overlap and any(back.done() and back.exception() for back in backs):
                break  # an earlier back half failed: its error is raised below
            fronts.append((keywords, expanded, retrieved, ms, flags, raws))

            # A copy: later fronts go on appending to all_doc_texts.
            validation_docs = (
                list(all_doc_texts) if config.accumulate_validation_docs else doc_texts
            )
            back_args = (doc_texts, validation_docs, ms, flags, raws)
            if overlap:
                backs.append(backends.answer_gen.submit(answer_and_validate, *back_args))
            else:
                backs.append(answer_and_validate(*back_args))
                verdict = backs[-1][1]
                if verdict and verdict.choice and config.early_stop:
                    break
            prev_keywords = keywords
            prev_doc_texts = doc_texts
    finally:
        if overlap:
            # Every call returns before the question ends. A failed back half
            # is raised in place of a later front's error, as a sequential run would.
            wait(backs)
            backs = [back.result() for back in backs]

    records: list[IterationRecord] = []
    for i, ((keywords, expanded, retrieved, ms, flags, raws), (answer, verdict)) in enumerate(
        zip(fronts, backs)
    ):
        new_keywords, new_docs = novelty(records, keywords, retrieved)
        records.append(
            IterationRecord(
                index=i,
                keywords=keywords,
                expanded_query=expanded,
                retrieved=retrieved,
                answer=answer,
                verdict=verdict,
                new_keywords=new_keywords,
                new_docs=new_docs,
                wall_time_ms=ms,
                flags=flags,
                raw=raws,
            )
        )

    last = records[-1]
    stop_reason = None
    if refine:
        stop_reason = STOP_VALIDATED if last.verdict.choice else STOP_BUDGET
    return RunTrace(
        question=question,
        method=method,
        iterations=records,
        stop_reason=stop_reason,
        final_answer=last.answer,
        early_stop=refine and config.early_stop,
    )


def run(
    method: str,
    question: str,
    index: Index | Future | None,
    backends: StepBackends,
    config: RunConfig,
) -> RunTrace:
    """Answer one question by the named method (one of METHODS).

    The baselines answer with backends.answer_gen; vanilla does not use the
    index. index may be a Future of the Index, as _run describes.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == METHOD_ITERATIVE:
        # Through the public entry point, so that wrapping run_iterative (as
        # perfbench's traced run does) sees every question of an iterative run.
        return run_iterative(question, index, backends, config)
    return _run(method, question, index, backends, config)


def run_iterative(
    question: str,
    index: Index | Future,
    backends: StepBackends,
    config: RunConfig | None = None,
) -> RunTrace:
    """Run the keyword loop: generate keywords, retrieve, answer, validate, refine.

    Stops on a True verdict (unless early stopping is disabled) or after
    max_iterations. The final answer is always the last iteration's answer.
    """
    return _run(METHOD_ITERATIVE, question, index, backends, config or RunConfig())


# --- trace (de)serialization -------------------------------------------------

TRACE_SCHEMA_VERSION = 1


def _verdict_to_dict(verdict: BinaryVerdict | None) -> dict | None:
    if verdict is None:
        return None
    return {
        "choice": verdict.choice,
        "p_true": verdict.p_true,
        "p_false": verdict.p_false,
        "method": verdict.method,
        "flagged": verdict.flagged,
    }


def _verdict_from_dict(d: dict | None) -> BinaryVerdict | None:
    if d is None:
        return None
    return BinaryVerdict(
        choice=d["choice"],
        p_true=d.get("p_true"),
        p_false=d.get("p_false"),
        method=d.get("method", "text-fallback"),
        flagged=d.get("flagged", False),
    )


def trace_to_dict(trace: RunTrace, qid: int | None = None) -> dict:
    d = {
        "v": TRACE_SCHEMA_VERSION,
        "question": trace.question,
        "method": trace.method,
        "stop_reason": trace.stop_reason,
        "final_answer": trace.final_answer,
        "early_stop": trace.early_stop,
        "error": trace.error,
        "iterations": [
            {
                "index": rec.index,
                "keywords": rec.keywords,
                "expanded_query": rec.expanded_query,
                "retrieved": [{"chunk_id": s.chunk_id, "score": s.score} for s in rec.retrieved],
                "answer": rec.answer,
                "verdict": _verdict_to_dict(rec.verdict),
                "new_keywords": rec.new_keywords,
                "new_docs": rec.new_docs,
                "wall_time_ms": rec.wall_time_ms,
                "flags": rec.flags,
                **({"raw": rec.raw} if rec.raw is not None else {}),
            }
            for rec in trace.iterations
        ],
    }
    if qid is not None:
        d["qid"] = qid
    return d


def trace_from_dict(d: dict) -> RunTrace:
    iterations = [
        IterationRecord(
            index=rec["index"],
            keywords=list(rec["keywords"]),
            expanded_query=rec["expanded_query"],
            retrieved=[ScoredDoc(s["chunk_id"], s["score"]) for s in rec["retrieved"]],
            answer=rec["answer"],
            verdict=_verdict_from_dict(rec.get("verdict")),
            new_keywords=rec["new_keywords"],
            new_docs=rec["new_docs"],
            wall_time_ms=dict(rec.get("wall_time_ms", {})),
            flags=list(rec.get("flags", [])),
            raw=rec.get("raw"),
        )
        for rec in d["iterations"]
    ]
    return RunTrace(
        question=d["question"],
        method=d.get("method", METHOD_ITERATIVE),
        iterations=iterations,
        stop_reason=d.get("stop_reason"),
        final_answer=d.get("final_answer", ""),
        early_stop=d.get("early_stop", True),
        error=d.get("error"),
    )
