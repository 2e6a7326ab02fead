"""The keyword loop and the two baselines it is compared with, run by one routine.

`_run` answers a question by any of the three methods, building each
IterationRecord in place as its iteration runs: iterative repeats keywords →
retrieve → answer → validate; rag is one iteration with no keyword step and no
validation, the question itself being the query; vanilla is one answer call with
no retrieval. Every call goes to the run's one backend and names its step's
model (RunConfig's keyword_model, answer_model, validation_model). Within one
trace, calls follow program order except in two overlaps, started with the
backend's `submit`: a docwise round sends its per-document calls at once, the
last from the question's own thread, and without early stop each iteration's
answer → validate runs beside the next iteration's keyword round, which needs
neither its answer nor its verdict. The records and the trace are the same as a
sequential run's. Questions may run concurrently (each writes only its own
records; the backend handles its own synchronization). The pipeline never sees
reference answers: nothing in this module takes them as input, so leakage is
impossible by construction.
"""
from __future__ import annotations

import time
from concurrent.futures import Future, wait
from contextlib import contextmanager
from dataclasses import dataclass, field

from .bm25 import Index, ScoredDoc, retrieve_top_k, score_text
from .corpus import record
from .llm import LlmBackend
from .prompts import (
    BinaryVerdict,
    KeywordParseError,
    PromptTemplate,
    dedupe_keywords,
    format_documents,
    format_keywords,
    parse_cot_verdict,
    parse_keyword_list,
    render,
    verdict_from_text,
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
# The readings `keyrag eval` scores traces by (metrics.score_mode), declared here
# so that the CLI's parser needs no metrics import.
EVAL_MODES = ("em", "base", "verified_true", "verified_all")

# Generation budgets in tokens; every call is greedy (temperature 0).
KEYWORD_MAX_TOKENS = 50
ANSWER_MAX_TOKENS = 50
VALIDATION_MAX_TOKENS = 30


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
    # The model each step's requests name; None leaves the backend's own.
    keyword_model: str | None = None
    answer_model: str | None = None
    validation_model: str | None = None

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

    @property
    def calls_in_flight(self) -> int:
        """The LLM calls one question keeps in flight, across all steps, to size the backend by.

        A docwise round sends top_k at once, any other keyword round one; without
        early stop, two answer → validate halves run beside the rounds.
        """
        per_round = self.top_k if self.regen_mode == "docwise" else 1
        return per_round if self.early_stop else per_round + 2


@dataclass
class IterationRecord:
    """One iteration of a question; trace_to_dict and trace_from_dict follow these fields."""

    index: int
    keywords: list[str] = field(default_factory=list)
    expanded_query: str = ""
    retrieved: list[ScoredDoc] = field(default_factory=list)
    answer: str = ""
    verdict: BinaryVerdict | None = None
    new_keywords: int = 0
    new_docs: int = 0
    wall_time_ms: dict[str, float] = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)
    raw: list[dict] | None = None


@dataclass
class RunTrace:
    question: str
    method: str
    iterations: list[IterationRecord] = field(default_factory=list)
    stop_reason: str | None = None
    final_answer: str = ""
    early_stop: bool = True
    error: str | None = None


def expand_query(question: str, keywords: list[str]) -> str:
    """Question followed by the keywords, single-space separated; empty set → question."""
    if not keywords:
        return question
    return question.rstrip() + " " + " ".join(keywords)


@contextmanager
def _timed(rec: IterationRecord, step: str):
    """Record the block's wall time, in milliseconds, as the record's time for step."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        rec.wall_time_ms[step] = (time.perf_counter() - t0) * 1000.0


def _record_raw(rec: IterationRecord, step: str, messages, completion: str) -> None:
    if rec.raw is None:
        return
    rec.raw.append(
        {
            "step": step,
            "system": messages[0].content,
            "user": messages[1].content,
            "completion": completion,
        }
    )


def _keywords(question, prev_keywords, prev_doc_texts, backend, config, rec) -> list[str]:
    """One keyword round: the first when prev_keywords is None, else a refinement.

    A docwise refinement has a prompt per previous document, other rounds one.
    The last runs on this thread, the others through submit; once all have
    returned, the first error in prompt order is raised. Only a one-prompt round
    asks again for a reply that does not parse. If no reply parsed, the first
    round goes on with no keywords and a later round with the previous set.
    """
    docwise = prev_keywords is not None and bool(prev_doc_texts) and config.regen_mode == "docwise"
    docs = [{}]  # what each prompt adds to the bindings
    if prev_keywords is None:
        step, failed_flag = "keyword_generation", "keyword_parse_failed"
        template_id, bindings = "step1_keywords", {"q": question}
    else:
        failed_flag = "keyword_parse_failed_reused_previous"
        bindings = {"q": question, "K": format_keywords(prev_keywords)}
        if docwise:
            step, template_id = "keyword_regeneration_docwise", "step4_regen_docwise"
            docs = [{"Docs": format_documents([doc_text])} for doc_text in prev_doc_texts]
        else:
            step = "keyword_regeneration"
            template_id = "step4_regen_cot" if config.validation_mode == "cot" else "step4_regen"
    batch = [render(template_id, {**bindings, **doc}, config.templates) for doc in docs]
    model = config.keyword_model
    calls = [backend.submit(backend.complete, m, KEYWORD_MAX_TOKENS, model) for m in batch[:-1]]
    try:
        last = backend.complete(batch[-1], KEYWORD_MAX_TOKENS, model)  # no thread hop for this one
    finally:
        wait(calls)
        replies = [call.result() for call in calls]  # an earlier call's error is raised first
    replies.append(last)

    def parsed(messages, reply) -> list[str]:
        _record_raw(rec, step, messages, reply)
        try:
            return parse_keyword_list(reply)
        except KeywordParseError:
            return []

    merged: list[str] = []
    for messages, reply in zip(batch, replies):
        keywords = parsed(messages, reply)
        if not keywords and docwise:
            rec.flags.append("docwise_parse_failed")
        elif not keywords:
            rec.flags.append("keyword_parse_retry")
            keywords = parsed(messages, backend.complete(messages, KEYWORD_MAX_TOKENS, model))
        merged += keywords
    if merged:
        return dedupe_keywords(merged)
    rec.flags.append(failed_flag)
    return list(prev_keywords or [])


def _validate(question, doc_texts, backend, config, rec) -> BinaryVerdict:
    """The verdict on rec.answer: the one place a verdict is decided.

    Plain mode probes first: the likelier option wins, a tie going to False. In
    CoT mode, or when the probe gives no probabilities, one reply is generated
    and read by its Conclusion line (CoT) or its first true/false word (plain).
    The raw entry is the reply in CoT mode, else verdict=<choice>.
    """
    bindings = {"q": question, "a": rec.answer, "Docs": format_documents(doc_texts)}
    cot = config.validation_mode == "cot"
    messages = render("step3_validate_cot" if cot else "step3_validate", bindings, config.templates)
    model = config.validation_model
    probs = None if cot else backend.choice_probs(messages, model)
    if probs is None:
        reply = backend.complete(messages, VALIDATION_MAX_TOKENS, model)
        verdict = parse_cot_verdict(reply) if cot else verdict_from_text(reply)
    else:
        p_true, p_false = probs
        verdict = BinaryVerdict(p_true > p_false, p_true, p_false, "logprob")
    _record_raw(rec, STEP_VALIDATION, messages, reply if cot else f"verdict={verdict.choice}")
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
    backend: LlmBackend,
    config: RunConfig,
) -> RunTrace:
    """Answer one question by any method: the one place its records and trace are built.

    index may be pending: a Future of the Index, waited on just before the
    first retrieval, so a question's first keyword round can run while the
    index loads. A failed load raises its exception there; vanilla never
    waits. The wait is in no step's wall time. The question's own words are
    scored once, in the first retrieval step, and each iteration's search adds
    its keywords to those scores.

    Only the keyword loop has keyword steps, validation and more than one
    iteration; only vanilla skips retrieval and answers from the bare question.
    An iteration's front half (keywords → retrieve) creates its record; its back
    half (answer → validate) fills in the answer and verdict. Without early stop
    no keyword round needs either, so each back half goes to backend.submit and
    the next front starts at once; the first failure in sequential order is
    raised after every call has returned.
    """
    refine = method == METHOD_ITERATIVE
    retrieve = method != METHOD_VANILLA
    overlap = refine and not config.early_stop
    records: list[IterationRecord] = []
    backs: list[Future] = []  # the overlapped back halves
    doc_texts: list[str] = []
    all_texts: dict[str, None] = {}  # in retrieval order, each text once
    question_scores: list[float] | None = None  # each chunk's score for the question

    def answer_and_validate(rec, doc_texts, validation_docs):
        with _timed(rec, STEP_ANSWER):
            if retrieve:
                bindings = {"q": question, "D": format_documents(doc_texts)}
                messages = render("step2_answer", bindings, config.templates)
            else:
                messages = render("vanilla_answer", {"q": question}, config.templates)
            rec.answer = backend.complete(messages, ANSWER_MAX_TOKENS, config.answer_model).strip()
            _record_raw(rec, STEP_ANSWER, messages, rec.answer)
        if refine:
            with _timed(rec, STEP_VALIDATION):
                rec.verdict = _validate(question, validation_docs, backend, config, rec)
            if rec.verdict.flagged:
                rec.flags.append("verdict_unparsed")

    try:
        for i in range(config.max_iterations if refine else 1):
            rec = IterationRecord(i, raw=[] if config.save_raw else None)
            if refine:
                prev_keywords = records[-1].keywords if records else None
                with _timed(rec, STEP_QUERY_EXPANSION):
                    # doc_texts still holds the previous iteration's documents.
                    rec.keywords = _keywords(
                        question, prev_keywords, doc_texts, backend, config, rec
                    )

            rec.expanded_query = expand_query(question, rec.keywords)
            if retrieve:
                if isinstance(index, Future):
                    index = index.result()
                with _timed(rec, STEP_RETRIEVAL):
                    if question_scores is None:
                        question_scores = score_text(index, question)
                    # tokenize(expanded_query) is the question's tokens, then these.
                    rec.retrieved = retrieve_top_k(
                        index, " ".join(rec.keywords), config.top_k, question_scores
                    )
                if not rec.retrieved and not refine:  # rag answers from no document at all
                    rec.flags.append("empty_retrieval")
            rec.new_keywords, rec.new_docs = novelty(records, rec.keywords, rec.retrieved)
            doc_texts = [index.text_of(doc.chunk_id) for doc in rec.retrieved]
            all_texts.update(dict.fromkeys(doc_texts))
            if any(back.done() and back.exception() for back in backs):
                break  # an earlier back half failed: its error is raised below
            records.append(rec)

            validation_docs = list(all_texts) if config.accumulate_validation_docs else doc_texts
            if overlap:
                backs.append(backend.submit(answer_and_validate, rec, doc_texts, validation_docs))
            else:  # early stop waits for the verdict: no thread hop for it
                answer_and_validate(rec, doc_texts, validation_docs)
                if rec.verdict and rec.verdict.choice:
                    break
    finally:
        # Every call returns before the question ends. A failed back half is
        # raised in place of a later front's error, as a sequential run would.
        wait(backs)
        for back in backs:
            back.result()

    last = records[-1]
    stop_reason = None
    if refine:
        stop_reason = STOP_VALIDATED if last.verdict.choice else STOP_BUDGET
    early_stop = refine and config.early_stop
    return RunTrace(question, method, records, stop_reason, last.answer, early_stop)


def run(
    method: str,
    question: str,
    index: Index | Future | None,
    backend: LlmBackend,
    config: RunConfig,
) -> RunTrace:
    """Answer one question by the named method (one of METHODS).

    Vanilla does not use the index. index may be a Future of the Index, as _run
    describes.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == METHOD_ITERATIVE:
        # Through the public entry point, so that wrapping run_iterative (as
        # perfbench's traced run does) sees every question of an iterative run.
        return run_iterative(question, index, backend, config)
    return _run(method, question, index, backend, config)


def run_iterative(
    question: str,
    index: Index | Future,
    backend: LlmBackend,
    config: RunConfig | None = None,
) -> RunTrace:
    """Run the keyword loop: generate keywords, retrieve, answer, validate, refine.

    Stops on a True verdict (unless early stopping is disabled) or after
    max_iterations. The final answer is always the last iteration's answer.
    """
    return _run(METHOD_ITERATIVE, question, index, backend, config or RunConfig())


# --- trace (de)serialization -------------------------------------------------

TRACE_SCHEMA_VERSION = 1


def trace_to_dict(trace: RunTrace, qid: int | None = None) -> dict:
    """The trace as a JSON-ready dict: its fields, its records' fields, v and qid."""
    iterations = []
    for rec in trace.iterations:
        fields = vars(rec).copy()
        fields["retrieved"] = [vars(doc).copy() for doc in rec.retrieved]
        fields["verdict"] = None if rec.verdict is None else vars(rec.verdict).copy()
        if rec.raw is None:
            del fields["raw"]
        iterations.append(fields)
    d = vars(trace).copy()
    d["v"] = TRACE_SCHEMA_VERSION
    d["iterations"] = iterations
    if qid is not None:
        d["qid"] = qid
    return d


def trace_from_dict(d: dict) -> RunTrace:
    """The trace that trace_to_dict wrote, sharing d's lists but its records'; qid is ignored.

    A field left out takes its default, but iterations and each record's
    retrieved must be there. Another schema version, or a record that
    corpus.record refuses, raises ValueError.
    """
    if d.get("v") != TRACE_SCHEMA_VERSION:
        raise ValueError(f"trace schema v{d.get('v')}, expected v{TRACE_SCHEMA_VERSION}")
    trace = record(RunTrace, {k: v for k, v in d.items() if k not in ("v", "qid")})
    if "iterations" not in d:
        raise ValueError("missing 'iterations'")
    if not all("retrieved" in rec for rec in d["iterations"]):
        raise ValueError("missing 'retrieved'")
    return trace
