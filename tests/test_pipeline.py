from __future__ import annotations

import inspect
import json
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyrag.bm25 import ScoredDoc, build_index, retrieve_top_k
from keyrag.corpus import chunk_corpus
from keyrag.llm import (
    BackendError,
    HttpBackend,
    LlmBackend,
    MockBackend,
    ScriptEntry,
    TransportError,
)
from keyrag.pipeline import (
    STOP_BUDGET,
    STOP_VALIDATED,
    IterationRecord,
    RunConfig,
    RunTrace,
    expand_query,
    run,
    run_iterative,
    trace_from_dict,
    trace_to_dict,
)
from keyrag.prompts import BinaryVerdict

from .helpers import (
    MOON_DOCS,
    MOON_QUESTION,
    RecordingMock,
    StubLlmServer,
    completion_body,
    index_from_texts,
    logprob_body,
    oracle_top_k,
    walkthrough_script,
)


@pytest.fixture()
def moon_index():
    return build_index(chunk_corpus(MOON_DOCS, 256, 50))


def _always_false_script(n_iterations: int) -> list[ScriptEntry]:
    entries = [ScriptEntry("Generate a list of important keywords", '["kw0"]')]
    for i in range(n_iterations):
        if i > 0:
            entries.append(ScriptEntry("Refine the keyword selection", f'["kw{i}"]'))
        entries.append(ScriptEntry("Here is a question", f"answer {i}"))
        entries.append(ScriptEntry("Is the following answer correct", p_true=0.1, p_false=0.9))
    return entries


# --- expand_query ---------------------------------------------------------------


def test_expand_query_joins_keywords():
    assert (
        expand_query("Who wrote Hamlet?", ["Shakespeare", "playwright"])
        == "Who wrote Hamlet? Shakespeare playwright"
    )


def test_expand_query_empty_keywords_identity():
    assert expand_query("Who wrote Hamlet?", []) == "Who wrote Hamlet?"


def test_expand_query_normalizes_trailing_space():
    expanded = expand_query("Who wrote Hamlet? ", ["Shakespeare"])
    assert expanded == "Who wrote Hamlet? Shakespeare"
    assert expanded.startswith("Who wrote Hamlet?")


# --- the loop ---------------------------------------------------------------------


def test_two_round_walkthrough(moon_index):
    mock = RecordingMock(walkthrough_script())
    trace = run_iterative(MOON_QUESTION, moon_index, mock)
    assert len(trace.iterations) == 2
    assert trace.stop_reason == STOP_VALIDATED
    assert trace.final_answer == "Eagle"
    assert len(mock.calls) == 6
    assert trace.iterations[0].keywords == ["Moon landing", "Spacecraft", "First humans"]
    assert trace.iterations[0].answer == "Space Shuttle Challenger"
    assert trace.iterations[0].verdict.choice is False
    assert trace.iterations[1].keywords == ["Apollo 11", "Lunar module name"]
    assert trace.iterations[1].verdict.choice is True


def test_budget_exhausted_runs_n_iterations(moon_index):
    mock = RecordingMock(_always_false_script(5))
    trace = run_iterative(MOON_QUESTION, moon_index, mock)
    assert len(trace.iterations) == 5
    assert trace.stop_reason == STOP_BUDGET
    assert trace.final_answer == "answer 4"
    assert len(mock.calls) == 15  # 3 calls per iteration


def test_immediate_true_single_iteration(moon_index):
    mock = RecordingMock([
        ScriptEntry("Generate a list of important keywords", '["Apollo 11"]'),
        ScriptEntry("Here is a question", "Eagle"),
        ScriptEntry("Is the following answer correct", p_true=0.9, p_false=0.1),
    ])
    trace = run_iterative(MOON_QUESTION, moon_index, mock)
    assert len(trace.iterations) == 1
    assert len(mock.calls) == 3
    assert trace.stop_reason == STOP_VALIDATED


def test_no_early_stop_runs_full_budget(moon_index):
    entries = [
        ScriptEntry("Generate a list of important keywords", '["Apollo 11"]'),
        ScriptEntry("Here is a question", "Eagle"),
        ScriptEntry("Is the following answer correct", p_true=0.9, p_false=0.1),
    ]
    for i in range(1, 3):
        entries.append(ScriptEntry("Refine the keyword selection", f'["kw{i}"]'))
        entries.append(ScriptEntry("Here is a question", f"alt {i}"))
        entries.append(ScriptEntry("Is the following answer correct", p_true=0.9, p_false=0.1))
    mock = MockBackend(entries)
    config = RunConfig(max_iterations=3, early_stop=False)
    trace = run_iterative(MOON_QUESTION, moon_index, mock, config)
    assert len(trace.iterations) == 3
    assert trace.early_stop is False
    assert trace.final_answer == "alt 2"
    assert trace.stop_reason == STOP_VALIDATED  # last verdict was True


def test_keyword_parse_retry_then_empty(moon_index):
    mock = RecordingMock([
        ScriptEntry("Generate a list of important keywords", "[]"),
        ScriptEntry("Generate a list of important keywords", ""),
        ScriptEntry("Here is a question", "Eagle"),
        ScriptEntry("Is the following answer correct", p_true=0.9, p_false=0.1),
    ])
    trace = run_iterative(MOON_QUESTION, moon_index, mock)
    rec = trace.iterations[0]
    assert rec.keywords == []
    assert rec.expanded_query == MOON_QUESTION
    assert "keyword_parse_failed" in rec.flags
    assert len(mock.calls) == 4  # one extra call for the retry


def test_a_keyword_reply_nested_too_deep_is_asked_again(moon_index):
    mock = MockBackend([
        ScriptEntry("Generate a list of important keywords", "[" * 2000 + "]" * 2000),
        ScriptEntry("Generate a list of important keywords", '["Apollo 11"]'),
        ScriptEntry("Here is a question", "Eagle"),
        ScriptEntry("Is the following answer correct", p_true=0.9, p_false=0.1),
    ])
    trace = run_iterative(MOON_QUESTION, moon_index, mock)
    (rec,) = trace.iterations
    assert (rec.keywords, rec.flags) == (["Apollo 11"], ["keyword_parse_retry"])
    assert (trace.stop_reason, trace.error) == (STOP_VALIDATED, None)


def test_regen_parse_failure_reuses_previous(moon_index):
    mock = MockBackend([
        ScriptEntry("Generate a list of important keywords", '["Apollo 11"]'),
        ScriptEntry("Here is a question", "wrong"),
        ScriptEntry("Is the following answer correct", p_true=0.1, p_false=0.9),
        ScriptEntry("Refine the keyword selection", "[]"),
        ScriptEntry("Refine the keyword selection", ""),
        ScriptEntry("Here is a question", "Eagle"),
        ScriptEntry("Is the following answer correct", p_true=0.9, p_false=0.1),
    ])
    config = RunConfig(max_iterations=2)
    trace = run_iterative(MOON_QUESTION, moon_index, mock, config)
    second = trace.iterations[1]
    assert second.keywords == ["Apollo 11"]
    assert "keyword_parse_failed_reused_previous" in second.flags


def test_validation_sees_current_docs_only(moon_index):
    script = walkthrough_script()
    mock = RecordingMock(script)
    run_iterative(MOON_QUESTION, moon_index, mock)
    # calls: 0 kw, 1 answer, 2 validate, 3 regen, 4 answer, 5 validate
    first_validation, second_validation = mock.calls[2], mock.calls[5]
    assert "Space Shuttle Challenger" in first_validation
    assert "Eagle" in second_validation


def test_accumulated_validation_docs_span_iterations():
    idx = index_from_texts(["alpha topic text", "beta topic text", "gamma topic text"])
    mock = RecordingMock([
        ScriptEntry("Generate a list of important keywords", '["alpha"]'),
        ScriptEntry("Here is a question", "wrong"),
        ScriptEntry("Is the following answer correct", p_true=0.1, p_false=0.9),
        ScriptEntry("Refine the keyword selection", '["beta"]'),
        ScriptEntry("Here is a question", "better"),
        ScriptEntry("Is the following answer correct", p_true=0.9, p_false=0.1),
    ])
    config = RunConfig(max_iterations=2, top_k=1, accumulate_validation_docs=True)
    run_iterative("which topic?", idx, mock, config)
    final_validation = mock.calls[-1]
    assert "alpha topic text" in final_validation  # doc from iteration 1 still shown
    assert "beta topic text" in final_validation
    assert final_validation.count("Document ") == 2


def test_trace_invariants_and_delta_bounds(moon_index):
    mock = MockBackend(_always_false_script(5))
    trace = run_iterative(MOON_QUESTION, moon_index, mock)
    assert 1 <= len(trace.iterations) <= 5
    union_docs = set()
    total_new = 0
    for rec in trace.iterations:
        assert len(rec.retrieved) <= 3
        assert rec.expanded_query.startswith(MOON_QUESTION)
        assert 0 <= rec.new_keywords <= len(rec.keywords)
        assert 0 <= rec.new_docs <= len(rec.retrieved)
        total_new += rec.new_docs
        union_docs.update(doc.chunk_id for doc in rec.retrieved)
        assert set(rec.wall_time_ms) <= {
            "query_expansion", "retrieval", "answer_generation", "answer_validation",
        }
    assert total_new == len(union_docs)


def test_early_exit_implies_true_at_final_record(moon_index):
    mock = MockBackend(walkthrough_script())
    trace = run_iterative(MOON_QUESTION, moon_index, mock)
    assert trace.stop_reason == STOP_VALIDATED
    assert trace.iterations[-1].verdict.choice is True
    assert all(not rec.verdict.choice for rec in trace.iterations[:-1])


def test_pipeline_never_sees_reference_answers():
    # Isolation by construction: no run entry point accepts gold answers.
    for fn in (run, run_iterative):
        names = set(inspect.signature(fn).parameters)
        assert not names & {"refs", "answers", "gold", "references"}


def test_deterministic_traces_with_mock(moon_index):
    dicts = []
    for _ in range(2):
        mock = MockBackend(walkthrough_script())
        trace = run_iterative(MOON_QUESTION, moon_index, mock)
        d = trace_to_dict(trace)
        for rec in d["iterations"]:
            rec["wall_time_ms"] = {}
        dicts.append(d)
    assert dicts[0] == dicts[1]


# --- validation step ------------------------------------------------------------------

_VALIDATE = "Is the following answer correct"


def _validated(validation: ScriptEntry, index, **config) -> tuple[IterationRecord, RecordingMock]:
    """One iteration whose validation takes this entry: (its record, the mock)."""
    mock = RecordingMock([
        ScriptEntry("Generate a list of important keywords", '["Apollo 11"]'),
        ScriptEntry("Here is a question", "Eagle"),
        validation,
    ])
    config = RunConfig(max_iterations=1, save_raw=True, **config)
    trace = run("iterative", MOON_QUESTION, index, mock, config)
    return trace.iterations[0], mock


def _validation_raw(rec: IterationRecord) -> list[str]:
    return [entry["completion"] for entry in rec.raw if entry["step"] == "answer_validation"]


@pytest.mark.parametrize("p_true, p_false, choice", [(0.7, 0.3, True), (0.3, 0.7, False),
                                                     (0.5, 0.5, False)])
def test_a_plain_validation_takes_the_likelier_option_and_a_tie_goes_false(
    moon_index, p_true, p_false, choice
):
    rec, mock = _validated(ScriptEntry(_VALIDATE, p_true=p_true, p_false=p_false), moon_index)
    assert rec.verdict == BinaryVerdict(choice, p_true, p_false, "logprob")
    assert _validation_raw(rec) == [f"verdict={choice}"]
    assert len(mock.calls) == 3


@pytest.mark.parametrize("reply, choice, flagged", [(" False.", False, False), ("TRUE", True, False),
                                                    ("I cannot say", False, True)])
def test_a_plain_validation_without_a_probe_reads_the_first_true_or_false_word(
    moon_index, reply, choice, flagged
):
    rec, mock = _validated(ScriptEntry(_VALIDATE, reply), moon_index)
    assert rec.verdict == BinaryVerdict(choice, None, None, "text-fallback", flagged)
    assert ("verdict_unparsed" in rec.flags) is flagged
    assert _validation_raw(rec) == [f"verdict={choice}"]
    assert len(mock.calls) == 3  # the probe took no entry, the reply one


def test_a_cot_validation_reads_the_conclusion_line_and_records_the_reply(moon_index):
    reply = "Chain of thought: a false start aside, it fits.\nConclusion: True"
    plain, _ = _validated(ScriptEntry(_VALIDATE, reply), moon_index)
    cot, mock = _validated(ScriptEntry("Let's think step by step", reply), moon_index,
                           validation_mode="cot")
    assert plain.verdict.choice is False  # the word scan stops at "false"
    assert cot.verdict == BinaryVerdict(True, None, None, "text-fallback")
    assert _validation_raw(cot) == [reply]
    assert len(mock.calls) == 3


# --- docwise regeneration ----------------------------------------------------------


def _docwise_script() -> list[ScriptEntry]:
    return [
        ScriptEntry("Generate a list of important keywords", '["Moon landing"]'),
        ScriptEntry("Here is a question", "wrong answer"),
        ScriptEntry("Is the following answer correct", p_true=0.1, p_false=0.9),
        ScriptEntry("Please refine the keyword selection", '["a", "b"]'),
        ScriptEntry("Please refine the keyword selection", '["b", "c"]'),
        ScriptEntry("Please refine the keyword selection", '["c"]'),
        ScriptEntry("Here is a question", "Eagle"),
        ScriptEntry("Is the following answer correct", p_true=0.9, p_false=0.1),
    ]


def test_docwise_one_render_per_document():
    # Corpus with >= 3 chunks so top_k=3 documents come back.
    idx = index_from_texts([
        "moon landing apollo eagle lunar module",
        "moon landing program history",
        "moon landing overview text",
    ])
    mock = RecordingMock(_docwise_script())
    config = RunConfig(regen_mode="docwise", max_iterations=2)
    trace = run_iterative("what landed on the moon?", idx, mock, config)
    assert len(trace.iterations) == 2
    # iteration 0: 3 calls; iteration 1: 3 docwise keyword calls + answer + validation
    assert len(mock.calls) == 8
    assert trace.iterations[1].keywords == ["a", "b", "c"]


def test_docwise_parse_failure_contributes_nothing():
    idx = index_from_texts([
        "moon landing apollo eagle lunar module",
        "moon landing program history",
        "moon landing overview text",
    ])
    script = _docwise_script()
    script[4] = ScriptEntry("Please refine the keyword selection", "[]")
    mock = MockBackend(script)
    config = RunConfig(regen_mode="docwise", max_iterations=2)
    trace = run_iterative("what landed on the moon?", idx, mock, config)
    second = trace.iterations[1]
    assert second.keywords == ["a", "b", "c"]  # failing doc contributed nothing
    assert "docwise_parse_failed" in second.flags


def _verdict(validation_mode: str, ok: bool) -> ScriptEntry:
    if validation_mode == "cot":
        return ScriptEntry("Chain of thought", f"Conclusion: {ok}")
    p_true = 0.9 if ok else 0.1
    return ScriptEntry("Is the following answer correct", p_true=p_true, p_false=1 - p_true)


@pytest.mark.parametrize("validation_mode, refine_prompt", [
    ("plain", "Refine the keyword selection"),
    ("cot", "The previous keywords failed"),
])
def test_a_docwise_round_after_an_empty_retrieval_refines_as_keywords_mode_does(
        validation_mode, refine_prompt):
    # Nothing matches "zeta", so the docwise round has no document to refine from.
    idx = index_from_texts(["alpha topic text", "beta topic text"])
    mock = RecordingMock([
        ScriptEntry("Generate a list of important keywords", '["zeta"]'),
        ScriptEntry("Here is a question", "unsure"),
        _verdict(validation_mode, False),
        ScriptEntry(refine_prompt, "[]"),  # asked once more, as any refinement is
        ScriptEntry(refine_prompt, '["alpha"]'),
        ScriptEntry("Here is a question", "alpha"),
        _verdict(validation_mode, True),
    ])
    config = RunConfig(regen_mode="docwise", validation_mode=validation_mode, max_iterations=2)
    trace = run_iterative("which word?", idx, mock, config)
    first, second = trace.iterations
    assert first.retrieved == []
    assert (second.keywords, second.flags) == (["alpha"], ["keyword_parse_retry"])
    assert [doc.chunk_id for doc in second.retrieved] == ["c0"]
    assert len(mock.calls) == 7
    assert trace.stop_reason == STOP_VALIDATED


class _DocwiseModel(HttpBackend):
    """HttpBackend's helper threads in front of a model that needs no server.

    A docwise keyword call runs `on_docwise(rank)`, rank being its document's
    place in the round, and answers with that document's keyword; document
    "skip" gets an unparseable reply. Every answer is rejected.
    """

    def __init__(self, order: list[str], on_docwise):
        super().__init__("http://127.0.0.1:9/v1", "m")
        self.order = order
        self.on_docwise = on_docwise

    def complete(self, messages, max_tokens, model=None):
        user = messages[-1].content
        if "Please refine the keyword selection" in user:
            doc = re.search(r"\bdoc_(\w+)", user).group(1)
            self.on_docwise(self.order.index(doc))
            return "[]" if doc == "skip" else f'["kw_{doc}"]'
        if "Generate a list of important keywords" in user:
            return '["moon"]'
        return "an answer"

    def choice_probs(self, messages, model=None):
        return (0.1, 0.9)


_FANOUT_TEXTS = ["moon landing doc_a", "moon landing program doc_skip", "moon doc_c history"]
_FANOUT_QUESTION = "what landed on the moon?"


def _docwise_round(on_docwise):
    """One docwise refinement round; returns (documents in round order, trace)."""
    idx = index_from_texts(_FANOUT_TEXTS)
    first = retrieve_top_k(idx, expand_query(_FANOUT_QUESTION, ["moon"]), 3)
    order = [re.search(r"doc_(\w+)", idx.text_of(d.chunk_id)).group(1) for d in first]
    backend = _DocwiseModel(order, on_docwise)
    config = RunConfig(regen_mode="docwise", max_iterations=2, save_raw=True)
    return order, run_iterative(_FANOUT_QUESTION, idx, backend, config)


def test_docwise_round_calls_overlap():
    barrier = threading.Barrier(3, timeout=5)
    _, trace = _docwise_round(lambda rank: barrier.wait())
    assert len(trace.iterations) == 2


def test_docwise_replies_merge_in_document_order_whatever_order_they_finish():
    done = [threading.Event() for _ in range(3)]
    finished: list[int] = []

    def on_docwise(rank):
        if rank + 1 < len(done):
            assert done[rank + 1].wait(timeout=5)
        finished.append(rank)
        done[rank].set()

    order, trace = _docwise_round(on_docwise)
    assert finished == [2, 1, 0]
    second = trace.iterations[1]
    assert second.keywords == [f"kw_{doc}" for doc in order if doc != "skip"]
    assert second.flags == ["docwise_parse_failed"]
    docwise_raws = [r for r in second.raw if r["step"] == "keyword_regeneration_docwise"]
    assert [re.search(r"\bdoc_(\w+)", r["user"]).group(1) for r in docwise_raws] == order
    assert [r["completion"] for r in docwise_raws] == [
        "[]" if doc == "skip" else f'["kw_{doc}"]' for doc in order
    ]


def test_docwise_failed_call_raises_after_its_siblings_return():
    finished: list[int] = []

    def on_docwise(rank):
        if rank == 0:
            raise TransportError("doc 0 failed")
        time.sleep(0.2)
        finished.append(rank)

    with pytest.raises(TransportError, match="doc 0 failed"):
        _docwise_round(on_docwise)
    assert sorted(finished) == [1, 2]


class _ThreadRecorder(_DocwiseModel):
    """_DocwiseModel that records the thread each keyword call runs on."""

    def __init__(self, order: list[str]):
        super().__init__(order, lambda rank: None)
        self.keyword_threads: list[tuple[str, threading.Thread]] = []  # (prompt, thread)

    def complete(self, messages, max_tokens, model=None):
        if "keyword" in messages[-1].content:
            self.keyword_threads.append((messages[-1].content, threading.current_thread()))
        return super().complete(messages, max_tokens, model)


@pytest.mark.parametrize("early_stop", [True, False])
def test_keywords_mode_calls_the_keyword_model_from_the_question_thread(early_stop):
    backend = _ThreadRecorder([])
    config = RunConfig(max_iterations=3, early_stop=early_stop)
    try:
        run_iterative(_FANOUT_QUESTION, index_from_texts(_FANOUT_TEXTS), backend, config)
    finally:
        backend.close()
    assert len(backend.keyword_threads) == 3  # the first round, then two refinements
    assert {thread for _, thread in backend.keyword_threads} == {threading.current_thread()}


def test_a_docwise_round_sends_its_last_prompt_from_the_question_thread():
    idx = index_from_texts(_FANOUT_TEXTS)
    first = retrieve_top_k(idx, expand_query(_FANOUT_QUESTION, ["moon"]), 3)
    order = [re.search(r"doc_(\w+)", idx.text_of(d.chunk_id)).group(1) for d in first]
    backend = _ThreadRecorder(order)
    config = RunConfig(regen_mode="docwise", max_iterations=2)
    try:
        run_iterative(_FANOUT_QUESTION, idx, backend, config)
    finally:
        backend.close()
    here = threading.current_thread()
    docwise = {re.search(r"\bdoc_(\w+)", prompt).group(1): thread
               for prompt, thread in backend.keyword_threads[1:]}
    assert backend.keyword_threads[0][1] is here  # the first round
    assert docwise[order[-1]] is here
    assert all(docwise[doc] is not here for doc in order[:-1])


# --- overlapped iterations (no early stop) ----------------------------------------

# Iteration i's keywords name kw{i}, which ranks doc{i} first.
_STAIR_TEXTS = [f"moon landing history kw{i} doc{i}" for i in range(1, 7)]


def _step(payload) -> str:
    system = payload["messages"][0]["content"]
    if "generates keywords" in system:
        return "keywords"
    if "efine" in system:
        return "regen"
    return "answer" if "generates answers" in system else "validation"


def _stair_reply(payload) -> dict:
    """A model that answers from the request alone, whatever order requests arrive in.

    Keywords are one past the highest kw{n} in the prompt, the answer names
    the top document, and an even answer is judged True.
    """
    user = payload["messages"][-1]["content"]
    step = _step(payload)
    if step in ("keywords", "regen"):
        n = max(map(int, re.findall(r"\bkw(\d+)", user)), default=0)
        return completion_body(f'["kw{n + 1}"]')
    if step == "answer":
        return completion_body("answer " + re.search(r"\bdoc(\d+)", user).group(1))
    n = int(re.search(r"Answer: answer (\d+)", user).group(1))
    if payload.get("logprobs"):
        p_true = 0.8 if n % 2 == 0 else 0.2
        return logprob_body([("True", p_true), ("False", 1 - p_true)])
    return completion_body(f"Conclusion: {n % 2 == 0}")


class _SequentialHttp(HttpBackend):
    """The reference: a back half runs inline, as LlmBackend runs it."""

    submit = LlmBackend.submit


def _within(seconds: float, fn, *args):
    """fn(*args) on another thread; fails the test if it takes longer than seconds."""
    pool = ThreadPoolExecutor(1)
    try:
        return pool.submit(fn, *args).result(timeout=seconds)
    finally:
        pool.shutdown(wait=False)


def _stair_run(backend_class, stub, **config):
    """run_iterative of the stair question against a stub.

    Returns the trace (or the BackendError raised), the requests the stub got,
    and the steps it was still serving when run_iterative returned or raised.
    """
    config = RunConfig(**{"max_iterations": 4, "top_k": 2, "early_stop": False, "save_raw": True,
                          **config})
    with StubLlmServer(stub) as server:
        backend = backend_class(server.url, "m", max_in_flight=6)
        try:
            trace = _within(30, run_iterative, _FANOUT_QUESTION, index_from_texts(_STAIR_TEXTS),
                            backend, config)
        except BackendError as exc:
            trace = exc
        finally:
            left = list(stub.now)  # before close(), which waits for its helper threads
            backend.close()
    return trace, server.requests, left


class _StairStub:
    """The stair model's replies, and which steps the stub is serving at once.

    Each reply waits `seconds`. `replies` maps (step, its n-th request) to the
    (seconds, status) of a reply that waits otherwise or fails instead.
    """

    def __init__(self, seconds: float, replies: dict | None = None):
        self.seconds = seconds
        self.replies = replies or {}
        self.counts: dict[str, int] = {}
        self.now: list[str] = []
        self.seen: list[set[str]] = []  # the steps in flight at each arrival
        self.peak = 0
        self._lock = threading.Lock()

    def __call__(self, payload, i):
        step = _step(payload)
        with self._lock:
            n = self.counts[step] = self.counts.get(step, 0) + 1
            self.now.append(step)
            self.seen.append(set(self.now))
            self.peak = max(self.peak, len(self.now))
        seconds, status = self.replies.get((step, n), (self.seconds, 200))
        try:
            time.sleep(seconds)
            if status != 200:
                return {"status": status, "body": f"{step} {n} refused"}
            return {"status": 200, "body": _stair_reply(payload)}
        finally:
            with self._lock:
                self.now.remove(step)


@pytest.mark.parametrize("accumulate", [False, True])
@pytest.mark.parametrize("validation_mode", ["plain", "cot"])
@pytest.mark.parametrize("regen_mode", ["keywords_only", "docwise"])
def test_overlapped_traces_are_byte_identical_to_sequential(regen_mode, validation_mode,
                                                            accumulate):
    # Slow answers: the next round's documents arrive before this validation is rendered.
    slow_answers = {("answer", n): (0.02, 200) for n in range(1, 5)}
    lines = []
    for backend_class in (_SequentialHttp, HttpBackend):
        stub = _StairStub(0.0, slow_answers)
        trace, requests, _ = _stair_run(backend_class, stub, regen_mode=regen_mode,
                                        validation_mode=validation_mode,
                                        accumulate_validation_docs=accumulate)
        lines.append(json.dumps(_zeroed_timings(trace_to_dict(trace))))
        per_round = 2 if regen_mode == "docwise" else 1
        assert len(requests) == 3 + 3 * (2 + per_round)
    assert lines[0] == lines[1]
    assert len({rec.answer for rec in trace.iterations}) == 4


@pytest.mark.parametrize("early_stop", [False, True])
def test_answers_overlap_the_next_keyword_round_only_without_early_stop(early_stop):
    stub = _StairStub(0.03)
    trace, _, _ = _stair_run(HttpBackend, stub, regen_mode="docwise", early_stop=early_stop)
    overlapped = any({"answer", "regen"} <= steps for steps in stub.seen)
    assert overlapped is not early_stop
    if early_stop:
        assert len(trace.iterations) == 2  # answer 2 is judged True
        assert stub.peak <= 2  # top_k
    else:
        assert len(trace.iterations) == 4


@pytest.mark.parametrize("regen_mode, early_stop, bound", [
    ("docwise", False, 5),  # top_k 3, and two answer → validate halves
    ("keywords_only", True, 1),
])
def test_a_question_keeps_at_most_its_calls_in_flight_and_reaches_that_when_answers_are_slow(
        regen_mode, early_stop, bound):
    config = RunConfig(max_iterations=4, top_k=3, regen_mode=regen_mode, early_stop=early_stop)
    assert config.calls_in_flight == bound
    stub = _StairStub(0.01, {("answer", n): (0.3, 200) for n in range(1, 5)})
    with StubLlmServer(stub) as server:
        # Sized as `keyrag run --workers 1` sizes it.
        backend = HttpBackend(server.url, "m", max_in_flight=config.calls_in_flight)
        try:
            _within(30, run_iterative, _FANOUT_QUESTION, index_from_texts(_STAIR_TEXTS),
                    backend, config)
        finally:
            backend.close()
    assert stub.peak == bound


def test_concurrent_questions_overlap_on_a_small_backend_as_sequential_runs_would():
    """More questions than helper threads or connections, and frequent thread switches."""
    config = RunConfig(max_iterations=4, top_k=2, regen_mode="docwise", early_stop=False,
                       save_raw=True)
    index = index_from_texts(_STAIR_TEXTS)
    questions = [f"{_FANOUT_QUESTION} q{i}" for i in range(8)]

    def run_all(url, backend_class):
        backend = backend_class(url, "m", max_in_flight=2)
        pool = ThreadPoolExecutor(4)
        try:
            futures = [pool.submit(run_iterative, q, index, backend, config) for q in questions]
            return [json.dumps(_zeroed_timings(trace_to_dict(f.result()))) for f in futures]
        finally:
            pool.shutdown()
            backend.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with StubLlmServer(_StairStub(0.001)) as server:
            sequential = _within(60, run_all, server.url, _SequentialHttp)
            overlapped = _within(60, run_all, server.url, HttpBackend)
    finally:
        sys.setswitchinterval(interval)
    assert overlapped == sequential


@pytest.mark.parametrize("replies, error", [
    pytest.param({("answer", 2): (0.0, 400)}, "answer 2", id="answer-2"),
    pytest.param({("regen", 2): (0.0, 400), ("validation", 2): (0.2, 200)}, "regen 2",
                 id="regen-3-beside-validation-2"),
    pytest.param({("answer", 2): (0.2, 400), ("regen", 2): (0.0, 400)}, "answer 2",
                 id="slow-answer-2-and-regen-3"),
])
def test_a_failed_call_ends_the_question_as_a_sequential_run_would(replies, error):
    """The n-th regen request is iteration n + 1's keyword round."""
    errors, sent = [], []
    for backend_class in (_SequentialHttp, HttpBackend):
        raised, requests, left = _stair_run(backend_class, _StairStub(0.03, replies))
        assert isinstance(raised, BackendError)
        assert left == []  # no call outlived the question
        errors.append(str(raised))
        sent.append(len(requests))
    assert errors == [f"HTTP 400: {error} refused"] * 2
    # At most the keyword round beside the failed call is sent past a sequential run's end.
    assert sent[0] <= sent[1] <= sent[0] + 1


# --- retrieval: each question's own words scored once ------------------------------

_WORDS = ["moon", "Moon", "lunar", "eagle", "the", "of", "Straße", "İstanbul", "月面", "ǅemal", "a1"]


class _KeywordRounds(LlmBackend):
    """Replies each keyword round with the next list, then "[]"; every verdict is False."""

    def __init__(self, rounds: list[list[str]]):
        self.rounds = iter(rounds)

    def complete(self, messages, max_tokens, model=None):
        if "keywords" in messages[0].content:  # the system prompt of a keyword round
            return json.dumps(next(self.rounds, []), ensure_ascii=False)
        return "an answer"

    def choice_probs(self, messages, model=None):
        return (0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6).map(" ".join),
                   min_size=1, max_size=5)
    .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=14)),
    question=st.lists(st.sampled_from(_WORDS) | st.text(), max_size=5).map(" ".join),
    rounds=st.lists(st.lists(st.sampled_from(_WORDS) | st.text(max_size=6), max_size=4),
                    min_size=1, max_size=4),
    stopwords=st.frozensets(st.sampled_from([w.lower() for w in _WORDS]), max_size=2),
    k=st.integers(min_value=1, max_value=5),
)
def test_each_retrieval_equals_a_search_for_the_whole_expanded_query(
        texts, question, rounds, stopwords, k):
    """Duplicate chunks make ties at and across the k-th place; keyword lists may be
    empty (a parse failure) or repeat the question's words."""
    idx = index_from_texts(texts, stopwords=stopwords)
    config = RunConfig(max_iterations=len(rounds), top_k=k)
    traces = [
        run("iterative", question, idx, _KeywordRounds(rounds), config),
        run("rag", question, idx, _KeywordRounds([]), config),
    ]
    assert len(traces[0].iterations) == len(rounds)
    for rec in traces[0].iterations + traces[1].iterations:
        want = retrieve_top_k(idx, rec.expanded_query, k)
        assert [(d.chunk_id, d.score.hex()) for d in rec.retrieved] == [
            (d.chunk_id, d.score.hex()) for d in want
        ]
        oracle = oracle_top_k(texts, idx.chunk_ids, rec.expanded_query, k, stopwords=stopwords)
        assert [d.chunk_id for d in rec.retrieved] == [cid for cid, _ in oracle]
        for doc, (_, score) in zip(rec.retrieved, oracle):
            assert doc.score == pytest.approx(score, rel=1e-9)


# --- baselines ----------------------------------------------------------------------


def test_vanilla_single_call_no_retrieval():
    mock = RecordingMock([ScriptEntry("Here is a question", "Paris")])
    question = "What is the capital of France?"
    trace = run("vanilla", question, None, mock, RunConfig())
    assert trace.final_answer == "Paris"
    assert len(mock.calls) == 1
    assert trace.method == "vanilla"
    rec = trace.iterations[0]
    assert rec.retrieved == []
    assert "retrieval" not in rec.wall_time_ms
    assert "answer_validation" not in rec.wall_time_ms
    # the prompt has no documents section at all
    assert "Documents" not in mock.calls[0]


def test_rag_once_single_retrieval_single_call(moon_index):
    mock = RecordingMock([ScriptEntry("Here is a question", "Eagle")])
    trace = run("rag", MOON_QUESTION, moon_index, mock, RunConfig())
    assert trace.final_answer == "Eagle"
    assert len(mock.calls) == 1
    assert len(trace.iterations[0].retrieved) >= 1
    assert trace.iterations[0].verdict is None
    assert "Document 1:" in mock.calls[0]


def test_rag_once_retrieves_expected_doc():
    idx = index_from_texts([
        "alpha beta gamma",
        "totally different content",
        "moonbeam crater dust",
    ])
    mock = MockBackend([ScriptEntry("Here is a question", "whatever")])
    trace = run("rag", "moonbeam crater", idx, mock, RunConfig(top_k=1))
    assert [d.chunk_id for d in trace.iterations[0].retrieved] == ["c2"]


def test_rag_once_empty_retrieval_flagged():
    idx = index_from_texts(["alpha beta", "gamma delta"])
    mock = MockBackend([ScriptEntry("Here is a question", "no idea")])
    trace = run("rag", "zzz qqq", idx, mock, RunConfig())
    assert trace.iterations[0].retrieved == []
    assert "empty_retrieval" in trace.iterations[0].flags
    assert trace.final_answer == "no idea"


def _zeroed_timings(d: dict) -> dict:
    for rec in d["iterations"]:
        rec["wall_time_ms"] = dict.fromkeys(rec["wall_time_ms"], 0.0)
    return d


ANSWER_SYSTEM = "You are an assistant that generates answers based on retrieved documents."


def test_rag_trace_golden(moon_index):
    mock = MockBackend([ScriptEntry("Here is a question", " Eagle ")])
    config = RunConfig(top_k=1, save_raw=True)
    trace = run("rag", MOON_QUESTION, moon_index, mock, config)
    assert _zeroed_timings(trace_to_dict(trace, qid=4)) == {
        "v": 1,
        "qid": 4,
        "question": MOON_QUESTION,
        "method": "rag",
        "stop_reason": None,
        "final_answer": "Eagle",
        "early_stop": False,
        "error": None,
        "iterations": [{
            "index": 0,
            "keywords": [],
            "expanded_query": MOON_QUESTION,
            "retrieved": [{"chunk_id": "apollo#0", "score": 4.090140958628672}],
            "answer": "Eagle",
            "verdict": None,
            "new_keywords": 0,
            "new_docs": 1,
            "wall_time_ms": {"retrieval": 0.0, "answer_generation": 0.0},
            "flags": [],
            "raw": [{
                "step": "answer_generation",
                "system": ANSWER_SYSTEM,
                "user": (
                    "Here is a question that you need to answer:\n"
                    f"Query: {MOON_QUESTION}\n\n"
                    "Below are some documents that may contain information relevant to the"
                    " question. Consider the information in these documents while combining"
                    " it with your own knowledge to answer the question accurately.\n\n"
                    "Documents: Document 1: Apollo 11\n"
                    "The Apollo 11 lunar module Eagle landed the first humans on the Moon in 1969"
                    "\n\nProvide a clear and concise answer. Do not include any additional text."
                ),
                "completion": "Eagle",
            }],
        }],
    }


def test_vanilla_trace_golden():
    mock = MockBackend([ScriptEntry("Here is a question", "Shakespeare ")])
    config = RunConfig(save_raw=True)
    trace = run("vanilla", "Who wrote Hamlet?", None, mock, config)
    assert _zeroed_timings(trace_to_dict(trace)) == {
        "v": 1,
        "question": "Who wrote Hamlet?",
        "method": "vanilla",
        "stop_reason": None,
        "final_answer": "Shakespeare",
        "early_stop": False,
        "error": None,
        "iterations": [{
            "index": 0,
            "keywords": [],
            "expanded_query": "Who wrote Hamlet?",
            "retrieved": [],
            "answer": "Shakespeare",
            "verdict": None,
            "new_keywords": 0,
            "new_docs": 0,
            "wall_time_ms": {"answer_generation": 0.0},
            "flags": [],
            "raw": [{
                "step": "answer_generation",
                "system": ANSWER_SYSTEM,
                "user": (
                    "Here is a question that you need to answer:\nQuery: Who wrote Hamlet?\n\n"
                    "Provide a clear and concise answer. Do not include any additional text."
                ),
                "completion": "Shakespeare",
            }],
        }],
    }


def test_run_by_method_name(moon_index):
    def trace(method):
        mock = MockBackend([ScriptEntry("Here is a question", "Eagle")])
        return _zeroed_timings(trace_to_dict(
            run(method, MOON_QUESTION, moon_index, mock, RunConfig())
        ))

    rag = trace("rag")
    assert rag["method"] == "rag" and rag["iterations"][0]["retrieved"] != []
    assert trace("vanilla")["iterations"][0]["retrieved"] == []  # the index is not used
    with pytest.raises(ValueError, match="method must be one of"):
        trace("bm25")


# --- config validation / serde -------------------------------------------------------


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(max_iterations=0)
    with pytest.raises(ValueError):
        RunConfig(top_k=0)
    with pytest.raises(ValueError):
        RunConfig(regen_mode="bogus")
    with pytest.raises(ValueError):
        RunConfig(validation_mode="bogus")


def test_default_step_budgets():
    """Each step's requests carry its token budget (keywords 50, answer 50, validation 30)."""

    def step(payload):
        system = payload["messages"][0]["content"]
        if "keywords" in system:
            return "keywords"
        return "answer" if "generates answers" in system else "validation"

    replies = {"keywords": '["moon"]', "answer": "an answer", "validation": "Conclusion: False"}
    for regen_mode, validation_mode in (("keywords_only", "plain"), ("docwise", "cot")):
        with StubLlmServer(lambda payload, i: {
            "status": 200, "body": completion_body(replies[step(payload)]),
        }) as server:
            backend = HttpBackend(server.url, "m", supports_logprobs=False)
            config = RunConfig(
                max_iterations=2, regen_mode=regen_mode, validation_mode=validation_mode
            )
            try:
                run_iterative(_FANOUT_QUESTION, index_from_texts(_FANOUT_TEXTS), backend, config)
            finally:
                backend.close()
        budgets = {(step(payload), payload["max_tokens"]) for payload in server.requests}
        assert budgets == {("keywords", 50), ("answer", 50), ("validation", 30)}
        assert {payload["temperature"] for payload in server.requests} == {0.0}


def test_trace_round_trip_serde(moon_index):
    mock = MockBackend(walkthrough_script())
    trace = run_iterative(MOON_QUESTION, moon_index, mock)
    restored = trace_from_dict(trace_to_dict(trace, qid=7))
    assert restored == trace


_short_text = st.text(max_size=12)
_records = st.builds(
    IterationRecord,
    index=st.integers(0, 9),
    keywords=st.lists(_short_text, max_size=3),
    expanded_query=_short_text,
    retrieved=st.lists(
        st.builds(ScoredDoc, _short_text, st.floats(allow_nan=False, allow_infinity=False)),
        max_size=3,
    ),
    answer=_short_text,
    verdict=st.none() | st.builds(
        BinaryVerdict,
        choice=st.booleans(),
        p_true=st.none() | st.floats(0.0, 1.0),
        p_false=st.none() | st.floats(0.0, 1.0),
        method=st.sampled_from(["logprob", "text-fallback"]),
        flagged=st.booleans(),
    ),
    new_keywords=st.integers(0, 9),
    new_docs=st.integers(0, 9),
    wall_time_ms=st.dictionaries(
        st.sampled_from(["query_expansion", "retrieval", "answer_generation", "answer_validation"]),
        st.floats(0.0, 1e6),
    ),
    flags=st.lists(_short_text, max_size=2),
    raw=st.none() | st.lists(
        st.fixed_dictionaries(
            {"step": _short_text, "system": _short_text, "user": _short_text,
             "completion": _short_text}
        ),
        max_size=2,
    ),
)
_traces = st.builds(
    RunTrace,
    question=_short_text,
    method=st.sampled_from(["iterative", "rag", "vanilla"]),
    iterations=st.lists(_records, max_size=3),
    stop_reason=st.sampled_from([None, STOP_VALIDATED, STOP_BUDGET]),
    final_answer=_short_text,
    early_stop=st.booleans(),
    error=st.none() | _short_text,
)


@given(_traces)
def test_trace_dict_round_trips_through_a_json_line(trace):
    line = json.dumps(trace_to_dict(trace, qid=3), sort_keys=True, ensure_ascii=False)
    assert "\n" not in line
    assert trace_from_dict(json.loads(line)) == trace


def test_cot_mode_uses_cot_prompts(moon_index):
    mock = RecordingMock([
        ScriptEntry("Generate a list of important keywords", '["Apollo 11"]'),
        ScriptEntry("Here is a question", "Eagle"),
        ScriptEntry("Let's think step by step", "Chain of thought: looks right.\nConclusion: True"),
    ])
    config = RunConfig(validation_mode="cot")
    trace = run_iterative(MOON_QUESTION, moon_index, mock, config)
    assert trace.stop_reason == STOP_VALIDATED
    assert trace.iterations[0].verdict.method == "text-fallback"
    assert "Conclusion: True or False" in mock.calls[-1]


def test_cot_mode_switches_regen_prompt(moon_index):
    mock = MockBackend([
        ScriptEntry("Generate a list of important keywords", '["Apollo 11"]'),
        ScriptEntry("Here is a question", "wrong"),
        ScriptEntry("Let's think step by step", "Conclusion: False"),
        ScriptEntry("The previous keywords failed", 'Refined: ["Lunar module"]'),
        ScriptEntry("Here is a question", "Eagle"),
        ScriptEntry("Let's think step by step", "Conclusion: True"),
    ])
    config = RunConfig(validation_mode="cot", max_iterations=2)
    trace = run_iterative(MOON_QUESTION, moon_index, mock, config)
    assert trace.iterations[1].keywords == ["Lunar module"]
    assert trace.stop_reason == STOP_VALIDATED
