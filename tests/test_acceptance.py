"""Acceptance suite: one test per criterion, each printing its own pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
from __future__ import annotations

import random
import time

import pytest

from keyrag.bm25 import build_index, retrieve_top_k
from keyrag.cli import main
from keyrag.corpus import Document, chunk_corpus, chunk_document
from keyrag.llm import ChatMessage, HttpBackend, MockBackend, ScriptEntry, forced_choice
from keyrag.metrics import (
    avg_iteration_count,
    delta_stats,
    exact_match,
    recall_curve,
    score_mode,
)
from keyrag.pipeline import RunConfig, StepBackends, run, run_iterative

from . import helpers
from .helpers import (
    MOON_QUESTION,
    StubLlmServer,
    completion_body,
    walkthrough_script,
    index_from_texts,
    logprob_body,
    write_jsonl,
)
from .test_metrics import NORMALIZATION_CASES, _trace


def _report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}  {name}")
    assert ok, f"acceptance criterion {number} failed: {name}"


# -- 1 ---------------------------------------------------------------------------


def test_acceptance_01_bm25_oracle_equivalence():
    rng = random.Random(20240817)
    started = time.perf_counter()
    checked = 0
    ok = True
    for _ in range(200):
        texts, vocab = helpers.random_corpus(rng, max_chunks=1000, max_vocab=200)
        idx = index_from_texts(texts)
        for _ in range(5):
            query = helpers.random_query(rng, vocab)
            k = rng.randint(1, 10)
            got = retrieve_top_k(idx, query, k)
            want = helpers.oracle_top_k(texts, idx.chunk_ids, query, k)
            if [g.chunk_id for g in got] != [w[0] for w in want]:
                ok = False
                break
            for g, (_, s) in zip(got, want):
                if s != 0 and abs(g.score - s) / abs(s) > 1e-9:
                    ok = False
                    break
            checked += 1
        if not ok:
            break
    elapsed = time.perf_counter() - started
    ok = ok and checked == 1000 and elapsed < 30.0
    print(f"  (1000 queries over 200 corpora in {elapsed:.1f}s)")
    _report(1, "top-k matches the brute-force scorer (ids, order, scores@1e-9)", ok)


# -- 2 ---------------------------------------------------------------------------


def test_acceptance_02_walkthrough_golden_trace():
    idx = build_index(chunk_corpus(helpers.MOON_DOCS, 256, 50))
    mock = MockBackend(walkthrough_script())
    trace = run_iterative(MOON_QUESTION, idx, StepBackends.shared(mock))
    ok = (
        len(trace.iterations) == 2
        and trace.stop_reason == "validated_true"
        and trace.final_answer == "Eagle"
        and len(mock.calls) == 6
        and trace.iterations[0].keywords == ["Moon landing", "Spacecraft", "First humans"]
        and trace.iterations[1].keywords == ["Apollo 11", "Lunar module name"]
    )
    _report(2, "two-round walkthrough: 2 iterations, validated_true, 'Eagle', 6 LLM calls", ok)


# -- 3 ---------------------------------------------------------------------------


def test_acceptance_03_normalization_suite():
    ok = all(helpers_norm(raw) == expected for raw, expected in NORMALIZATION_CASES)
    ok = ok and len(NORMALIZATION_CASES) >= 20
    ok = ok and exact_match("eagle", ["The Eagle!"])
    ok = ok and not exact_match("Apollo 11 Eagle", ["Eagle"])  # equality, not containment
    _report(3, f"exact-match normalization suite ({len(NORMALIZATION_CASES)} cases + containment)", ok)


def helpers_norm(raw: str) -> str:
    from keyrag.metrics import normalize_answer

    return normalize_answer(raw)


# -- 4 ---------------------------------------------------------------------------


def test_acceptance_04_mode_monotonicity():
    rng = random.Random(99)
    answers = ["alpha", "beta", "gamma", "delta"]
    traces, refs = [], []
    for _ in range(500):
        steps = [(rng.choice(answers), rng.random() < 0.5) for _ in range(5)]
        traces.append(_trace(steps))
        refs.append([rng.choice(answers)])

    def monotone(subset_idx) -> bool:
        sub_t = [traces[i] for i in subset_idx]
        sub_r = [refs[i] for i in subset_idx]
        base = score_mode(sub_t, sub_r, "base").accuracy
        v_true = score_mode(sub_t, sub_r, "verified_true").accuracy
        v_all = score_mode(sub_t, sub_r, "verified_all").accuracy
        return base <= v_true <= v_all

    ok = monotone(range(500))
    for _ in range(25):
        size = rng.randint(1, 500)
        ok = ok and monotone(rng.sample(range(500), size))

    # strict inequality at both steps, from the two constructed failure shapes
    strict = [
        _trace([("X", True), ("Y", True)]),   # wrong answer accepted first
        _trace([("Y", False), ("X", True)]),  # correct answer rejected
        _trace([("Y", True)]),
    ]
    strict_refs = [["Y"], ["Y"], ["Y"]]
    base = score_mode(strict, strict_refs, "base").accuracy
    v_true = score_mode(strict, strict_refs, "verified_true").accuracy
    v_all = score_mode(strict, strict_refs, "verified_all").accuracy
    ok = ok and base < v_true < v_all
    _report(4, "base <= verified_true <= verified_all on all sampled subsets (+ strict cases)", ok)


# -- 5 ---------------------------------------------------------------------------


def test_acceptance_05_delta_accounting():
    # Hand-computed: two full-N=5 traces with known keyword/doc sets.
    t1 = _trace([
        ("x", False, ("a", "b", "c"), ("d1", "d2", "d3")),
        ("x", False, ("b", "c", "d"), ("d1", "d2", "d4")),      # +1 kw, +1 doc
        ("x", False, ("e", "f"), ("d5", "d6", "d1")),           # +2 kw, +2 docs
        ("x", False, ("a", "e"), ("d1", "d2", "d3")),           # +0 kw, +0 docs
        ("x", False, ("g",), ("d7", "d1", "d2")),               # +1 kw, +1 doc
    ])
    t2 = _trace([
        ("x", False, ("p",), ("e1", "e2", "e3")),
        ("x", False, ("p", "q", "r"), ("e1", "e4", "e5")),      # +2 kw, +2 docs
        ("x", False, ("s",), ("e1", "e2", "e3")),               # +1 kw, +0 docs
        ("x", False, ("q", "s"), ("e6", "e2", "e3")),           # +0 kw, +1 doc
        ("x", False, ("t", "u", "v"), ("e1", "e2", "e3")),      # +3 kw, +0 docs
    ])
    stats = delta_stats([t1, t2])
    expected_kw = {2: (1 + 2) / 2, 3: (2 + 1) / 2, 4: (0 + 0) / 2, 5: (1 + 3) / 2}
    expected_docs = {2: (1 + 2) / 2, 3: (2 + 0) / 2, 4: (0 + 1) / 2, 5: (1 + 0) / 2}
    ok = stats.keyword_step_means == expected_kw
    ok = ok and stats.doc_step_means == expected_docs
    ok = ok and stats.keyword_total == sum(expected_kw.values())
    ok = ok and stats.keyword_mean == sum(expected_kw.values()) / 4
    ok = ok and stats.doc_total == sum(expected_docs.values())
    ok = ok and stats.doc_mean == sum(expected_docs.values()) / 4
    _report(5, "per-step new-keyword/new-doc means with Total and Mean identities", ok)


# -- 6 ---------------------------------------------------------------------------


def test_acceptance_06_keyword_unlocks_recall():
    question = "what vessel delivered the first visitors to our satellite"
    refs = [["Eagle"]]
    answer_doc = Document(
        "target", "",
        "Apollo program lunar module Eagle touched down carrying two astronauts in 1969.",
    )
    fillers = [
        Document(f"filler{i}", "",
                 f"notes on vessel visitors and satellite logistics entry {i} item {i % 7}")
        for i in range(49)
    ]
    idx = build_index(chunk_corpus([answer_doc] + fillers, 256, 50))

    # the question's own terms never touch the answer doc
    raw_hits = retrieve_top_k(idx, question, 3)
    ok = all(doc.chunk_id != "target#0" for doc in raw_hits)

    mock = MockBackend([
        ScriptEntry("Generate a list of important keywords", '["lunar module", "Eagle"]'),
        ScriptEntry("Here is a question", "Eagle"),
        ScriptEntry("Is the following answer correct", p_true=0.9, p_false=0.1),
    ])
    trace = run_iterative(question, idx, StepBackends.shared(mock), RunConfig(top_k=3))
    loop_recall = recall_curve([trace], refs, 3, idx.text_of)[-1]

    rag_mock = MockBackend([ScriptEntry("Here is a question", "no idea")])
    rag_trace = run("rag", question, idx, StepBackends.shared(rag_mock), RunConfig(top_k=3))
    rag_recall = recall_curve([rag_trace], refs, 3, idx.text_of)[-1]

    ok = ok and loop_recall == 1.0 and rag_recall == 0.0
    _report(6, "generated keyword lifts recall@3 to 1.0 where the raw query scores 0.0", ok)


# -- 7 ---------------------------------------------------------------------------


def test_acceptance_07_chunking_invariants():
    rng = random.Random(1234)
    ok = True
    for chunk_size, overlap in ((256, 50), (512, 50)):
        stride = chunk_size - overlap
        for _ in range(100):
            total = rng.randint(1, 2000)
            doc = Document("d", "", " ".join(f"t{i}" for i in range(total)))
            chunks = chunk_document(doc, chunk_size, overlap)
            covered: set[int] = set()
            for i, chunk in enumerate(chunks):
                start, end = chunk.token_span
                covered.update(range(start, end))
                ok = ok and start == i * stride and 0 < end - start <= chunk_size
                if i + 1 < len(chunks):
                    ok = ok and end - chunks[i + 1].token_span[0] == overlap
            ok = ok and covered == set(range(total))
    doc300 = Document("d", "", " ".join(f"t{i}" for i in range(300)))
    spans = [c.token_span for c in chunk_document(doc300, 256, 50)]
    ok = ok and spans == [(0, 256), (206, 300)]
    _report(7, "coverage/overlap invariants at (256,50) and (512,50); 300-token spans", ok)


# -- 8 ---------------------------------------------------------------------------


def _script_iterations(n: int, final_true: bool) -> list[ScriptEntry]:
    entries = [ScriptEntry("Generate a list of important keywords", '["k0"]')]
    for i in range(n):
        if i > 0:
            entries.append(ScriptEntry("Refine the keyword selection", f'["k{i}"]'))
        entries.append(ScriptEntry("Here is a question", f"answer {i}"))
        last = i == n - 1
        p_true = 0.9 if (last and final_true) else 0.1
        entries.append(ScriptEntry("Is the following answer correct",
                                   p_true=p_true, p_false=1 - p_true))
    return entries


def test_acceptance_08_call_count_and_avg_iterations():
    idx = index_from_texts(["moon landing eagle", "challenger shuttle", "unrelated text"])
    mock = MockBackend(_script_iterations(5, final_true=False))
    trace = run_iterative("moon landing?", idx, StepBackends.shared(mock))
    ok = len(mock.calls) == 15 and len(trace.iterations) == 5
    ok = ok and trace.stop_reason == "budget_exhausted"

    traces = [trace]
    for n, final_true in ((1, True), (2, True)):
        m = MockBackend(_script_iterations(n, final_true))
        traces.append(run_iterative("moon landing?", idx, StepBackends.shared(m)))
    ok = ok and abs(avg_iteration_count(traces) - (5 + 1 + 2) / 3) < 1e-12
    _report(8, "budget-exhausted N=5 run makes exactly 15 calls; avg iterations exact", ok)


# -- 9 ---------------------------------------------------------------------------


def test_acceptance_09_byte_identical_reruns(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_path, [
        {"id": "apollo", "title": "Apollo 11",
         "text": "The Apollo 11 lunar module Eagle landed the first humans on the Moon."},
        {"id": "shuttle", "title": "Shuttle",
         "text": "The Space Shuttle program flew from 1981 to 2011."},
        {"id": "station", "title": "Station",
         "text": "The orbital station hosts rotating crews of astronauts."},
    ])
    index_path = tmp_path / "corpus.idx"
    assert main(["index", "--corpus", str(corpus_path), "--out", str(index_path)]) == 0

    questions = [
        "Which craft landed people on the Moon?",
        "What program flew until 2011?",
        "Who lives on the orbital station?",
    ]
    dataset_path = tmp_path / "qa.jsonl"
    write_jsonl(dataset_path, [{"question": q, "answers": ["x"]} for q in questions])
    script_rows = []
    for q in questions:
        script_rows.extend([
            {"match": f"related to the Query: {q}", "response": '["moon", "shuttle", "station"]'},
            {"match": f"answer:\nQuery: {q}", "response": f"reply to {q}"},
            {"match": f"correct?\n\nQuery: {q}", "p_true": 0.9, "p_false": 0.1},
        ])
    script_path = tmp_path / "script.jsonl"
    write_jsonl(script_path, script_rows)

    sorted_lines = []
    for name in ("run_a.jsonl", "run_b.jsonl"):
        out = tmp_path / name
        code = main([
            "run", "--dataset", str(dataset_path), "--index", str(index_path),
            "--mock-script", str(script_path), "--out", str(out), "--no-timings",
        ])
        assert code == 0
        lines = out.read_bytes().splitlines(keepends=True)
        sorted_lines.append(sorted(lines))
    ok = sorted_lines[0] == sorted_lines[1]
    _report(9, "two cmd_run executions are byte-identical after deterministic re-sort", ok)


# -- 10 --------------------------------------------------------------------------


def test_acceptance_10_wire_protocol_conformance(tmp_path):
    def respond(payload, i):
        user = payload["messages"][-1]["content"]
        if payload.get("logprobs"):
            return {"status": 200, "body": logprob_body([("True", 0.8), ("False", 0.2)])}
        if "Generate a list of important keywords" in user:
            return {"status": 200, "body": completion_body('["moon", "landing"]')}
        return {"status": 200, "body": completion_body("Eagle")}

    idx = index_from_texts(["moon landing eagle module", "challenger shuttle"])
    ok = True
    with StubLlmServer(respond) as server:
        backend = HttpBackend(server.url, "stub-model", backoff=0.01)
        trace = run_iterative("what landed on the moon?", idx, StepBackends.shared(backend))
        ok = ok and trace.stop_reason == "validated_true"
        verdict = trace.iterations[0].verdict
        ok = ok and verdict.method == "logprob" and verdict.choice is True
        ok = ok and verdict.p_true == pytest.approx(0.8, rel=1e-9)

        by_step = {}
        for payload in server.requests:
            user = payload["messages"][-1]["content"]
            if payload.get("logprobs"):
                by_step["probe"] = payload
            elif "Generate a list of important keywords" in user:
                by_step["keywords"] = payload
            elif "Here is a question" in user:
                by_step["answer"] = payload
        ok = ok and by_step["keywords"]["max_tokens"] == 50
        ok = ok and by_step["answer"]["max_tokens"] == 50
        probe = by_step["probe"]
        ok = ok and probe["logprobs"] is True and probe["top_logprobs"] >= 5
        ok = ok and probe["max_tokens"] == 1
        ok = ok and all(
            set(m) == {"role", "content"} for p in server.requests for m in p["messages"]
        )

    # text-fallback against a probability-hiding stub
    def respond_plain(payload, i):
        if payload.get("logprobs"):
            return {"status": 200, "body": completion_body("x")}  # no logprobs in body
        return {"status": 200, "body": completion_body(" False.")}

    with StubLlmServer(respond_plain) as server:
        backend = HttpBackend(server.url, "stub-model", backoff=0.01)
        verdict = forced_choice(
            backend,
            [ChatMessage("system", "s"), ChatMessage("user", "Is it correct?")],
            30,
        )
        ok = ok and verdict.method == "text-fallback" and verdict.choice is False
        ok = ok and server.requests[-1]["max_tokens"] == 30
    _report(10, "chat-completions shape (50/50, 1-token logprob probe, 30-token fallback)", ok)
