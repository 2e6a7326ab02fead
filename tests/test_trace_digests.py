"""Pinned digests of `keyrag run` traces for vanilla, rag and the 16 loop configurations.

Each configuration runs four questions against a stub model that answers from
the request alone, with `--no-timings --save-raw --workers 1`, so a run's
trace lines are the same bytes on every run. The SHA-256 of those lines (the
header, which holds paths and a port, is left out) is pinned: a change to how
the pipeline builds its records or `keyrag run` writes them must keep every
byte, flags, raw exchanges and novelty counts included.
"""
from __future__ import annotations

import hashlib
import itertools
import re

import pytest

from keyrag.cli import main

from .helpers import StubLlmServer, completion_body, logprob_body, write_jsonl

# The level whose answer is judged True, per topic; topic 3's never is.
TARGETS = (1, 2, 3, 9)
QUESTIONS = [f"Which record of topic{t} holds the answer?" for t in range(len(TARGETS))]


def _reply(payload) -> str | dict:
    """Keywords one level past the highest kw{n} in the prompt; the answer names the
    top document; an answer at or past its topic's target level is judged True.

    Topic 3 gets no usable first keywords, and an unreadable CoT verdict.
    """
    system = payload["messages"][0]["content"]
    user = payload["messages"][-1]["content"]
    if "keywords" in system or "efine" in system:
        level = max(map(int, re.findall(r"\bkw(\d+)", user)), default=0)
        if level == 0 and "topic3" in user:
            return "[]"
        return f'["kw{level + 1}", "level"]'
    if "generates answers" in system:
        top = re.search(r"\bans(\d+)x(\d+)", user)
        return f"topic {top[1]} level {top[2]}" if top else "no idea"
    topic, level = map(int, re.search(r"Answer: topic (\d+) level (\d+)", user).groups())
    judged = level >= TARGETS[topic]
    if payload.get("logprobs"):
        p_true = 0.75 if judged else 0.25
        return logprob_body([("True", p_true), ("False", 1 - p_true)])
    if topic == 3:
        return "I cannot tell."
    return f"The documents name it.\nConclusion: {judged}"


def _respond(payload, i):
    reply = _reply(payload)
    return {"status": 200, "body": reply if isinstance(reply, dict) else completion_body(reply)}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("digests")
    corpus = root / "corpus.jsonl"
    write_jsonl(corpus, [
        {"id": f"t{t}n{n}", "title": f"Record {t}.{n}",
         "text": f"topic{t} kw{n} ans{t}x{n} " + " ".join(["filler"] * (t + n))}
        for t in range(len(TARGETS)) for n in range(1, 5)
    ])
    index = root / "corpus.idx"
    assert main(["index", "--corpus", str(corpus), "--out", str(index)]) == 0
    dataset = root / "qa.jsonl"
    write_jsonl(dataset, [{"question": q, "answers": ["x"]} for q in QUESTIONS])
    return root, dataset, index


_LOOP_OPTIONS = {
    "docwise": ["--regen-mode", "docwise"],
    "cot": ["--cot"],
    "no_early_stop": ["--no-early-stop"],
    "accumulate": ["--accumulate-docs"],
}
CONFIGS = {"vanilla": ["--method", "vanilla"], "rag": ["--method", "rag"]}
for n in range(len(_LOOP_OPTIONS) + 1):
    for names in itertools.combinations(_LOOP_OPTIONS, n):
        CONFIGS["+".join(names) or "keywords"] = [
            "--method", "iterative", *(flag for name in names for flag in _LOOP_OPTIONS[name])
        ]

DIGESTS = {
    "accumulate": "c362558a066a8b8f8ab41b6c5c926c163463b8a39f238921e48ca5e8e5918e27",
    "cot": "4934ee61a448a637515171cf9aab178674692ee6dffbe9bd8f5c91991419a2c7",
    "cot+accumulate": "c9f071de6f3b08240640541bfb39202f15b6b84767906a73dd005b7c8b833df6",
    "cot+no_early_stop": "a5177222458b9dfec234a63f7a073eb9d6e417876074a80e6e069d34c5a62bc3",
    "cot+no_early_stop+accumulate": "d55b517d5fa19c1367fadbcb7c0778e134dd60e3d43b400cdc44a029a8868c1b",
    "docwise": "73c530e0d3a17becf9e96b609236278cf6ee1fc1fdc5662fb43b644c8734e605",
    "docwise+accumulate": "7bd87150922ceb8cfab8167d963baef1d6079af6e050e7454c81e074b4bb6164",
    "docwise+cot": "a283eaa368d35f69bafddd24d304dea57e60ef4a23abb9d5ef8f84ed882f0b3e",
    "docwise+cot+accumulate": "18ca826e0f394815c16456b8228d780044fb1332f5f9541ffcadfa82aa4e3139",
    "docwise+cot+no_early_stop": "f6ea40f1f2efdcd79c5a9d01a391a1a5fc05231ed9ab30e233f64f4a7b3c7cbb",
    "docwise+cot+no_early_stop+accumulate": "6468558f4c8564201e56419316bc89485f5c6868a615ba037273b64317094d73",
    "docwise+no_early_stop": "a870a1bb17ee65620d8bff249eb398c3f3dc596405434730d52ade7853efaf7e",
    "docwise+no_early_stop+accumulate": "96e233ab3d8dd47277fef0b908cfffd84fa3c1cbb0fe959d44544dfcbe97916d",
    "keywords": "47038968cf2083fdba3b9996d0b71949fff4607f30b8702570c7d227f91f8f4e",
    "no_early_stop": "efb3d48b2d11ffb60d3b4b088b6d5bf95adb41d8721cc3c10849e0bdfaa2d37a",
    "no_early_stop+accumulate": "de64320ae22666c82205432a36b1cb1570d5b215e6f23f184f04ba291b1ed517",
    "rag": "457df76920c435b1d8ecf01bf677eccd3eae8bb1a51830d830f32dc2ac2a7be3",
    "vanilla": "49a0b93612adaced23d106e0b4e164f31722cb884efa1facd0e5e53ce1b72cc1",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_lines_keep_their_digest(files, name):
    root, dataset, index = files
    out = root / f"{name}.jsonl"
    with StubLlmServer(_respond) as server:
        code = main(["run", "--dataset", str(dataset), "--index", str(index),
                     "--endpoint", server.url, "--model", "m", "--workers", "1",
                     "--max-iterations", "3", "--top-k", "3", "--no-timings", "--save-raw",
                     "--out", str(out), *CONFIGS[name]])
    assert code == 0
    header, *traces = out.read_bytes().splitlines(keepends=True)
    assert b'"kind":"header"' in header and len(traces) == len(QUESTIONS)
    digest = hashlib.sha256(b"".join(traces)).hexdigest()
    assert digest == DIGESTS[name]
