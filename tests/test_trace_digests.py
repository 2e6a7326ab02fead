"""Pinned digests of `keyrag run` traces for vanilla, rag and the 16 loop configurations.

Each configuration runs four questions against a stub model that answers from
the request alone, with `--no-timings --save-raw --workers 1`, so a run's
trace lines are the same bytes on every run. The SHA-256 of those lines (the
header, which holds paths and a port, is left out) is pinned: a change to how
the pipeline builds its records or `keyrag run` writes them must keep every
byte, flags, raw exchanges and novelty counts included. Each file, read back
and written again, must also give the same bytes. The same digests must hold,
over the lines ordered by question, with three questions at once, replies
delayed by a seeded jitter, and requests that fail and are retried. The
report `keyrag eval` makes of each file, under each mode it accepts, is pinned
the same way.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import threading
import time

import pytest

from keyrag.cli import _json_line, main, read_traces
from keyrag.llm import HttpBackend
from keyrag.pipeline import trace_to_dict

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


def _trace_lines(files, name, respond, workers) -> list[bytes]:
    """The trace lines of one configuration's run, in the order they were written."""
    root, dataset, index = files
    out = root / f"{name}.w{workers}.jsonl"
    with StubLlmServer(respond) as server:
        code = main(["run", "--dataset", str(dataset), "--index", str(index),
                     "--endpoint", server.url, "--model", "m", "--workers", str(workers),
                     "--max-iterations", "3", "--top-k", "3", "--no-timings", "--save-raw",
                     "--out", str(out), *CONFIGS[name]])
    assert code == 0
    header, *traces = out.read_bytes().splitlines(keepends=True)
    assert b'"kind":"header"' in header and len(traces) == len(QUESTIONS)
    return traces


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_lines_keep_their_digest(files, name):
    traces = _trace_lines(files, name, _respond, workers=1)
    digest = hashlib.sha256(b"".join(traces)).hexdigest()
    assert digest == DIGESTS[name]
    # Read back and written again, every trace line is the same bytes.
    _, rows = read_traces(files[0] / f"{name}.w1.jsonl")
    rewritten = "".join(_json_line(trace_to_dict(trace, qid=qid)) + "\n" for qid, trace in rows)
    assert rewritten.encode("utf-8") == b"".join(traces)


# The SHA-256 of the `result` part of `keyrag eval --recall-ks 1,2 --index --out`
# on each configuration's trace file, one JSON line per mode in EVAL_MODES order:
# em and base for every file, the verified modes too where no trace stopped early.
# A question's answer is the one its topic's target level judges True, and the
# record that names it; topic 3's target level is never retrieved.
REPORT_DIGESTS = {
    "accumulate": "d3a378403b57e51ffd3f565bcee8d1d57fc38b521aa349bc14c33a8221c2ea2d",
    "cot": "7bb901d2f5084ee11c7de321cb1567c4d871f1c4ada73b54b446e644de920e30",
    "cot+accumulate": "7bb901d2f5084ee11c7de321cb1567c4d871f1c4ada73b54b446e644de920e30",
    "cot+no_early_stop": "dbef403882f749085e9d142d685a25e0ec779204cc5522f7c7aae5c30d1cce1a",
    "cot+no_early_stop+accumulate": "dbef403882f749085e9d142d685a25e0ec779204cc5522f7c7aae5c30d1cce1a",
    "docwise": "cf00310f8d4999b9b4599960c45ea83514fcffe643416c9d55592d0ad959d8a6",
    "docwise+accumulate": "cf00310f8d4999b9b4599960c45ea83514fcffe643416c9d55592d0ad959d8a6",
    "docwise+cot": "cf00310f8d4999b9b4599960c45ea83514fcffe643416c9d55592d0ad959d8a6",
    "docwise+cot+accumulate": "cf00310f8d4999b9b4599960c45ea83514fcffe643416c9d55592d0ad959d8a6",
    "docwise+cot+no_early_stop": "bbb064e61265a10482b2ef8d3d5483df4bc9af57ff32329a7abfe7a1a98724ed",
    "docwise+cot+no_early_stop+accumulate": "bbb064e61265a10482b2ef8d3d5483df4bc9af57ff32329a7abfe7a1a98724ed",
    "docwise+no_early_stop": "bbb064e61265a10482b2ef8d3d5483df4bc9af57ff32329a7abfe7a1a98724ed",
    "docwise+no_early_stop+accumulate": "bbb064e61265a10482b2ef8d3d5483df4bc9af57ff32329a7abfe7a1a98724ed",
    "keywords": "d3a378403b57e51ffd3f565bcee8d1d57fc38b521aa349bc14c33a8221c2ea2d",
    "no_early_stop": "431df174058b789748e791af43137e06f356fbb4e864cad79e4684536a36a736",
    "no_early_stop+accumulate": "431df174058b789748e791af43137e06f356fbb4e864cad79e4684536a36a736",
    "rag": "bc7ee134ba98028cc1c95a95a230422d94d4bac7089f57f52a0e7a58f221b635",
    "vanilla": "3acc4586eca40c35162419cb23607d64d5cd03ac80ea95cc4996ce48248aac7d",
}
EVAL_MODES = ("em", "base", "verified_true", "verified_all")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_eval_report_keeps_its_digest(files, name):
    root, _, index = files
    _trace_lines(files, name, _respond, workers=1)
    dataset = root / "qa_answers.jsonl"
    write_jsonl(dataset, [{"question": q, "answers": [f"topic {t} level {level}", f"ans{t}x{level}"]}
                          for t, (q, level) in enumerate(zip(QUESTIONS, TARGETS))])
    stopped_early = "no_early_stop" not in name and name not in ("vanilla", "rag")
    results = []
    for mode in EVAL_MODES[:2] if stopped_early else EVAL_MODES:
        report = root / f"{name}.{mode}.json"
        assert main(["eval", "--traces", str(root / f"{name}.w1.jsonl"), "--dataset", str(dataset),
                     "--mode", mode, "--recall-ks", "1,2", "--index", str(index),
                     "--out", str(report)]) == 0
        results.append(_json_line(json.loads(report.read_text(encoding="utf-8"))["result"]) + "\n")
    assert hashlib.sha256("".join(results).encode("utf-8")).hexdigest() == REPORT_DIGESTS[name]


# What a request may meet in place of its reply: a 429 with and without
# Retry-After, a 503, and a good reply whose connection drops halfway through.
FAULTS = {
    "429_retry_after": {"status": 429, "body": {"error": "busy"}, "headers": {"Retry-After": "0"}},
    "429": {"status": 429, "body": {"error": "busy"}},
    "503": {"status": 503, "body": {"error": "unavailable"}},
    "dropped": {"drop": True},
}


class _FaultSchedule:
    """_respond after a seeded 0-6 ms delay, with a bounded fault schedule.

    The n-th distinct request body to arrive meets fault n mod 4 when n < 4 or n
    is even, and only the first time it is sent: each body fails at most once.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.fired: dict[str, str] = {}  # request body -> the fault it met
        self.served: set[str] = set()  # request bodies answered in full
        self._seen: set[str] = set()

    def __call__(self, payload, i):
        body = json.dumps(payload, sort_keys=True)
        with self._lock:
            delay = self._rng.uniform(0.0, 0.006)
            fault = None
            if body not in self._seen:
                n = len(self._seen)
                self._seen.add(body)
                if n < len(FAULTS) or n % 2 == 0:
                    fault = self.fired[body] = list(FAULTS)[n % len(FAULTS)]
            if fault is None:
                self.served.add(body)
        time.sleep(delay)
        reply = _respond(payload, i)
        return reply if fault is None else {**reply, **FAULTS[fault]}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_lines_keep_their_digest_with_concurrent_questions_and_failed_requests(
        files, name, monkeypatch):
    monkeypatch.setitem(HttpBackend.__init__.__kwdefaults__, "backoff", 0.01)
    schedule = _FaultSchedule(seed=sorted(CONFIGS).index(name))
    traces = _trace_lines(files, name, schedule, workers=3)
    traces.sort(key=lambda line: json.loads(line)["qid"])
    assert hashlib.sha256(b"".join(traces)).hexdigest() == DIGESTS[name]
    # Every kind of fault fired, and every request that met one was sent again and answered.
    assert set(schedule.fired.values()) == set(FAULTS)
    assert set(schedule.fired) <= schedule.served
