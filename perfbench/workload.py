"""Seeded synthetic workloads and the deterministic model the stub server plays.

A workload is a Zipfian corpus of one-chunk documents plus questions. Each
question has one planted document that holds its answer token once and each
of the three words of its key term three times, so that a query holding the
key term ranks that document first. The model:

- first-round keywords are the question's subject words (the question alone);
- each refinement appends one word: the key term at the question's reveal
  round, a filler word otherwise (a reveal round of 1 means the key term is
  already in the question; ``None`` means it is never revealed);
- the answer is the question's answer token if the prompt holds it, else
  ``UNKNOWN``;
- the True/False probe says True iff the answer is the answer token.

Everything derives from ``random.Random(f"{name}:{seed}")``, so the same
workload name and seed always give the same files.

The traffic is synthetic. No measured iteration mix or model latency is in
the repository, so the reveal shares and stub latencies below were picked so
that a question needs 1 to 5 iterations and the stub's fixed latency holds
question times steady against host drift.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import asdict, dataclass

import numpy as np

UNKNOWN = "unknown"
MAX_ITERATIONS = 5
KEY_WORDS = 3
KEY_REPEATS = 3
HEAD_RANKS = 40  # question "function words" come from the most frequent ranks
SUBJECT_RANKS = (200, 4000)
DOC_TOKENS = (120, 220)  # body length range: every document stays one 256-token chunk
NOMINAL_QPS = 2.2  # sizes the question set to fill --seconds
SESSIONS = 4  # `keyrag run` invocations per measured run

# No q, x or z in corpus words: those letters mark the planted tokens.
_SYLLABLES = [c + v for c in "bcdfghjklmnprstvw" for v in "aeiou"]


@dataclass(frozen=True)
class Spec:
    """Shape of one workload and the flags ``keyrag run`` gets for it."""

    n_docs: int
    vocab: int
    top_k: int
    early_stop: bool
    docwise: bool
    reveal_weights: tuple[float, ...]  # shares of reveal rounds 1..5, then never
    latency_ms: float  # stub service time per request

    def run_flags(self) -> list[str]:
        flags = ["--method", "iterative", "--top-k", str(self.top_k),
                 "--max-iterations", str(MAX_ITERATIONS), "--workers", "2"]
        if self.docwise:
            flags += ["--regen-mode", "docwise"]
        if not self.early_stop:
            flags.append("--no-early-stop")
        return flags


WORKLOADS = {
    "iter_10k": Spec(
        n_docs=10_000, vocab=40_000, top_k=3, early_stop=True, docwise=False,
        reveal_weights=(0.15, 0.15, 0.4, 0.1, 0.05, 0.15), latency_ms=80.0,
    ),
    "docwise_1k": Spec(
        n_docs=1_000, vocab=8_000, top_k=5, early_stop=False, docwise=True,
        reveal_weights=(0.2, 0.2, 0.2, 0.15, 0.1, 0.15), latency_ms=25.0,
    ),
}


@dataclass(frozen=True)
class Question:
    qid: int
    question: str
    answer: str
    key: str
    reveal: int | None
    initial: list[str]
    fillers: list[str]  # one per refinement round, iterations 2..MAX_ITERATIONS
    doc_id: str


def keywords_at(q: Question, iteration: int) -> list[str]:
    """The model's keyword list at 1-based ``iteration``."""
    keywords = list(q.initial)
    for j in range(2, iteration + 1):
        keywords.append(q.key if j == q.reveal else q.fillers[j - 2])
    return keywords


def answer_for(q: Question, prompt: str) -> str:
    # A whole-word match: a short answer token can be the prefix of another's.
    return q.answer if re.search(rf"\b{q.answer}\b", prompt) else UNKNOWN


def _words(rng: random.Random, n: int, prefix: str = "") -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < n:
        word = prefix + "".join(rng.choices(_SYLLABLES, k=rng.randint(2, 4)))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _reveal_rounds(rng: random.Random, weights: tuple[float, ...], n: int) -> list[int | None]:
    """Reveal rounds in fixed shares of ``n`` (largest remainder), shuffled.

    Fixed shares keep the mix of 1- to 5-iteration questions, and with it the
    question-time percentiles, the same for every seed.
    """
    exact = [w / sum(weights) * n for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    rounds = [r for r, c in zip([1, 2, 3, 4, 5, None], counts) for _ in range(c)]
    rng.shuffle(rounds)
    return rounds


@dataclass
class Workload:
    docs: list[dict]
    questions: list[Question]

    def write(self, corpus_path, qa_path, truth_path) -> None:
        with open(corpus_path, "w", encoding="utf-8") as f:
            for doc in self.docs:
                f.write(json.dumps(doc) + "\n")
        with open(qa_path, "w", encoding="utf-8") as f:
            for q in self.questions:
                f.write(json.dumps({"question": q.question, "answers": [q.answer]}) + "\n")
        with open(truth_path, "w", encoding="utf-8") as f:
            json.dump([asdict(q) for q in self.questions], f)


def load_truth(path) -> list[Question]:
    with open(path, encoding="utf-8") as f:
        return [Question(**row) for row in json.load(f)]


def make_workload(name: str, seed: int, n_questions: int, n_docs: int | None = None) -> Workload:
    spec = WORKLOADS[name]
    n_docs = n_docs or spec.n_docs
    if n_questions > n_docs:
        raise ValueError(f"{n_questions} questions need at least as many documents, got {n_docs}")
    rng = random.Random(f"{name}:{seed}")
    vocab = _words(rng, spec.vocab)
    cum = np.cumsum(1.0 / np.arange(1, spec.vocab + 1) ** 1.07)
    lo, hi = DOC_TOKENS
    draw = np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
    lengths = draw.integers(lo, hi + 1, size=n_docs)
    ranks = np.searchsorted(cum, draw.random(int(lengths.sum())) * cum[-1], side="right")
    tokens = np.array(vocab, dtype=object)[ranks].tolist()
    ends = np.cumsum(lengths).tolist()
    bodies = [tokens[end - n:end] for end, n in zip(ends, lengths.tolist())]
    titles = [
        " ".join(vocab[r].capitalize() for r in rng.sample(range(HEAD_RANKS, spec.vocab), 2))
        for _ in range(n_docs)
    ]

    planted = rng.sample(range(n_docs), n_questions)
    answers = _words(rng, n_questions, prefix="qx")
    key_words = _words(rng, KEY_WORDS * n_questions, prefix="zk")
    keys = [" ".join(key_words[i:i + KEY_WORDS]) for i in range(0, len(key_words), KEY_WORDS)]
    subjects = vocab[SUBJECT_RANKS[0]:SUBJECT_RANKS[1]]
    seen_questions: set[str] = set()
    questions: list[Question] = []
    for qid, (d, answer, key, reveal) in enumerate(
        zip(planted, answers, keys, _reveal_rounds(rng, spec.reveal_weights, n_questions))
    ):
        while True:
            picked = rng.sample(subjects, 3 + MAX_ITERATIONS - 1)
            initial, fillers = picked[:3], picked[3:]
            head = rng.sample(vocab[:HEAD_RANKS], 3)
            words = [head[0], head[1], initial[0], head[2], initial[1], initial[2]]
            if reveal == 1:
                words.append(key)
                initial = initial + [key]
            text = " ".join(words) + "?"
            if text not in seen_questions:
                seen_questions.add(text)
                break
        body = bodies[d]
        for token in [answer] + key.split() * KEY_REPEATS:
            body.insert(rng.randint(1, len(body) - 1), token)
        questions.append(Question(qid, text, answer, key, reveal, initial, fillers, f"d{d}"))

    docs = [{"id": f"d{i}", "title": titles[i], "text": " ".join(body)} for i, body in enumerate(bodies)]
    return Workload(docs, questions)
