"""Shared test utilities: independent BM25 oracle, corpus builders, HTTP stub."""
from __future__ import annotations

import json
import math
import random
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import requests

from keyrag.bm25 import Bm25Params, Index, build_index
from keyrag.corpus import Chunk, Document
from keyrag.llm import ScriptEntry

# --- independent brute-force BM25 oracle -------------------------------------
# Re-derives everything from raw chunk texts; shares no code with keyrag.bm25
# beyond the formula written out by hand.

_WORD = re.compile(r"[^\W_]+", re.UNICODE)


def oracle_tokens(text: str, stopwords=frozenset()) -> list[str]:
    toks = [m.group().lower() for m in _WORD.finditer(text)]
    return [t for t in toks if t not in stopwords]


def oracle_top_k(
    texts: list[str],
    chunk_ids: list[str],
    query: str,
    k: int,
    k1: float = 1.5,
    b: float = 0.75,
    stopwords=frozenset(),
) -> list[tuple[str, float]]:
    """Score every chunk with the BM25 formula and sort; ties by insertion order."""
    doc_tokens = [oracle_tokens(t, stopwords) for t in texts]
    n = len(texts)
    lens = [len(toks) for toks in doc_tokens]
    avg = sum(lens) / n if n else 0.0
    counts = [dict() for _ in range(n)]
    for i, toks in enumerate(doc_tokens):
        for t in toks:
            counts[i][t] = counts[i].get(t, 0) + 1
    df = {}
    for c in counts:
        for t in c:
            df[t] = df.get(t, 0) + 1
    q_tokens = oracle_tokens(query, stopwords)
    scored = []
    for i in range(n):
        s = 0.0
        for t in q_tokens:
            tf = counts[i].get(t, 0)
            if tf == 0:
                continue
            idf = math.log((n - df.get(t, 0) + 0.5) / (df.get(t, 0) + 0.5) + 1.0)
            norm = 1.0 - b + b * (lens[i] / avg if avg > 0 else 0.0)
            s += idf * tf * (k1 + 1.0) / (tf + k1 * norm)
        if s > 0.0:
            scored.append((i, s))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [(chunk_ids[i], s) for i, s in scored[:k]]


# --- corpus/index builders ----------------------------------------------------


def chunks_from_texts(texts: list[str], prefix: str = "c") -> list[Chunk]:
    return [
        Chunk(chunk_id=f"{prefix}{i}", doc_id=f"{prefix}{i}", ordinal=0,
              token_span=(0, len(oracle_tokens(t))), text=t)
        for i, t in enumerate(texts)
    ]


def index_from_texts(texts: list[str], params: Bm25Params | None = None,
                     stopwords=frozenset()) -> Index:
    return build_index(chunks_from_texts(texts), params=params, stopwords=stopwords)


def random_corpus(rng: random.Random, max_chunks: int = 1000, max_vocab: int = 200):
    """Random chunk texts over a bounded vocabulary, plus queries drawn from it."""
    vocab_size = rng.randint(5, max_vocab)
    vocab = [f"w{j}" for j in range(vocab_size)]
    n_chunks = rng.randint(1, max_chunks)
    texts = []
    for _ in range(n_chunks):
        length = rng.randint(1, 30)
        texts.append(" ".join(rng.choice(vocab) for _ in range(length)))
    return texts, vocab


def random_query(rng: random.Random, vocab: list[str]) -> str:
    terms = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.3:
        terms.append("unseen" + str(rng.randint(0, 9)))
    return " ".join(terms)


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False) + "\n")


def walkthrough_script() -> list[ScriptEntry]:
    """Two-round walkthrough: wrong answer rejected, refined keywords accepted."""
    return [
        ScriptEntry("Generate a list of important keywords",
                    '["Moon landing", "Spacecraft", "First humans"]'),
        ScriptEntry("Here is a question", "Space Shuttle Challenger"),
        ScriptEntry("Is the following answer correct", p_true=0.2, p_false=0.8),
        ScriptEntry("Refine the keyword selection", '["Apollo 11", "Lunar module name"]'),
        ScriptEntry("Here is a question", "Eagle"),
        ScriptEntry("Is the following answer correct", p_true=0.9, p_false=0.1),
    ]


MOON_QUESTION = "What is the name of the spacecraft that first landed humans on the Moon?"

MOON_DOCS = [
    Document("apollo", "Apollo 11",
             "The Apollo 11 lunar module Eagle landed the first humans on the Moon in 1969."),
    Document("challenger", "Challenger",
             "The Space Shuttle Challenger broke apart shortly after launch in 1986."),
]


# --- stub chat-completions server ---------------------------------------------


class StubLlmServer:
    """Local HTTP server that records request payloads and replays canned replies.

    Behavior is driven by `respond`, a callable (payload, request_index) -> dict
    returning {"status": int, "body": dict|str} and optionally "headers", a dict
    of extra response headers. Defaults to a plain completion.
    """

    def __init__(self, respond=None):
        self.requests: list[dict] = []
        self._respond = respond or (lambda payload, i: {
            "status": 200,
            "body": completion_body("ok"),
        })
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 (http.server API)
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length) or b"{}")
                with outer._lock:
                    i = len(outer.requests)
                    outer.requests.append(payload)
                reply = outer._respond(payload, i)
                body = reply["body"]
                data = (body if isinstance(body, str) else json.dumps(body)).encode()
                self.send_response(reply.get("status", 200))
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in reply.get("headers", {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        return False


class RaisingSession(requests.Session):
    """A requests session whose every send raises `error`."""

    def __init__(self, error: type[Exception]):
        super().__init__()
        self.error = error
        self.calls = 0

    def send(self, *args, **kwargs):
        self.calls += 1
        raise self.error("connection broken")


def completion_body(text: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def logprob_body(top: list[tuple[str, float]]) -> dict:
    """A 1-token completion with top_logprobs = [(token, prob)] pairs."""
    alts = [{"token": tok, "logprob": math.log(p)} for tok, p in top]
    best = top[0][0] if top else ""
    return {
        "choices": [
            {
                "message": {"role": "assistant", "content": best},
                "logprobs": {"content": [{"token": best, "top_logprobs": alts}]},
            }
        ]
    }
