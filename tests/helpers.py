"""Shared test utilities: independent BM25 oracle, corpus builders, HTTP stubs."""
from __future__ import annotations

import json
import math
import os
import random
import re
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import keyrag
from keyrag.bm25 import Bm25Params, Index, build_index
from keyrag.corpus import Chunk, Document
from keyrag.llm import MockBackend, ScriptEntry

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
    return [Chunk(f"{prefix}{i}", t) for i, t in enumerate(texts)]


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


class RecordingMock(MockBackend):
    """A MockBackend that keeps, in `calls`, the user message of each call that took an entry.

    A probe that finds an entry without probabilities takes none, so it is not kept.
    """

    def __init__(self, entries: list[ScriptEntry]):
        super().__init__(entries)
        self.calls: list[str] = []

    def _take(self, messages, probe):
        entry = super()._take(messages, probe)
        if entry is not None:
            self.calls.append(messages[-1].content)  # every caller puts the user message last
        return entry


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


class _LocalServer:
    """A server on 127.0.0.1, served from a daemon thread inside a `with` block."""

    def __init__(self, server: socketserver.TCPServer):
        self._server = server
        # shutdown() waits for the serving loop's next poll: the default 0.5 s
        # poll would add up to half a second to every test that starts a server.
        self._thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )

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


class StubLlmServer(_LocalServer):
    """Local HTTP server that records request payloads and replays canned replies.

    Behavior is driven by `respond`, a callable (payload, request_index) -> dict
    returning {"status": int, "body": dict|str} and optionally "headers", a dict
    of extra response headers, and "drop": True, which closes the connection
    halfway through the body. Defaults to a plain completion.
    """

    def __init__(self, respond=None):
        self.requests: list[dict] = []
        self.paths: list[str] = []  # the request target of each request
        self.client_ports: list[int] = []  # one per request; repeats mean a kept-alive connection
        self._respond = respond or (lambda payload, i: {
            "status": 200,
            "body": completion_body("ok"),
        })
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"  # keeps connections alive, as real endpoints do
            # The head and the body go out in two writes: without this, Nagle's
            # algorithm holds the body for the client's delayed ACK (~40 ms).
            disable_nagle_algorithm = True

            def do_POST(self):  # noqa: N802 (http.server API)
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length) or b"{}")
                with outer._lock:
                    i = len(outer.requests)
                    outer.requests.append(payload)
                    outer.paths.append(self.path)
                    outer.client_ports.append(self.client_address[1])
                reply = outer._respond(payload, i)
                body = reply["body"]
                data = (body if isinstance(body, str) else json.dumps(body)).encode()
                self.send_response(reply.get("status", 200))
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in reply.get("headers", {}).items():
                    self.send_header(name, value)
                if reply.get("drop"):
                    data = data[: len(data) // 2]
                    self.close_connection = True
                try:
                    self.end_headers()
                    self.wfile.write(data)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client has hung up; there is no one to answer

            def log_message(self, *args):
                pass

        super().__init__(ThreadingHTTPServer(("127.0.0.1", 0), Handler))


class FaultServer(_LocalServer):
    """Raw TCP server: reads one request per connection, sends `reply` bytes, closes.

    `reply` may be a malformed or truncated HTTP response; `delay` seconds pass
    between reading the request and replying. `requests` holds the head
    (request line and headers) of each request read.
    """

    def __init__(self, reply: bytes, delay: float = 0.0):
        self.requests: list[bytes] = []
        outer = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                head = _read_request(self.request)
                if head is None:
                    return
                outer.requests.append(head)
                time.sleep(delay)
                self.request.sendall(reply)

        class Server(socketserver.ThreadingTCPServer):
            daemon_threads = True
            block_on_close = False

        super().__init__(Server(("127.0.0.1", 0), Handler))


def _read_request(sock) -> bytes | None:
    """Read one HTTP request with a Content-Length body; its head, or None on hang-up."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            return None
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    match = re.search(rb"(?im)^content-length:\s*(\d+)", head)
    missing = int(match.group(1)) - len(body) if match else 0
    while missing > 0:
        chunk = sock.recv(missing)
        if not chunk:
            return None
        missing -= len(chunk)
    return head


def http_response(body: dict | str, status: str = "200 OK") -> bytes:
    """A complete HTTP/1.1 response with a Content-Length body."""
    data = (body if isinstance(body, str) else json.dumps(body)).encode()
    head = (f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n")
    return head.encode() + data


def keyrag_env(**extra: str) -> dict[str, str]:
    """Environment for a subprocess that imports keyrag from this checkout."""
    paths = [str(Path(keyrag.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **extra}


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
