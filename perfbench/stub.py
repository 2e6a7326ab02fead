"""OpenAI-compatible chat-completions stub that plays the synthetic model.

Run as ``python3 stub.py --truth truth.json --latency-ms 50``. It prints
``PORT <n>`` once it listens on 127.0.0.1 and serves until SIGTERM.

Each POST is answered ``--latency-ms`` after its request line arrived,
whatever the stub's own work, header parsing included, took. The response
goes out in a single write: writing the headers and the body separately
lets the client's delayed ACK stall every call by about 40 ms. ``GET /stats`` returns, and clears, the request log:
one ``[qid, kind, t_recv, t_sent, status]`` row per request, times from
``time.monotonic`` (one clock for every process on the host).
"""
from __future__ import annotations

import argparse
import json
import math
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from workload import Question, answer_for, keywords_at, load_truth

_QUERY = re.compile(r"Query: ([^?\n]*\?)")
_PREV_KEYWORDS = re.compile(r"Previous Keywords: (\[.*\])\n")
_ANSWER = re.compile(r"Answer: (.*)\n")


class Model:
    def __init__(self, questions: list[Question]):
        self.by_text = {q.question: q for q in questions}

    def reply(self, payload: dict) -> tuple[Question | None, str, str | None, bool]:
        """(question, kind, reply text or None if unrecognised, is a logprob probe)."""
        prompt = payload["messages"][-1]["content"]
        match = _QUERY.search(prompt)
        q = self.by_text.get(match.group(1)) if match else None
        if q is None:
            return None, "unknown", None, False
        if prompt.startswith("Generate a list of important keywords"):
            return q, "keywords", json.dumps(keywords_at(q, 1)), False
        if prompt.startswith(("Refine the keyword", "Please refine the keyword")):
            prev = json.loads(_PREV_KEYWORDS.search(prompt).group(1))
            iteration = len(prev) - len(q.initial) + 2
            return q, "regen", json.dumps(keywords_at(q, iteration)), False
        if prompt.startswith("Here is a question"):
            return q, "answer", answer_for(q, prompt), False
        if prompt.startswith("Is the following answer correct"):
            verdict = _ANSWER.search(prompt).group(1) == q.answer
            return q, "validate", "True" if verdict else "False", bool(payload.get("logprobs"))
        return q, "unknown", None, False


def _body(text: str, probe: bool) -> dict:
    choice: dict = {"index": 0, "message": {"role": "assistant", "content": text},
                    "finish_reason": "stop"}
    if probe:
        other = "False" if text == "True" else "True"
        alts = [{"token": text, "logprob": math.log(0.95)},
                {"token": other, "logprob": math.log(0.05)}]
        choice["logprobs"] = {"content": [{"token": text, "logprob": alts[0]["logprob"],
                                           "top_logprobs": alts}]}
    return {"object": "chat.completion", "choices": [choice]}


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, model: Model, latency_s: float):
        super().__init__(("127.0.0.1", 0), Handler)
        self.model = model
        self.latency_s = latency_s
        self.log: list[list] = []
        self.lock = threading.Lock()


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode()
        head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n").encode()
        self.wfile.write(head + data)

    def parse_request(self) -> bool:
        self.t_recv = time.monotonic()  # the request line has just been read
        return super().parse_request()

    def do_POST(self):  # noqa: N802 (http.server API)
        t_recv = self.t_recv
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        q, kind, text, probe = self.server.model.reply(payload)
        delay = t_recv + self.server.latency_s - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        if text is None:
            status, body = 400, {"error": {"message": f"unrecognised {kind} prompt"}}
        else:
            status, body = 200, _body(text, probe)
        self._send(status, body)
        row = [q.qid if q else None, kind, t_recv, time.monotonic(), status]
        with self.server.lock:
            self.server.log.append(row)

    def do_GET(self):  # noqa: N802 (http.server API)
        if self.path != "/stats":
            self._send(404, {"error": {"message": "not found"}})
            return
        with self.server.lock:
            log, self.server.log = self.server.log, []
        self._send(200, {"requests": log})

    def log_message(self, *args):
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--truth", required=True)
    parser.add_argument("--latency-ms", type=float, required=True)
    args = parser.parse_args()
    server = StubServer(Model(load_truth(args.truth)), args.latency_ms / 1000.0)

    def stop(*_):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
