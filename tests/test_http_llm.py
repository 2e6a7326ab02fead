from __future__ import annotations

import json
import math
import re
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from keyrag.bm25 import retrieve_top_k
from keyrag.llm import (
    BackendError,
    ChatMessage,
    HttpBackend,
    LlmError,
    TransportError,
)
from keyrag.pipeline import RunConfig, expand_query, run, run_iterative
from keyrag.prompts import BinaryVerdict

from .helpers import (
    FaultServer,
    StubLlmServer,
    TunnelProxy,
    completion_body,
    http_response,
    index_from_texts,
    keyrag_env,
    logprob_body,
)


@pytest.fixture(autouse=True)
def _close_backends(monkeypatch):
    """Close every backend a test makes, so no kept-alive socket outlives the test."""
    made: list[HttpBackend] = []
    init = HttpBackend.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(HttpBackend, "__init__", recording_init)
    yield
    for backend in made:
        backend.close()


def _msgs(user: str = "hello") -> list[ChatMessage]:
    return [ChatMessage("system", "sys"), ChatMessage("user", user)]


def _backend(server, **kwargs) -> HttpBackend:
    kwargs.setdefault("backoff", 0.01)
    return HttpBackend(server.url, "test-model", "sk-test", **kwargs)


def test_complete_request_shape_and_response():
    with StubLlmServer() as server:
        backend = _backend(server)
        text = backend.complete(_msgs("ping"), 50)
        assert text == "ok"
        payload = server.requests[0]
        assert list(payload) == ["model", "messages", "max_tokens", "temperature"]
        assert payload["model"] == "test-model"
        assert payload["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "ping"},
        ]
        assert payload["max_tokens"] == 50
        assert payload["temperature"] == 0.0
        assert "logprobs" not in payload


def test_complete_strips_trailing_whitespace_only():
    with StubLlmServer(lambda p, i: {"status": 200, "body": completion_body("  Eagle \n")}) as server:
        assert _backend(server).complete(_msgs(), 10) == "  Eagle"


def test_sequential_calls_reuse_one_kept_alive_connection():
    with StubLlmServer() as server:
        backend = _backend(server)  # max_in_flight=4
        for _ in range(5):
            backend.complete(_msgs(), 10)
        backend.close()
    assert len(server.client_ports) == 5
    assert len(set(server.client_ports)) == 1


def test_2xx_is_never_retried():
    with StubLlmServer() as server:
        backend = _backend(server)
        backend.complete(_msgs(), 10)
        assert len(server.requests) == 1


def test_5xx_retried_then_succeeds():
    def respond(payload, i):
        if i == 0:
            return {"status": 500, "body": "boom"}
        return {"status": 200, "body": completion_body("recovered")}

    with StubLlmServer(respond) as server:
        backend = _backend(server)
        assert backend.complete(_msgs(), 10) == "recovered"
        assert len(server.requests) == 2


def test_5xx_exhausts_retries():
    with StubLlmServer(lambda p, i: {"status": 503, "body": "down"}) as server:
        backend = _backend(server, max_retries=2)
        with pytest.raises(BackendError, match="503"):
            backend.complete(_msgs(), 10)
        assert len(server.requests) == 3  # initial call + 2 retries


def test_4xx_not_retried_and_reports_body():
    with StubLlmServer(lambda p, i: {"status": 404, "body": "no such model"}) as server:
        backend = _backend(server)
        with pytest.raises(BackendError, match="404.*no such model"):
            backend.complete(_msgs(), 10)
        assert len(server.requests) == 1


def test_unreachable_endpoint_transport_error():
    backend = HttpBackend("http://127.0.0.1:9/v1", "m", backoff=0.01, max_retries=1, timeout=0.2)
    with pytest.raises(TransportError):
        backend.complete(_msgs(), 10)


def test_empty_messages_rejected():
    backend = HttpBackend("http://127.0.0.1:9/v1", "m")
    with pytest.raises(ValueError):
        backend.complete([], 10)
    with pytest.raises(ValueError):
        backend.choice_probs([])


# --- the probe over the wire -----------------------------------------------------


def test_choice_probs_sends_a_one_token_logprob_probe():
    with StubLlmServer(
        lambda p, i: {"status": 200, "body": logprob_body([("True", 0.7), ("False", 0.3)])}
    ) as server:
        backend = _backend(server)
        assert backend.choice_probs(_msgs("Is it correct?")) == pytest.approx((0.7, 0.3), rel=1e-9)
        payload = server.requests[0]
        assert payload["logprobs"] is True
        assert list(payload) == [
            "model", "messages", "max_tokens", "temperature", "logprobs", "top_logprobs"
        ]
        assert payload["top_logprobs"] == 5
        assert payload["max_tokens"] == 1
        assert payload["temperature"] == 0.0


def test_choice_probs_matches_tokens_loosely():
    body = logprob_body([(" false", 0.8), ("True", 0.2)])
    with StubLlmServer(lambda p, i: {"status": 200, "body": body}) as server:
        assert _backend(server).choice_probs(_msgs()) == pytest.approx((0.2, 0.8), rel=1e-9)


def test_choice_probs_is_none_when_the_reply_has_no_logprobs():
    with StubLlmServer(lambda p, i: {"status": 200, "body": completion_body("x")}) as server:
        assert _backend(server).choice_probs(_msgs()) is None
        assert len(server.requests) == 1


@pytest.mark.parametrize("alts, probs", [
    ([None], None),
    (["True"], None),
    ([{"token": "True", "logprob": "high"}], None),
    ([{"token": "True", "logprob": True}], None),
    ([{"token": "True", "logprob": 1000}], None),
    ([{"token": "True", "logprob": 0.5}], None),
    ([{"token": "True", "logprob": float("nan")}], None),  # sent as the bare token NaN
    ([{"token": "False", "logprob": -0.1}, {"token": "True", "logprob": float("inf")}], None),
    # A log-probability below a float's range is a probability of 0.
    ([{"token": "True", "logprob": -(10 ** 400)}, {"token": "False", "logprob": -2}],
     (0.0, math.exp(-2))),
], ids=["null-entry", "string-entry", "string-logprob", "bool-logprob", "logprob-1000",
        "positive-logprob", "nan-logprob", "inf-logprob", "logprob-below-float-range"])
def test_choice_probs_treats_a_malformed_probe_as_missing(alts, probs):
    """Entries that are no object, or logprobs that are no log-probability, give no probabilities."""
    body = logprob_body([])
    body["choices"][0]["logprobs"]["content"][0]["top_logprobs"] = alts
    with StubLlmServer(lambda p, i: {"status": 200, "body": body}) as server:
        assert _backend(server).choice_probs(_msgs()) == probs
        assert len(server.requests) == 1


def test_choice_probs_sends_nothing_when_disabled():
    with StubLlmServer() as server:
        assert _backend(server, supports_logprobs=False).choice_probs(_msgs()) is None
        assert server.requests == []


# --- the validation step over the wire ----------------------------------------------


def _validation_over_the_wire(respond, validation_mode="plain", **backend_kwargs):
    """One iteration against a stub: (its record, the validation step's requests)."""
    idx = index_from_texts(["moon landing eagle module", "challenger shuttle"])
    config = RunConfig(max_iterations=1, validation_mode=validation_mode, save_raw=True)
    with StubLlmServer(respond) as server:
        backend = _backend(server, **backend_kwargs)
        trace = run("iterative", "what landed on the moon?", idx, backend, config)
    assert len(trace.iterations) == 1 and trace.error is None
    return trace.iterations[0], server.requests[2:]  # after the keyword and answer calls


def _probe_hidden(payload, i):
    if payload.get("logprobs"):
        return {"status": 200, "body": completion_body("x")}  # no logprobs field
    if "Generate a list of important keywords" in payload["messages"][-1]["content"]:
        return {"status": 200, "body": completion_body('["moon", "landing"]')}
    return {"status": 200, "body": completion_body(" False.")}


def test_a_plain_validation_whose_probe_comes_back_empty_sends_two_requests_and_records_one():
    rec, requests = _validation_over_the_wire(_probe_hidden)
    assert rec.verdict == BinaryVerdict(False, None, None, "text-fallback")
    # The probe, then the generation request with the validation budget; the
    # raw entries show the verdict once for both.
    assert [(r["max_tokens"], r.get("logprobs")) for r in requests] == [(1, True), (30, None)]
    assert [e["completion"] for e in rec.raw if e["step"] == "answer_validation"] == [
        "verdict=False"
    ]


def test_a_validation_skips_the_probe_when_disabled():
    rec, requests = _validation_over_the_wire(_probe_hidden, supports_logprobs=False)
    assert rec.verdict == BinaryVerdict(False, None, None, "text-fallback")
    assert [(r["max_tokens"], r.get("logprobs")) for r in requests] == [(30, None)]


def test_a_cot_validation_sends_one_request_and_no_probe():
    rec, requests = _validation_over_the_wire(_probe_hidden, validation_mode="cot")
    assert rec.verdict == BinaryVerdict(False, None, None, "text-fallback")
    assert [(r["max_tokens"], r.get("logprobs")) for r in requests] == [(30, None)]
    assert [e["completion"] for e in rec.raw if e["step"] == "answer_validation"] == [" False."]


def test_malformed_completion_body_raises_backend_error():
    with StubLlmServer(lambda p, i: {"status": 200, "body": {"choices": []}}) as server:
        with pytest.raises(BackendError, match="malformed"):
            _backend(server).complete(_msgs(), 10)


# --- transport errors, 429 -------------------------------------------------------


_TRUNCATED = http_response(completion_body("ok"))[:-5]


@pytest.mark.parametrize("reply, delay, error", [
    (_TRUNCATED, 0.0, "body cut short"),  # the server closes mid-body
    (b"", 0.0, "closed before the status line"),
    (b"SPDY/9 200 OK\r\n\r\n", 0.0, "bad status line"),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 12abc\r\n\r\n", 0.0, "bad Content-Length"),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 1%b\r\n\r\n" % (b"0" * 5000), 0.0, "bad Content-Length"),
    (b"HTTP/1.1 200 OK\r\nX-Pad: %b\r\n\r\n" % (b"a" * 70000), 0.0, "head longer than"),
    (b"", 1.0, "timed out"),  # no reply within the timeout
], ids=["truncated-body", "no-reply", "bad-status-line", "bad-content-length",
        "content-length-too-long", "head-too-long", "timeout"])
def test_broken_response_is_a_retried_transport_error(reply, delay, error):
    with FaultServer(reply, delay) as server:
        backend = _backend(server, backoff=0.0, max_retries=2, timeout=0.2)
        with pytest.raises(TransportError, match=error):
            backend.complete(_msgs(), 10)
        assert len(server.requests) == 3  # initial call + 2 retries


def test_timeout_bounds_the_whole_reply_not_each_read():
    # One byte every 0.15 s: no single read waits the 0.5 s timeout.
    with FaultServer(http_response(completion_body("ok")), byte_gap=0.15) as server:
        backend = _backend(server, max_retries=0, timeout=0.5)
        t0 = time.monotonic()
        with pytest.raises(TransportError, match="timed out"):
            backend.complete(_msgs(), 10)
        assert time.monotonic() - t0 < 2.0
        assert len(server.requests) == 1


_BODY = json.dumps(completion_body("framed")).encode()


@pytest.mark.parametrize("reply, calls, hold", [
    # chunked coding, with a chunk extension and a trailer field
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
     b"a;name=value\r\n" + _BODY[:10] + b"\r\n%X\r\n" % (len(_BODY) - 10) + _BODY[10:]
     + b"\r\n0\r\nX-Trailer: t\r\n\r\n", 1, 0.0),
    # no Content-Length: the body ends where the server closes the connection
    (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + _BODY, 3, 0.0),
    # the next request opens a new connection at once, with no retry, while
    # the server still holds the old one open
    (b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: %d\r\n\r\n" % len(_BODY)
     + _BODY, 3, 0.3),
], ids=["chunked", "close-delimited", "connection-close"])
def test_each_body_framing_is_read_without_a_retry(reply, calls, hold):
    with FaultServer(reply, hold=hold) as server:
        backend = _backend(server, max_retries=0, max_in_flight=1)
        assert [backend.complete(_msgs(), 10) for _ in range(calls)] == ["framed"] * calls
        assert len(server.requests) == calls


def test_idle_connection_closed_by_the_server_is_replaced_not_retried():
    # An HTTP/1.1 reply without "Connection: close" leaves the connection
    # kept alive on the client's side; the server closes it anyway.
    with FaultServer(http_response(completion_body("ok"))) as server:
        backend = _backend(server, max_retries=0, max_in_flight=1)
        for _ in range(5):
            assert backend.complete(_msgs(), 10) == "ok"
            time.sleep(0.05)  # idle: the server's close arrives
        assert len(server.requests) == 5


def test_no_requests_package_needed():
    with StubLlmServer() as server:
        code = (
            "import sys\n"
            "sys.modules['requests'] = None  # any import of requests fails\n"
            "from keyrag.llm import ChatMessage, HttpBackend\n"
            f"backend = HttpBackend({server.url!r}, 'm')\n"
            "print(backend.complete([ChatMessage('user', 'hi')], 5))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=keyrag_env(NO_PROXY="127.0.0.1"),
                              capture_output=True, encoding="utf-8", timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
    assert len(server.requests) == 1


@pytest.mark.parametrize("name", ["Retry-After", "RETRY-AFTER"])
def test_429_waits_for_retry_after_then_succeeds(name):
    def respond(payload, i):
        if i == 0:
            return {"status": 429, "body": "slow down", "headers": {name: "0"}}
        return {"status": 200, "body": completion_body("recovered")}

    with StubLlmServer(respond) as server:
        # The backoff would wait 15-30 s: Retry-After: 0 must replace it.
        backend = _backend(server, backoff=30.0)
        t0 = time.monotonic()
        assert backend.complete(_msgs(), 10) == "recovered"
        assert time.monotonic() - t0 < 10.0
        assert len(server.requests) == 2


@pytest.mark.parametrize("headers", [{}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}])
def test_429_without_delta_seconds_uses_backoff(headers):
    def respond(payload, i):
        if i == 0:
            return {"status": 429, "body": "slow down", "headers": headers}
        return {"status": 200, "body": completion_body("recovered")}

    with StubLlmServer(respond) as server:
        assert _backend(server).complete(_msgs(), 10) == "recovered"
        assert len(server.requests) == 2


def test_429_whose_retry_after_outlasts_the_timeout_raises_at_once():
    reply = {"status": 429, "body": "rate limited", "headers": {"Retry-After": "3600"}}
    errors: list[LlmError] = []
    with StubLlmServer(lambda p, i: reply) as server:
        backend = _backend(server, timeout=0.5)

        def call():
            try:
                backend.complete(_msgs(), 10)
            except LlmError as exc:
                errors.append(exc)

        caller = threading.Thread(target=call)
        caller.start()
        caller.join(timeout=5.0)
        still_waiting = caller.is_alive()
        backend.close()  # ends a wait for the Retry-After, should there be one
        caller.join()
    assert not still_waiting
    assert [(type(exc), exc.status) for exc in errors] == [(BackendError, 429)]
    assert len(server.requests) == 1


def test_429_forever_exhausts_retries():
    reply = {"status": 429, "body": "rate limited", "headers": {"Retry-After": "0"}}
    with StubLlmServer(lambda p, i: reply) as server:
        backend = _backend(server, max_retries=2)
        with pytest.raises(BackendError, match="429") as info:
            backend.complete(_msgs(), 10)
        assert info.value.status == 429
        assert len(server.requests) == 3  # initial call + 2 retries


# --- submit ----------------------------------------------------------------------


class _Concurrency:
    """Counts requests the stub is serving at once."""

    def __init__(self):
        self.now = 0
        self.peak = 0
        self._lock = threading.Lock()

    def __enter__(self):
        with self._lock:
            self.now += 1
            self.peak = max(self.peak, self.now)

    def __exit__(self, *exc):
        with self._lock:
            self.now -= 1


_DOCS = [f"moon landing doc{j}" for j in range(4)]
_QUESTION = "what landed on the moon?"


def _round_order() -> list[str]:
    """The documents of _docwise_round's refinement round, in the round's order."""
    index = index_from_texts(_DOCS)
    hits = retrieve_top_k(index, expand_query(_QUESTION, ["moon"]), 4)
    return [index.text_of(hit.chunk_id) for hit in hits]


def _docwise_round(server):
    """The trace of one docwise refinement round over 4 documents, through an HttpBackend.

    The stub sees the keyword call, the answer, the validation, then the round's 4 calls.
    """
    config = RunConfig(regen_mode="docwise", top_k=4, max_iterations=2, save_raw=True)
    backend = _backend(server, max_in_flight=config.calls_in_flight)
    return run_iterative(_QUESTION, index_from_texts(_DOCS), backend, config)


def _docwise_stub(on_rank):
    """Replies for _docwise_round; a docwise call returns on_rank(its document's rank)."""
    order = _round_order()

    def respond(payload, i):
        user = payload["messages"][-1]["content"]
        if payload.get("logprobs"):
            return {"status": 200, "body": logprob_body([("False", 0.9), ("True", 0.1)])}
        if "Please refine the keyword selection" in user:
            return on_rank(order.index(re.search(r"moon landing doc\d", user).group()))
        if "Generate a list of important keywords" in user:
            return {"status": 200, "body": completion_body('["moon"]')}
        return {"status": 200, "body": completion_body("an answer")}

    return respond


def test_a_docwise_round_sends_its_calls_at_once_and_merges_replies_in_document_order():
    seen = _Concurrency()

    def on_rank(rank):
        with seen:
            time.sleep(0.05 * (4 - rank))  # later documents finish first
        return {"status": 200, "body": completion_body(f'["kw{rank}"]')}

    with StubLlmServer(_docwise_stub(on_rank)) as server:
        trace = _within(10, _docwise_round, server)
    second = trace.iterations[1]
    assert second.keywords == ["kw0", "kw1", "kw2", "kw3"]
    docwise = [r for r in second.raw if r["step"] == "keyword_regeneration_docwise"]
    assert [r["user"].count(doc) for r, doc in zip(docwise, _round_order())] == [1] * 4
    assert [r["completion"] for r in docwise] == [f'["kw{rank}"]' for rank in range(4)]
    assert seen.peak == 4


def test_a_docwise_round_raises_its_first_failure_in_document_order_after_every_call():
    def on_rank(rank):
        if rank == 1:
            time.sleep(0.1)
            return {"status": 400, "body": "bad rank 1"}
        if rank == 2:
            return {"status": 404, "body": "bad rank 2"}
        return {"status": 200, "body": completion_body('["ok"]')}

    with StubLlmServer(_docwise_stub(on_rank)) as server:
        with pytest.raises(BackendError, match="bad rank 1"):
            _within(10, _docwise_round, server)
        assert len(server.requests) == 3 + 4


def test_connection_pool_bounds_requests_in_flight():
    seen = _Concurrency()

    def respond(payload, i):
        with seen:
            time.sleep(0.05)
        return {"status": 200, "body": completion_body("ok")}

    with StubLlmServer(respond) as server:
        backend = _backend(server, max_in_flight=2)
        calls = [backend.submit(backend.complete, _msgs(), 10) for _ in range(6)]
        assert [call.result(timeout=10) for call in calls] == ["ok"] * 6
    assert seen.peak == 2


def test_submit_reuses_its_helper_threads_and_close_stops_them():
    with StubLlmServer() as server:
        backend = _backend(server)  # max_in_flight=4
        callers: list[threading.Thread] = []
        complete = backend.complete

        def recording_complete(messages, max_tokens):
            callers.append(threading.current_thread())
            return complete(messages, max_tokens)

        for _ in range(10):
            calls = [backend.submit(recording_complete, _msgs(), 10) for _ in range(3)]
            assert [call.result(timeout=10) for call in calls] == ["ok"] * 3
        helpers = set(callers)
        assert threading.current_thread() not in helpers
        # 30 calls; a thread per call would be 30.
        assert 2 <= len(helpers) <= 4
        backend.close()
    assert not any(t.is_alive() for t in helpers)


def test_close_ends_the_calls_in_flight_and_makes_no_further_attempt():
    release = threading.Event()

    def held(payload, i):
        release.wait(timeout=20)
        return {"status": 200, "body": completion_body("too late")}

    with StubLlmServer(held) as server:
        try:
            backend = _backend(server, max_retries=3)
            calls = [backend.submit(backend.complete, _msgs(), 10) for _ in range(2)]
            deadline = time.monotonic() + 10
            while len(server.requests) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(server.requests) == 2
            t0 = time.monotonic()
            backend.close()
            errors = [call.exception(timeout=5) for call in calls]
            assert time.monotonic() - t0 < 2
            assert all(isinstance(error, TransportError) for error in errors)
            with pytest.raises(TransportError, match="closed"):
                backend.complete(_msgs(), 10)
            assert len(server.requests) == 2
        finally:
            release.set()


@pytest.mark.parametrize("via_proxy", [False, True], ids=["tls-handshake", "tunnel-reply"])
def test_close_ends_a_call_still_opening_its_connection(no_proxy_env, via_proxy):
    # The listener reads and never answers: the call waits in the TLS handshake
    # for the server's hello, or for the proxy's reply to CONNECT.
    with socket.create_server(("127.0.0.1", 0)) as listener:
        address = "127.0.0.1:%d" % listener.getsockname()[1]
        endpoint = f"https://{address}/v1"
        if via_proxy:
            no_proxy_env.setenv("HTTPS_PROXY", f"http://{address}")
            endpoint = "https://api.example.invalid/v1"
        backend = HttpBackend(endpoint, "m", timeout=30, max_retries=3)
        call = backend.submit(backend.complete, _msgs(), 10)
        listener.settimeout(10)
        peer, _ = listener.accept()
        with peer:
            peer.settimeout(10)
            assert peer.recv(65536)  # the TLS hello, or the CONNECT request
            t0 = time.monotonic()
            backend.close()
            assert isinstance(call.exception(timeout=5), TransportError)
            assert time.monotonic() - t0 < 2


def _within(seconds: float, fn, *args):
    """fn(*args) on another thread; fails the test if it takes longer than seconds."""
    pool = ThreadPoolExecutor(1)
    try:
        return pool.submit(fn, *args).result(timeout=seconds)
    finally:
        pool.shutdown(wait=False)


def test_proxy_from_the_environment_is_used(monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    with StubLlmServer() as proxy:
        monkeypatch.setenv("HTTP_PROXY", proxy.url.removesuffix("/v1"))
        # Nothing listens on port 9: the reply can only come through the proxy.
        backend = HttpBackend("http://127.0.0.1:9/v1", "m", backoff=0.0)
        assert backend.complete(_msgs(), 10) == "ok"
        assert len(proxy.requests) == 1


@pytest.fixture()
def no_proxy_env(monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY", "all_proxy",
                 "ALL_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


@pytest.mark.parametrize("endpoint, request_line", [
    # http: the proxy gets the request itself, with an absolute-form target
    ("http://127.0.0.1:9/v1", b"POST http://127.0.0.1:9/v1/chat/completions HTTP/"),
    # a query string stays after the joined path
    ("http://127.0.0.1:9/openai/deployments/d?api-version=2024-02-01",
     b"POST http://127.0.0.1:9/openai/deployments/d/chat/completions?api-version=2024-02-01 HTTP/"),
    # https: the proxy is asked for a tunnel; TLS to the endpoint would follow
    ("https://api.example.invalid/v1", b"CONNECT api.example.invalid:443 HTTP/"),
    # a host name that is not ASCII goes out in its IDNA form
    ("http://b\u00fccher.example.invalid:9/v1",
     b"POST http://xn--bcher-kva.example.invalid:9/v1/chat/completions HTTP/"),
    ("https://b\u00fccher.example.invalid/v1", b"CONNECT xn--bcher-kva.example.invalid:443 HTTP/"),
])
def test_proxy_gets_the_request_target_and_credentials(no_proxy_env, endpoint, request_line):
    refusal = b"HTTP/1.1 407 Proxy Authentication Required\r\nContent-Length: 0\r\n\r\n"
    with FaultServer(refusal) as proxy:
        address = proxy.url.removeprefix("http://").removesuffix("/v1")
        no_proxy_env.setenv("ALL_PROXY", f"http://user:p%20w@{address}")
        backend = HttpBackend(endpoint, "m", max_retries=0)
        with pytest.raises(LlmError):
            backend.complete(_msgs(), 10)
    head = proxy.requests[0].split(b"\r\n")
    assert head[0].startswith(request_line)
    target = head[0].split(b" ")[1]
    assert b"Host: " + (target.split(b"/")[2] if b"://" in target else target) in head
    assert b"Proxy-Authorization: Basic dXNlcjpwIHc=" in head  # base64 of "user:p w"


def test_endpoint_query_string_stays_after_the_chat_completions_path(no_proxy_env):
    with StubLlmServer() as server:
        endpoint = server.url.removesuffix("/v1") + "/openai/deployments/d?api-version=2024-02-01"
        backend = HttpBackend(endpoint, "m", max_retries=0)
        assert backend.complete(_msgs(), 10) == "ok"
    assert backend.url == server.url.removesuffix("/v1") + (
        "/openai/deployments/d/chat/completions?api-version=2024-02-01"
    )
    assert server.paths == ["/openai/deployments/d/chat/completions?api-version=2024-02-01"]


def test_no_proxy_from_the_environment_is_honoured(no_proxy_env):
    no_proxy_env.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # nothing listens there
    no_proxy_env.setenv("NO_PROXY", "localhost,127.0.0.1")
    with StubLlmServer() as server:
        assert _backend(server, max_retries=0).complete(_msgs(), 10) == "ok"
        assert len(server.requests) == 1


def test_unsupported_proxy_is_refused(no_proxy_env):
    no_proxy_env.setenv("HTTPS_PROXY", "socks5://127.0.0.1:1080")
    with pytest.raises(ValueError, match="only http:// proxies"):
        HttpBackend("https://api.example.invalid/v1", "m")


@pytest.fixture()
def tls_cert(tmp_path):
    """A self-signed certificate for 127.0.0.1: (its file, a server context presenting it)."""
    if shutil.which("openssl") is None:
        pytest.skip("needs the openssl command")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-days", "2", "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1", "-keyout", str(key), "-out", str(cert)],
        check=True, capture_output=True,
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    return cert, context


def test_https_endpoint_is_verified_against_the_trust_store(tls_cert, no_proxy_env):
    cert, context = tls_cert
    no_proxy_env.delenv("SSL_CERT_DIR", raising=False)
    with StubLlmServer(context=context) as server:
        assert server.url.startswith("https://127.0.0.1:")
        no_proxy_env.setenv("SSL_CERT_FILE", str(cert))
        assert _backend(server, max_retries=0).complete(_msgs(), 10) == "ok"
        no_proxy_env.delenv("SSL_CERT_FILE")  # the default trust store does not hold it
        with pytest.raises(TransportError, match="certificate verify failed"):
            _backend(server, max_retries=0).complete(_msgs(), 10)
    assert len(server.requests) == 1


def test_https_endpoint_behind_a_proxy_is_reached_through_a_kept_alive_tunnel(
    tls_cert, no_proxy_env
):
    cert, context = tls_cert
    no_proxy_env.setenv("SSL_CERT_FILE", str(cert))
    with StubLlmServer(context=context) as server, TunnelProxy() as proxy:
        address = proxy.url.removeprefix("http://").removesuffix("/v1")
        no_proxy_env.setenv("HTTPS_PROXY", f"http://user:pw@{address}")
        backend = _backend(server, max_retries=0)
        assert [backend.complete(_msgs(), 10) for _ in range(2)] == ["ok", "ok"]
        backend.close()
    head = proxy.requests[0].split(b"\r\n")
    assert head[0] == server.url.replace("https://", "CONNECT ").replace("/v1", " HTTP/1.1").encode()
    assert b"Proxy-Authorization: Basic dXNlcjpwdw==" in head  # base64 of "user:pw"
    assert len(proxy.requests) == 1 and len(server.requests) == 2


@pytest.mark.parametrize("endpoint, api_key", [
    ("http://127.0.0.1:9/v1", "sk-test\r\nX-Injected: 1"),  # would add a header field
    ("http://127.0.0.1:9/my models/v1", None),  # would split the request line
    ("http://127.0.0.1:9/mod\u00e8les/v1", None),  # a request line is ASCII
])
def test_a_setting_that_would_break_the_request_head_is_refused(no_proxy_env, endpoint, api_key):
    with pytest.raises(ValueError, match="control character|path has a space or is not ASCII"):
        HttpBackend(endpoint, "m", api_key)
