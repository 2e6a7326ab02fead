from __future__ import annotations

import subprocess
import sys
import threading
import time

import pytest

from keyrag.llm import (
    BackendError,
    ChatMessage,
    GenParams,
    HttpBackend,
    LlmError,
    TransportError,
    forced_choice,
)

from .helpers import (
    FaultServer,
    StubLlmServer,
    completion_body,
    http_response,
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
        text = backend.complete(_msgs("ping"), GenParams(max_tokens=50, temperature=0.0))
        assert text == "ok"
        payload = server.requests[0]
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
        assert _backend(server).complete(_msgs(), GenParams(max_tokens=10)) == "  Eagle"


def test_sequential_calls_reuse_one_kept_alive_connection():
    with StubLlmServer() as server:
        backend = _backend(server)  # max_in_flight=4
        for _ in range(5):
            backend.complete(_msgs(), GenParams(max_tokens=10))
        backend.close()
    assert len(server.client_ports) == 5
    assert len(set(server.client_ports)) == 1


def test_2xx_is_never_retried():
    with StubLlmServer() as server:
        backend = _backend(server)
        backend.complete(_msgs(), GenParams(max_tokens=10))
        assert len(server.requests) == 1


def test_5xx_retried_then_succeeds():
    def respond(payload, i):
        if i == 0:
            return {"status": 500, "body": "boom"}
        return {"status": 200, "body": completion_body("recovered")}

    with StubLlmServer(respond) as server:
        backend = _backend(server)
        assert backend.complete(_msgs(), GenParams(max_tokens=10)) == "recovered"
        assert len(server.requests) == 2


def test_5xx_exhausts_retries():
    with StubLlmServer(lambda p, i: {"status": 503, "body": "down"}) as server:
        backend = _backend(server, max_retries=2)
        with pytest.raises(BackendError, match="503"):
            backend.complete(_msgs(), GenParams(max_tokens=10))
        assert len(server.requests) == 3  # initial call + 2 retries


def test_4xx_not_retried_and_reports_body():
    with StubLlmServer(lambda p, i: {"status": 404, "body": "no such model"}) as server:
        backend = _backend(server)
        with pytest.raises(BackendError, match="404.*no such model"):
            backend.complete(_msgs(), GenParams(max_tokens=10))
        assert len(server.requests) == 1


def test_unreachable_endpoint_transport_error():
    backend = HttpBackend("http://127.0.0.1:9/v1", "m", backoff=0.01, max_retries=1, timeout=0.2)
    with pytest.raises(TransportError):
        backend.complete(_msgs(), GenParams(max_tokens=10))


def test_empty_messages_rejected():
    backend = HttpBackend("http://127.0.0.1:9/v1", "m")
    with pytest.raises(ValueError):
        backend.complete([], GenParams(max_tokens=10))


# --- forced choice over the wire ------------------------------------------------


def test_forced_choice_logprob_probe():
    with StubLlmServer(
        lambda p, i: {"status": 200, "body": logprob_body([("True", 0.7), ("False", 0.3)])}
    ) as server:
        backend = _backend(server)
        verdict = forced_choice(backend, _msgs("Is it correct?"))
        assert verdict.choice is True
        assert verdict.method == "logprob"
        assert verdict.p_true == pytest.approx(0.7, rel=1e-9)
        assert verdict.p_false == pytest.approx(0.3, rel=1e-9)
        payload = server.requests[0]
        assert payload["logprobs"] is True
        assert payload["top_logprobs"] >= 5
        assert payload["max_tokens"] == 1


def test_forced_choice_probe_matches_tokens_loosely():
    body = logprob_body([(" false", 0.8), ("True", 0.2)])
    with StubLlmServer(lambda p, i: {"status": 200, "body": body}) as server:
        verdict = forced_choice(_backend(server), _msgs())
        assert verdict.choice is False


def test_forced_choice_text_fallback_when_no_logprobs():
    def respond(payload, i):
        if payload.get("logprobs"):
            return {"status": 200, "body": completion_body("x")}  # no logprobs field
        return {"status": 200, "body": completion_body(" False.")}

    with StubLlmServer(respond) as server:
        backend = _backend(server)
        verdict = forced_choice(backend, _msgs(), params=GenParams(max_tokens=30))
        assert verdict.choice is False
        assert verdict.method == "text-fallback"
        # probe first, then the generation request with the validation budget
        assert len(server.requests) == 2
        assert server.requests[1]["max_tokens"] == 30
        assert "logprobs" not in server.requests[1]


def test_forced_choice_skips_probe_when_disabled():
    with StubLlmServer(lambda p, i: {"status": 200, "body": completion_body("True")}) as server:
        backend = _backend(server, supports_logprobs=False)
        verdict = forced_choice(backend, _msgs())
        assert verdict.choice is True
        assert verdict.method == "text-fallback"
        assert len(server.requests) == 1
        assert "logprobs" not in server.requests[0]


def test_malformed_completion_body_raises_backend_error():
    with StubLlmServer(lambda p, i: {"status": 200, "body": {"choices": []}}) as server:
        with pytest.raises(BackendError, match="malformed"):
            _backend(server).complete(_msgs(), GenParams(max_tokens=10))


# --- transport errors, 429 -------------------------------------------------------


_TRUNCATED = http_response(completion_body("ok"))[:-5]


@pytest.mark.parametrize("reply, delay, error", [
    (_TRUNCATED, 0.0, "IncompleteRead"),  # the server closes mid-body
    (b"", 0.0, "RemoteDisconnected"),  # closes before the status line
    (b"SPDY/9 200 OK\r\n\r\n", 0.0, "BadStatusLine"),
    (b"", 1.0, "timed out"),  # no reply within the timeout
], ids=["truncated-body", "no-reply", "bad-status-line", "timeout"])
def test_broken_response_is_a_retried_transport_error(reply, delay, error):
    with FaultServer(reply, delay) as server:
        backend = _backend(server, backoff=0.0, max_retries=2, timeout=0.2)
        with pytest.raises(TransportError, match=error):
            backend.complete(_msgs(), GenParams(max_tokens=10))
        assert len(server.requests) == 3  # initial call + 2 retries


def test_idle_connection_closed_by_the_server_is_replaced_not_retried():
    # An HTTP/1.1 reply without "Connection: close" leaves the connection
    # kept alive on the client's side; the server closes it anyway.
    with FaultServer(http_response(completion_body("ok"))) as server:
        backend = _backend(server, max_retries=0, max_in_flight=1)
        for _ in range(5):
            assert backend.complete(_msgs(), GenParams(max_tokens=10)) == "ok"
            time.sleep(0.05)  # idle: the server's close arrives
        assert len(server.requests) == 5


def test_no_requests_package_needed():
    with StubLlmServer() as server:
        code = (
            "import sys\n"
            "sys.modules['requests'] = None  # any import of requests fails\n"
            "from keyrag.llm import ChatMessage, GenParams, HttpBackend\n"
            f"backend = HttpBackend({server.url!r}, 'm')\n"
            "print(backend.complete([ChatMessage('user', 'hi')], GenParams(max_tokens=5)))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=keyrag_env(NO_PROXY="127.0.0.1"),
                              capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
    assert len(server.requests) == 1


def test_429_waits_for_retry_after_then_succeeds():
    def respond(payload, i):
        if i == 0:
            return {"status": 429, "body": "slow down", "headers": {"Retry-After": "0"}}
        return {"status": 200, "body": completion_body("recovered")}

    with StubLlmServer(respond) as server:
        # The backoff would wait 15-30 s: Retry-After: 0 must replace it.
        backend = _backend(server, backoff=30.0)
        t0 = time.monotonic()
        assert backend.complete(_msgs(), GenParams(max_tokens=10)) == "recovered"
        assert time.monotonic() - t0 < 10.0
        assert len(server.requests) == 2


@pytest.mark.parametrize("headers", [{}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}])
def test_429_without_delta_seconds_uses_backoff(headers):
    def respond(payload, i):
        if i == 0:
            return {"status": 429, "body": "slow down", "headers": headers}
        return {"status": 200, "body": completion_body("recovered")}

    with StubLlmServer(respond) as server:
        assert _backend(server).complete(_msgs(), GenParams(max_tokens=10)) == "recovered"
        assert len(server.requests) == 2


def test_429_forever_exhausts_retries():
    reply = {"status": 429, "body": "rate limited", "headers": {"Retry-After": "0"}}
    with StubLlmServer(lambda p, i: reply) as server:
        backend = _backend(server, max_retries=2)
        with pytest.raises(BackendError, match="429") as info:
            backend.complete(_msgs(), GenParams(max_tokens=10))
        assert info.value.status == 429
        assert len(server.requests) == 3  # initial call + 2 retries


# --- batches ---------------------------------------------------------------------


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


def test_complete_many_overlaps_calls_and_keeps_input_order():
    seen = _Concurrency()

    def respond(payload, i):
        user = payload["messages"][-1]["content"]
        with seen:
            time.sleep(0.05 * (4 - int(user[-1])))  # later inputs finish first
        return {"status": 200, "body": completion_body(f"reply to {user}")}

    with StubLlmServer(respond) as server:
        backend = _backend(server)
        batch = [_msgs(f"doc {j}") for j in range(4)]
        replies = backend.complete_many(batch, GenParams(max_tokens=10))
    assert replies == [f"reply to doc {j}" for j in range(4)]
    assert seen.peak == 4


def test_connection_pool_bounds_requests_in_flight():
    seen = _Concurrency()

    def respond(payload, i):
        with seen:
            time.sleep(0.05)
        return {"status": 200, "body": completion_body("ok")}

    with StubLlmServer(respond) as server:
        backend = _backend(server, max_in_flight=2)
        replies = backend.complete_many([_msgs()] * 6, GenParams(max_tokens=10))
    assert replies == ["ok"] * 6
    assert seen.peak == 2


def test_complete_many_raises_first_error_in_input_order():
    def respond(payload, i):
        user = payload["messages"][-1]["content"]
        if user == "doc 1":
            time.sleep(0.1)
            return {"status": 400, "body": "bad doc 1"}
        if user == "doc 2":
            return {"status": 404, "body": "bad doc 2"}
        return {"status": 200, "body": completion_body("ok")}

    with StubLlmServer(respond) as server:
        backend = _backend(server)
        with pytest.raises(BackendError, match="bad doc 1"):
            backend.complete_many([_msgs(f"doc {j}") for j in range(4)], GenParams(max_tokens=10))
        assert len(server.requests) == 4


def test_complete_many_reuses_its_helper_threads_and_close_stops_them():
    with StubLlmServer() as server:
        backend = _backend(server)  # max_in_flight=4
        callers: list[threading.Thread] = []
        complete = backend.complete

        def recording_complete(messages, params):
            callers.append(threading.current_thread())
            return complete(messages, params)

        backend.complete = recording_complete
        for _ in range(10):
            assert backend.complete_many([_msgs()] * 3, GenParams(max_tokens=10)) == ["ok"] * 3
        helpers = {t for t in callers if t is not threading.current_thread()}
        # 10 batches make 20 calls off the calling thread; a thread per call would be 20.
        assert 2 <= len(helpers) <= 4
        backend.close()
    assert not any(t.is_alive() for t in helpers)


def test_proxy_from_the_environment_is_used(monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    with StubLlmServer() as proxy:
        monkeypatch.setenv("HTTP_PROXY", proxy.url.removesuffix("/v1"))
        # Nothing listens on port 9: the reply can only come through the proxy.
        backend = HttpBackend("http://127.0.0.1:9/v1", "m", backoff=0.0)
        assert backend.complete(_msgs(), GenParams(max_tokens=10)) == "ok"
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
])
def test_proxy_gets_the_request_target_and_credentials(no_proxy_env, endpoint, request_line):
    refusal = b"HTTP/1.1 407 Proxy Authentication Required\r\nContent-Length: 0\r\n\r\n"
    with FaultServer(refusal) as proxy:
        address = proxy.url.removeprefix("http://").removesuffix("/v1")
        no_proxy_env.setenv("ALL_PROXY", f"http://user:p%20w@{address}")
        backend = HttpBackend(endpoint, "m", max_retries=0)
        with pytest.raises(LlmError):
            backend.complete(_msgs(), GenParams(max_tokens=10))
    head = proxy.requests[0].split(b"\r\n")
    assert head[0].startswith(request_line)
    assert b"Proxy-Authorization: Basic dXNlcjpwIHc=" in head  # base64 of "user:p w"


def test_endpoint_query_string_stays_after_the_chat_completions_path(no_proxy_env):
    with StubLlmServer() as server:
        endpoint = server.url.removesuffix("/v1") + "/openai/deployments/d?api-version=2024-02-01"
        backend = HttpBackend(endpoint, "m", max_retries=0)
        assert backend.complete(_msgs(), GenParams(max_tokens=10)) == "ok"
    assert backend.url == server.url.removesuffix("/v1") + (
        "/openai/deployments/d/chat/completions?api-version=2024-02-01"
    )
    assert server.paths == ["/openai/deployments/d/chat/completions?api-version=2024-02-01"]


def test_no_proxy_from_the_environment_is_honoured(no_proxy_env):
    no_proxy_env.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # nothing listens there
    no_proxy_env.setenv("NO_PROXY", "localhost,127.0.0.1")
    with StubLlmServer() as server:
        assert _backend(server, max_retries=0).complete(_msgs(), GenParams(max_tokens=10)) == "ok"
        assert len(server.requests) == 1


def test_unsupported_proxy_is_refused(no_proxy_env):
    no_proxy_env.setenv("HTTPS_PROXY", "socks5://127.0.0.1:1080")
    with pytest.raises(ValueError, match="only http:// proxies"):
        HttpBackend("https://api.example.invalid/v1", "m")
