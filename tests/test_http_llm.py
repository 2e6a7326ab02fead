from __future__ import annotations

import threading
import time

import pytest
import requests

from keyrag.llm import BackendError, ChatMessage, GenParams, HttpBackend, TransportError, forced_choice

from .helpers import RaisingSession, StubLlmServer, completion_body, logprob_body


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


@pytest.mark.parametrize("error", [
    requests.exceptions.ChunkedEncodingError,
    requests.exceptions.ContentDecodingError,
    requests.exceptions.TooManyRedirects,
    requests.exceptions.InvalidJSONError,
])
def test_any_requests_exception_is_a_retried_transport_error(error):
    session = RaisingSession(error)
    backend = HttpBackend("http://127.0.0.1:9/v1", "m", backoff=0.0, max_retries=2,
                          session=session)
    with pytest.raises(TransportError, match="connection broken"):
        backend.complete(_msgs(), GenParams(max_tokens=10))
    assert session.calls == 3  # initial call + 2 retries


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
