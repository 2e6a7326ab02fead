"""Chat-completion backends: a live OpenAI-style HTTP client and a scripted mock.

Both send two kinds of request: plain generation (`complete`) and a one-token
log-probability probe for the options "True" and "False" (`choice_probs`),
which gives None when the backend hides probabilities. Each request may name
its model, so one backend serves every step of a run, whatever model each step
uses. They only send requests; the prompts module reads the replies, and the
pipeline decides a verdict.
"""
from __future__ import annotations

import base64
import json
import math
import random
import select
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from .corpus import read_jsonl, record


class LlmError(Exception):
    """Base class for backend failures."""


class TransportError(LlmError):
    """Network-level failure (connection refused, timeout, broken body) after retries."""


class BackendError(LlmError):
    """Endpoint returned an error status or an unparseable body."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class ScriptError(LlmError):
    """Mock script exhausted or no entry matches the prompt."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user"):
            raise ValueError(f"role must be 'system' or 'user', got {self.role!r}")
        if not self.content:
            raise ValueError("message content must be non-empty")


class LlmBackend:
    """Interface shared by the live client and the mock."""

    def complete(
        self, messages: list[ChatMessage], max_tokens: int, model: str | None = None
    ) -> str:
        """Greedy (temperature 0) generation of at most max_tokens tokens by model, if given."""
        raise NotImplementedError

    def submit(self, fn, *args) -> Future:
        """Start fn(*args), a task that calls this backend; a Future of its result.

        This runs the task at once in the calling thread, and its exception
        propagates from submit itself, so a scripted backend sees calls in
        program order. Backends that can overlap independent calls override this.
        """
        future: Future = Future()
        future.set_result(fn(*args))
        return future

    def choice_probs(
        self, messages: list[ChatMessage], model: str | None = None
    ) -> tuple[float, float] | None:
        """(p_true, p_false) from a probability probe of model, if given; None if unsupported."""
        raise NotImplementedError

    def close(self) -> None:
        """Release threads and connections; calls still in flight may fail.

        Safe to call more than once.
        """


def _delta_seconds(value: str | None) -> float | None:
    """A Retry-After header in delta-seconds; None when absent or an HTTP date."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if 0 <= seconds < math.inf else None


def _readable(sock) -> bool:
    """True when an idle socket has data or EOF waiting: the peer closed it."""
    try:
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):
        return True  # closed or out of select's range: treat as dropped


def _head(body: bytes) -> str:
    """The start of a response body, for error messages."""
    return body[:200].decode("utf-8", "replace")


def _user_text(messages: list[ChatMessage]) -> str:
    for msg in reversed(messages):
        if msg.role == "user":
            return msg.content
    return ""


@dataclass
class ScriptEntry:
    """One canned exchange: matched by substring against the rendered user message."""

    match: str
    response: str = ""
    p_true: float | None = None
    p_false: float | None = None

    @property
    def has_probs(self) -> bool:
        return self.p_true is not None or self.p_false is not None


class MockBackend(LlmBackend):
    """Deterministic scripted backend for tests and offline runs.

    Each call consumes the first unconsumed entry whose match string occurs in
    the rendered user message, whatever model it names. Entries carrying
    p_true/p_false serve the probability probe; plain entries serve text
    generation.
    """

    def __init__(self, entries: list[ScriptEntry]):
        self._entries = list(entries)
        self._consumed = [False] * len(self._entries)
        self._lock = threading.Lock()

    @classmethod
    def from_script_file(cls, path) -> "MockBackend":
        """Entries from a JSONL file; a line that is not an entry raises ScriptError naming it."""
        entries = []
        for line_no, obj in read_jsonl(path, lambda msg: ScriptError(f"script {msg}")):
            try:
                entries.append(record(ScriptEntry, obj))
            except ValueError as exc:
                raise ScriptError(f"script line {line_no}: {exc}") from None
        return cls(entries)

    def _take(self, messages: list[ChatMessage], probe: bool) -> ScriptEntry | None:
        """Consume and return the entry this call matches.

        A probe that matches an entry without probabilities gets None and leaves
        the entry for the text fallback's complete().
        """
        if not messages:
            raise ValueError("messages must not be empty")
        prompt = _user_text(messages)
        with self._lock:
            for i, entry in enumerate(self._entries):
                if not self._consumed[i] and entry.match in prompt:
                    break
            else:
                if all(self._consumed):
                    raise ScriptError(f"mock script exhausted; prompt was: {prompt[:80]!r}")
                raise ScriptError(f"no script entry matches prompt: {prompt[:80]!r}")
            if probe and not entry.has_probs:
                return None
            self._consumed[i] = True
            return entry

    def complete(
        self, messages: list[ChatMessage], max_tokens: int, model: str | None = None
    ) -> str:
        return self._take(messages, probe=False).response

    def choice_probs(
        self, messages: list[ChatMessage], model: str | None = None
    ) -> tuple[float, float] | None:
        entry = self._take(messages, probe=True)
        return None if entry is None else (entry.p_true or 0.0, entry.p_false or 0.0)


class HttpBackend(LlmBackend):
    """OpenAI-compatible chat-completions client over stdlib `http.client`.

    Retries (at most max_retries) apply only to transport failures (any
    `OSError` or `http.client.HTTPException`: refused or dropped connections,
    timeouts, TLS errors, broken bodies), HTTP 429 and 5xx responses; a 2xx
    response is never retried. A 429 waits for its Retry-After seconds when
    given, unless they exceed timeout: then its BackendError is raised at once,
    so one reply cannot stall a question without limit. Every other retry waits
    an exponential backoff with jitter.

    Each request names the model its call gives, else the constructor's, so one
    backend serves a run whatever models its steps use. It holds at most
    max_in_flight keep-alive connections, and a request waits for a free one,
    so the backend stays polite under concurrent pipelines; submit runs tasks
    on as many helper threads. An idle connection the server has closed is
    replaced before it is used, not retried. Proxies come from the environment
    (`HTTP_PROXY`, `HTTPS_PROXY`, `ALL_PROXY`, `NO_PROXY`), read once when the
    backend is made; an https endpoint behind a proxy is reached through a
    CONNECT tunnel. TLS is verified against the default trust store
    (`ssl.create_default_context`). Redirects are not followed.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        *,
        supports_logprobs: bool = True,
        max_retries: int = 3,
        backoff: float = 0.5,
        timeout: float = 60.0,
        max_in_flight: int = 4,
    ):
        # Imported here, not at module level: `keyrag index` and `keyrag eval`
        # never make a request and should not pay for importing http.client.
        import http.client
        import queue
        import urllib.parse
        import urllib.request

        # The path gets /chat/completions; a query (Azure's api-version) stays after it.
        url = urllib.parse.urlsplit(endpoint)
        path = url.path.rstrip("/")
        if not path.endswith("/chat/completions"):
            path += "/chat/completions"
        url = url._replace(path=path)
        self.url = urllib.parse.urlunsplit(url)
        self.model = model
        self.api_key = api_key
        self.supports_logprobs = supports_logprobs
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout

        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL, got {endpoint!r}")
        host, port = url.hostname, url.port or (443 if url.scheme == "https" else 80)
        self._target = url.path + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json", "User-Agent": "keyrag"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        proxies = urllib.request.getproxies()
        proxy = proxies.get(url.scheme) or proxies.get("all")
        tunnel = None
        if proxy and not urllib.request.proxy_bypass(host):
            via = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if via.scheme != "http" or not via.hostname:
                raise ValueError(f"unsupported proxy {proxy!r}: only http:// proxies are supported")
            proxy_headers = {}
            if via.username:
                credentials = f"{urllib.parse.unquote(via.username)}:"
                credentials += urllib.parse.unquote(via.password or "")
                token = base64.b64encode(credentials.encode()).decode("ascii")
                proxy_headers["Proxy-Authorization"] = f"Basic {token}"
            if url.scheme == "https":
                tunnel = (host, port, proxy_headers)
            else:
                self._target = self.url  # absolute-form request target
                self._headers.update(proxy_headers)
            host, port = via.hostname, via.port or 80
        connection, options = http.client.HTTPConnection, {"timeout": timeout}
        if url.scheme == "https":
            import ssl

            connection = http.client.HTTPSConnection
            options["context"] = ssl.create_default_context()
        self._connections = [connection(host, port, **options) for _ in range(max_in_flight)]
        # Connections open on first use; the most recently used is taken first,
        # so a backend that is rarely busy keeps few of them open.
        self._idle: queue.LifoQueue = queue.LifoQueue()
        for conn in self._connections:
            if tunnel:
                conn.set_tunnel(*tunnel)
            self._idle.put(conn)
        # Helper threads for submit: started on first use and kept until close(),
        # so a task does not pay for starting and joining a thread.
        self._pool = ThreadPoolExecutor(max_in_flight, thread_name_prefix="keyrag-llm")
        self._closed = threading.Event()

    def _send(self, body: bytes) -> tuple[int, str | None, bytes]:
        """POST body on a free connection; (status, Retry-After header, response body)."""
        conn = self._idle.get()
        try:
            if conn.sock is not None and _readable(conn.sock):
                conn.close()  # closed by the server while idle: reconnect, do not retry
            if conn.sock is None:
                conn.connect()
            if self._closed.is_set():  # close() may have missed a socket still connecting
                raise ConnectionAbortedError("the backend is closed")
            conn.request("POST", self._target, body, self._headers)
            resp = conn.getresponse()
            return resp.status, resp.getheader("Retry-After"), resp.read()
        except BaseException:
            conn.close()  # its state is unknown; the next request reconnects
            raise
        finally:
            self._idle.put(conn)

    def _post(self, payload: dict) -> dict:
        import http.client

        body = json.dumps(payload).encode()
        last_err: LlmError | None = None
        delay: float | None = None  # the Retry-After of the last 429, if it gave one
        for attempt in range(self.max_retries + 1):
            if attempt:
                if delay is None:
                    delay = self.backoff * (2 ** (attempt - 1)) * random.uniform(0.5, 1.0)
                self._closed.wait(delay)  # close() cuts the wait short
                delay = None
            if self._closed.is_set():
                raise TransportError(f"request to {self.url} not sent: the backend is closed")
            try:
                status, retry_after, data = self._send(body)
            except (OSError, http.client.HTTPException) as exc:
                last_err = TransportError(f"request to {self.url} failed: {exc!r}")
                continue
            if 200 <= status < 300:
                try:
                    return json.loads(data)
                except ValueError as exc:
                    raise BackendError(
                        f"non-JSON 2xx response: {_head(data)!r}", status=status
                    ) from exc
            last_err = BackendError(f"HTTP {status}: {_head(data)}", status=status)
            if status == 429:
                delay = _delta_seconds(retry_after)
                if delay is not None and delay > self.timeout:
                    raise last_err  # the wait would outlast what a request may take
            elif status < 500:
                raise last_err
        assert last_err is not None
        raise last_err

    def submit(self, fn, *args) -> Future:
        """Run fn(*args) on one of the backend's helper threads."""
        return self._pool.submit(fn, *args)

    def close(self) -> None:
        """Cut the calls in flight short with a TransportError and drop queued tasks.

        A closed backend makes no further attempt.
        """
        import socket

        self._closed.set()
        for conn in self._connections:
            sock = conn.sock
            if sock is not None:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # closed, or never connected
        self._pool.shutdown(cancel_futures=True)
        for conn in self._connections:
            conn.close()

    def _payload(self, messages: list[ChatMessage], model: str | None, max_tokens: int) -> dict:
        """A greedy (temperature 0) request to model, else the constructor's."""
        if not messages:
            raise ValueError("messages must not be empty")
        return {
            "model": model or self.model,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "max_tokens": max_tokens,
            "temperature": 0.0,
        }

    def complete(
        self, messages: list[ChatMessage], max_tokens: int, model: str | None = None
    ) -> str:
        data = self._post(self._payload(messages, model, max_tokens))
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion response: {data!r:.200}") from exc
        if not isinstance(text, str):
            raise BackendError("completion response has no text content")
        return text.rstrip()

    def choice_probs(
        self, messages: list[ChatMessage], model: str | None = None
    ) -> tuple[float, float] | None:
        if not self.supports_logprobs:
            return None
        payload = self._payload(messages, model, 1)
        payload["logprobs"] = True
        payload["top_logprobs"] = 5
        data = self._post(payload)
        try:
            alts = data["choices"][0]["logprobs"]["content"][0]["top_logprobs"]
        except (KeyError, IndexError, TypeError):
            return None
        if not isinstance(alts, list):
            return None
        p_true = 0.0
        p_false = 0.0
        found = False
        for alt in alts:
            if not isinstance(alt, dict):
                return None  # a malformed probe is a missing one: use the text path
            logprob = alt.get("logprob")
            if logprob is None:
                continue
            if isinstance(logprob, bool) or not isinstance(logprob, (int, float)):
                return None  # not a number
            if not logprob <= 0:
                return None  # not a log-probability; NaN fails the comparison too
            # exp is 0.0 below about -745; the floor keeps a huge negative int from overflowing.
            prob = math.exp(max(logprob, -1000.0))
            word = str(alt.get("token", "")).lstrip().lower()
            if word == "true":
                p_true += prob
                found = True
            elif word == "false":
                p_false += prob
                found = True
        if not found:
            return None  # neither option among the alternatives; use the text path
        return (p_true, p_false)
