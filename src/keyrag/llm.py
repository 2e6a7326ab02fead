"""Chat-completion backends: a live OpenAI-style HTTP client and a scripted mock.

Both support plain generation and a binary True/False decision. The decision
prefers a one-token log-probability probe (argmax over the two options) and
falls back to generating text and scanning it for the first "true"/"false"
word when the backend hides probabilities.
"""
from __future__ import annotations

import base64
import json
import math
import random
import re
import select
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass


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


@dataclass(frozen=True)
class GenParams:
    max_tokens: int
    temperature: float = 0.0

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be positive, got {self.max_tokens}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")


@dataclass(frozen=True)
class BinaryVerdict:
    choice: bool
    p_true: float | None
    p_false: float | None
    method: str  # "logprob" or "text-fallback"
    flagged: bool = False


class LlmBackend:
    """Interface shared by the live client and the mock."""

    def complete(self, messages: list[ChatMessage], params: GenParams) -> str:
        raise NotImplementedError

    def complete_many(self, batch: list[list[ChatMessage]], params: GenParams) -> list[str]:
        """complete() for each message list of a batch; replies in input order.

        Calls are made one after another, so a scripted backend sees them in
        batch order. Backends that can overlap independent calls override this.
        """
        return [self.complete(messages, params) for messages in batch]

    def choice_probs(self, messages: list[ChatMessage]) -> tuple[float, float] | None:
        """(p_true, p_false) from a probability probe, or None if unsupported."""
        raise NotImplementedError

    def close(self) -> None:
        """Release threads and connections; the backend is not used afterwards.

        Safe to call more than once.
        """


FORCED_OPTIONS = ("True", "False")


def forced_choice(
    backend: LlmBackend,
    messages: list[ChatMessage],
    options: tuple[str, str] = FORCED_OPTIONS,
    params: GenParams | None = None,
) -> BinaryVerdict:
    """Binary decision between "True" and "False".

    Probability probe first: the option with the higher probability wins, ties
    going to False. Without probabilities, generate up to params.max_tokens and
    scan the text; a text that contains neither word yields a flagged False.
    """
    if tuple(options) != FORCED_OPTIONS:
        raise ValueError(f"options are fixed to {FORCED_OPTIONS}")
    if not messages:
        raise ValueError("messages must not be empty")
    probs = backend.choice_probs(messages)
    if probs is not None:
        p_true, p_false = probs
        return BinaryVerdict(
            choice=p_true > p_false, p_true=p_true, p_false=p_false, method="logprob"
        )
    text = backend.complete(messages, params or GenParams(max_tokens=30))
    return verdict_from_text(text)


def verdict_from_text(text: str) -> BinaryVerdict:
    """Map the first alphabetic "true"/"false" word; neither present → flagged False."""
    for word in re.findall(r"[A-Za-z]+", text):
        lowered = word.lower()
        if lowered == "true":
            return BinaryVerdict(True, None, None, "text-fallback")
        if lowered == "false":
            return BinaryVerdict(False, None, None, "text-fallback")
    return BinaryVerdict(False, None, None, "text-fallback", flagged=True)


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
    the rendered user message. Entries carrying p_true/p_false serve the
    probability probe; plain entries serve text generation.
    """

    def __init__(self, entries: list[ScriptEntry]):
        self._entries = list(entries)
        self._consumed = [False] * len(self._entries)
        self._lock = threading.Lock()
        self.n_calls = 0
        self.calls: list[str] = []

    @classmethod
    def from_script_file(cls, path) -> "MockBackend":
        entries = []
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ScriptError(f"script line {line_no}: invalid JSON ({exc.msg})") from exc
                if "match" not in obj:
                    raise ScriptError(f"script line {line_no}: missing 'match'")
                entries.append(
                    ScriptEntry(
                        match=obj["match"],
                        response=obj.get("response", ""),
                        p_true=obj.get("p_true"),
                        p_false=obj.get("p_false"),
                    )
                )
        return cls(entries)

    def _find(self, prompt: str) -> int | None:
        for i, entry in enumerate(self._entries):
            if not self._consumed[i] and entry.match in prompt:
                return i
        return None

    def _no_match_error(self, prompt: str) -> ScriptError:
        if all(self._consumed):
            return ScriptError(f"mock script exhausted; prompt was: {prompt[:80]!r}")
        return ScriptError(f"no script entry matches prompt: {prompt[:80]!r}")

    def complete(self, messages: list[ChatMessage], params: GenParams) -> str:
        if not messages:
            raise ValueError("messages must not be empty")
        prompt = _user_text(messages)
        with self._lock:
            i = self._find(prompt)
            if i is None:
                raise self._no_match_error(prompt)
            self._consumed[i] = True
            self.n_calls += 1
            self.calls.append(prompt)
            return self._entries[i].response

    def choice_probs(self, messages: list[ChatMessage]) -> tuple[float, float] | None:
        prompt = _user_text(messages)
        with self._lock:
            i = self._find(prompt)
            if i is None:
                raise self._no_match_error(prompt)
            entry = self._entries[i]
            if not entry.has_probs:
                return None  # left unconsumed for the text-fallback complete()
            self._consumed[i] = True
            self.n_calls += 1
            self.calls.append(prompt)
            return (entry.p_true or 0.0, entry.p_false or 0.0)


class HttpBackend(LlmBackend):
    """OpenAI-compatible chat-completions client over stdlib `http.client`.

    Retries (at most max_retries) apply only to transport failures (any
    `OSError` or `http.client.HTTPException`: refused or dropped connections,
    timeouts, TLS errors, broken bodies), HTTP 429 and 5xx responses; a 2xx
    response is never retried. A 429 waits for its Retry-After seconds when
    given; every other retry waits an exponential backoff with jitter.

    The backend holds at most max_in_flight keep-alive connections, and a
    request waits for a free one, so shared backends stay polite under
    concurrent pipelines. An idle connection the server has closed is replaced
    before it is used, not retried. Proxies come from the environment
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
        top_logprobs: int = 5,
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
        self.top_logprobs = max(5, top_logprobs)
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
        # complete_many's helper threads: started on first use and kept until
        # close(), so a batch does not pay for starting and joining threads.
        self._pool = ThreadPoolExecutor(max_in_flight, thread_name_prefix="keyrag-llm")

    def _send(self, body: bytes) -> tuple[int, str | None, bytes]:
        """POST body on a free connection; (status, Retry-After header, response body)."""
        conn = self._idle.get()
        try:
            if conn.sock is not None and _readable(conn.sock):
                conn.close()  # closed by the server while idle: reconnect, do not retry
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
                time.sleep(delay)
                delay = None
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
            elif status < 500:
                raise last_err
        assert last_err is not None
        raise last_err

    def complete_many(self, batch: list[list[ChatMessage]], params: GenParams) -> list[str]:
        """All calls of the batch at once; replies in input order.

        The calling thread makes the first call itself, the backend's helper
        threads the others. If any call fails, waits for the others, then
        raises the error of the first failed call in batch order.
        """
        if len(batch) < 2:
            return super().complete_many(batch, params)
        futures = [self._pool.submit(self.complete, messages, params) for messages in batch[1:]]
        try:
            first = self.complete(batch[0], params)
        finally:
            wait(futures)
        return [first] + [future.result() for future in futures]

    def close(self) -> None:
        self._pool.shutdown()
        for conn in self._connections:
            conn.close()

    def _payload(self, messages: list[ChatMessage]) -> dict:
        return {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
        }

    def complete(self, messages: list[ChatMessage], params: GenParams) -> str:
        if not messages:
            raise ValueError("messages must not be empty")
        payload = self._payload(messages)
        payload["max_tokens"] = params.max_tokens
        payload["temperature"] = params.temperature
        data = self._post(payload)
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion response: {data!r:.200}") from exc
        if not isinstance(text, str):
            raise BackendError("completion response has no text content")
        return text.rstrip()

    def choice_probs(self, messages: list[ChatMessage]) -> tuple[float, float] | None:
        if not self.supports_logprobs:
            return None
        payload = self._payload(messages)
        payload["max_tokens"] = 1
        payload["temperature"] = 0.0
        payload["logprobs"] = True
        payload["top_logprobs"] = self.top_logprobs
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
            token = str(alt.get("token", ""))
            logprob = alt.get("logprob")
            if logprob is None:
                continue
            word = token.lstrip().lower()
            if word == "true":
                p_true += math.exp(logprob)
                found = True
            elif word == "false":
                p_false += math.exp(logprob)
                found = True
        if not found:
            return None  # neither option among the alternatives; use the text path
        return (p_true, p_false)
