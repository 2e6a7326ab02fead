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
import os
import random
import re
import select
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from .corpus import read_records


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


def _delta_seconds(value: bytes | None) -> float | None:
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
        script = read_records(path, ScriptEntry, lambda msg: ScriptError(f"script {msg}"))
        return cls([entry for _, entry in script])

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


_MAX_HEAD = 65536  # bytes: the longest reply head, chunk-size line or trailer field accepted
_UNSAFE = re.compile(r"[\x00-\x1f\x7f]")  # would end or split a request line or header field


class FramingError(Exception):
    """A reply that breaks HTTP/1.1 message framing; HttpBackend retries it as a TransportError."""


def _left(deadline: float) -> float:
    """The seconds left before deadline, a time.monotonic() reading; TimeoutError if none."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


class _Stream:
    """The I/O of one request attempt on one socket, each read bounded by the attempt's deadline.

    It reads the part of HTTP/1.1 (RFC 9112) a client needs: a status line,
    header fields, and a body framed by Content-Length, by chunked coding or
    by the end of the connection.
    """

    __slots__ = ("sock", "deadline", "buf")

    def __init__(self, sock, deadline: float):
        self.sock = sock
        self.deadline = deadline
        self.buf = b""  # bytes received and not yet parsed

    def arm(self) -> None:
        """Give the socket's next operation what is left of the deadline."""
        self.sock.settimeout(_left(self.deadline))

    def send(self, data: bytes) -> None:
        self.arm()
        self.sock.sendall(data)

    def _recv(self) -> bool:
        """Append what the peer sends next to buf; False at the end of its stream."""
        self.arm()
        data = self.sock.recv(65536)
        self.buf += data
        return bool(data)

    def _until(self, sep: bytes, what: str) -> bytes:
        """The bytes before the next sep, which is consumed with them."""
        start = 0
        while (end := self.buf.find(sep, start)) < 0 and len(self.buf) <= _MAX_HEAD:
            start = max(0, len(self.buf) - len(sep) + 1)
            if not self._recv():
                raise FramingError(f"connection closed inside the {what}")
        if not 0 <= end <= _MAX_HEAD:
            raise FramingError(f"{what} longer than {_MAX_HEAD} bytes")
        data, self.buf = self.buf[:end], self.buf[end + len(sep):]
        return data

    def _take(self, n: int) -> bytes:
        while len(self.buf) < n:
            if not self._recv():
                raise FramingError(f"body cut short: {len(self.buf)} of {n} bytes")
        data, self.buf = self.buf[:n], self.buf[n:]
        return data

    def head(self) -> tuple[bytes, int, dict[bytes, bytes]]:
        """(version, status, header fields by lower-case name) of the next final reply."""
        while True:  # a 1xx reply is interim: the final reply follows it
            if not self.buf and not self._recv():
                raise FramingError("connection closed before the status line")
            lines = self._until(b"\r\n\r\n", "reply head").split(b"\r\n")
            version, _, rest = lines[0].partition(b" ")
            code = rest[:3]
            status = int(code) if code.isdigit() and rest[3:4] in (b"", b" ") else 0
            if version not in (b"HTTP/1.1", b"HTTP/1.0") or status < 100:
                raise FramingError(f"bad status line {lines[0][:80]!r}")
            if status >= 200:
                break
        fields = {}
        for line in lines[1:]:
            name, colon, value = line.partition(b":")
            if colon:
                fields[name.strip().lower()] = value.strip()
        return version, status, fields

    def reply(self) -> tuple[int, dict[bytes, bytes], bytes, bool]:
        """(status, header fields, body, whether the connection stays open) of the next reply."""
        version, status, fields = self.head()
        connection = fields.get(b"connection", b"").lower()
        if version == b"HTTP/1.1":
            keep = b"close" not in connection
        else:
            keep = b"keep-alive" in connection
        length = fields.get(b"content-length")
        if status in (204, 304):
            body = b""
        elif fields.get(b"transfer-encoding", b"").lower() == b"chunked":
            body = self._chunked()
        elif length is not None:
            if not length.isdigit() or len(length) > 18:  # int() refuses over 4300 digits
                raise FramingError(f"bad Content-Length {length[:40]!r}")
            body = self._take(int(length))
        else:  # the body ends with the connection
            while self._recv():
                pass
            body, self.buf, keep = self.buf, b"", False
        # Bytes past the reply answer no request: the connection is in an unknown state.
        return status, fields, body, keep and not self.buf

    def _chunked(self) -> bytes:
        parts = []
        while True:
            line = self._until(b"\r\n", "chunk-size line")
            size = line.partition(b";")[0].strip()  # a chunk extension follows a ';'
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise FramingError(f"bad chunk-size line {line[:40]!r}")
            n = int(size, 16)
            if not n:
                break
            parts.append(self._take(n))
            if self._take(2) != b"\r\n":
                raise FramingError("chunk data not followed by CRLF")
        while self._until(b"\r\n", "trailer section"):
            pass  # trailer fields are not used
        return b"".join(parts)


class _Connection:
    """A slot of the connection pool: the socket of one connection, or None while closed."""

    __slots__ = ("sock",)

    def __init__(self):
        self.sock = None

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            sock.close()


def _idna(name: str) -> str:
    """A host name for a request head: each non-ASCII label in its IDNA (xn--) form."""
    return name if name.isascii() else name.encode("idna").decode("ascii")


def _request_head(start: str, fields: list[str]) -> bytes:
    """A request line and its header fields as bytes, each line ended by CRLF."""
    lines = [start, *fields]
    if any(_UNSAFE.search(line) for line in lines):
        raise ValueError("a control character in the endpoint, the api key or a proxy setting")
    return "".join(f"{line}\r\n" for line in lines).encode("latin-1")


class HttpBackend(LlmBackend):
    """OpenAI-compatible chat-completions client over keep-alive HTTP/1.1 connections.

    The client is its own: each request goes out in one write on a `socket`,
    from a request head built when the backend is made, and a reply may be
    framed by Content-Length, by chunked coding or by the end of the connection.

    Retries (at most max_retries) apply only to transport failures (any
    `OSError`, or a reply that breaks HTTP/1.1 framing: refused or dropped
    connections, timeouts, TLS errors, broken bodies), HTTP 429 and 5xx
    responses; a 2xx response is never retried. timeout bounds each attempt
    as a whole: connecting, sending and reading the whole reply. A 429 waits
    for its Retry-After seconds when given, unless they exceed timeout: then
    its BackendError is raised at once, so one reply cannot stall a question
    without limit. Every other retry waits an exponential backoff with jitter.

    Each request names the model its call gives, else the constructor's, so one
    backend serves a run whatever models its steps use. It holds at most
    max_in_flight keep-alive connections, and a request waits for a free one,
    so the backend stays polite under concurrent pipelines; submit runs tasks
    on as many helper threads. An idle connection the server has closed is
    replaced before it is used, not retried, and so is one whose reply said
    `Connection: close`. Proxies come from the environment (`HTTP_PROXY`,
    `HTTPS_PROXY`, `ALL_PROXY`, `NO_PROXY`), read once when the backend is made;
    an http endpoint behind a proxy gets absolute-form requests, and an https
    endpoint is reached through a CONNECT tunnel. TLS is verified against the
    default trust store (`ssl.create_default_context`). Redirects are not followed.
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
        # Imported here, on the thread that makes the backend, not at module
        # level: `keyrag index` and `keyrag eval` never make a request.
        import queue
        import socket  # noqa: F401 (imported once here; _connect and close use it)
        import urllib.parse

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
        target = url.path + (f"?{url.query}" if url.query else "")
        if " " in target or not target.isascii():
            raise ValueError(f"endpoint path has a space or is not ASCII: {endpoint!r}")
        authority = _idna(url.netloc.rpartition("@")[2])  # the endpoint's host and port
        fields = [f"Host: {authority}", "Accept-Encoding: identity",
                  "Content-Type: application/json", "User-Agent: keyrag"]
        if api_key:
            fields.append(f"Authorization: Bearer {api_key}")
        self._address = (host, port)
        self._tunnel: bytes | None = None  # the CONNECT request that opens each connection
        # getproxies() reads only these variables, except on macOS and Windows,
        # where it also reads the system's settings; urllib.request is slow to import.
        proxy = None
        if sys.platform in ("darwin", "win32") or any(
            name.lower() in ("http_proxy", "https_proxy", "all_proxy") for name in os.environ
        ):
            import urllib.request

            proxies = urllib.request.getproxies()
            proxy = proxies.get(url.scheme) or proxies.get("all")
            if proxy and urllib.request.proxy_bypass(host):
                proxy = None
        if proxy:
            via = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if via.scheme != "http" or not via.hostname:
                raise ValueError(f"unsupported proxy {proxy!r}: only http:// proxies are supported")
            proxy_fields = []
            if via.username:
                credentials = f"{urllib.parse.unquote(via.username)}:"
                credentials += urllib.parse.unquote(via.password or "")
                token = base64.b64encode(credentials.encode()).decode("ascii")
                proxy_fields.append(f"Proxy-Authorization: Basic {token}")
            if url.scheme == "https":
                tunnel = f"[{host}]:{port}" if ":" in host else f"{_idna(host)}:{port}"
                self._tunnel = _request_head(
                    f"CONNECT {tunnel} HTTP/1.1", [f"Host: {tunnel}", *proxy_fields]
                ) + b"\r\n"
            else:
                target = f"http://{authority}{target}"  # absolute-form request target
                fields += proxy_fields
            self._address = (via.hostname, via.port or 80)
        self._server_hostname = host
        self._tls = None
        if url.scheme == "https":
            import ssl

            self._tls = ssl.create_default_context()
        # Each request is this head, its body's length, a blank line and the body.
        self._request = _request_head(f"POST {target} HTTP/1.1", fields) + b"Content-Length: "
        self._connections = [_Connection() for _ in range(max_in_flight)]
        # Connections open on first use; the most recently used is taken first,
        # so a backend that is rarely busy keeps few of them open.
        self._idle: queue.LifoQueue = queue.LifoQueue()
        for conn in self._connections:
            self._idle.put(conn)
        # Helper threads for submit: started on first use and kept until close(),
        # so a task does not pay for starting and joining a thread.
        self._pool = ThreadPoolExecutor(max_in_flight, thread_name_prefix="keyrag-llm")
        self._closed = threading.Event()

    def _hold(self, conn: _Connection, sock):
        """Put sock in conn's slot, where close() can shut it down, and return it."""
        conn.sock = sock
        if self._closed.is_set():  # close() may have looked at the slot before sock was in it
            raise ConnectionAbortedError("the backend is closed")
        return sock

    def _connect(self, conn: _Connection, deadline: float):
        """Open conn to the endpoint, through the proxy's tunnel and TLS when set; its socket.

        The socket is in conn's slot from the start, so that close() can cut a
        wait for the tunnel or the TLS handshake short. On failure the caller
        closes conn.
        """
        import socket

        sock = self._hold(conn, socket.create_connection(self._address, _left(deadline)))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = _Stream(sock, deadline)
        if self._tunnel:
            stream.send(self._tunnel)
            _, status, _ = stream.head()  # a 2xx reply to CONNECT has no body
            if not 200 <= status < 300:
                raise OSError(f"the proxy refused the tunnel: HTTP {status}")
            if stream.buf:
                raise FramingError("bytes from the endpoint before the TLS handshake")
        if self._tls:
            stream.arm()  # the handshake runs under the deadline too
            sock = self._hold(conn, self._tls.wrap_socket(
                sock, server_hostname=self._server_hostname, do_handshake_on_connect=False
            ))
            sock.do_handshake()
        return sock

    def _send(self, body: bytes) -> tuple[int, bytes | None, bytes]:
        """POST body on a free connection; (status, Retry-After header, response body)."""
        conn = self._idle.get()
        deadline = time.monotonic() + self.timeout
        try:
            # The socket is held here, as close() may empty the slot from another thread.
            sock = conn.sock
            if sock is not None and _readable(sock):
                conn.close()  # closed by the server while idle: reconnect, do not retry
                sock = None
            if sock is None:
                sock = self._connect(conn, deadline)
            stream = _Stream(sock, deadline)
            stream.send(b"%b%d\r\n\r\n%b" % (self._request, len(body), body))
            status, fields, data, keep = stream.reply()
            if not keep:
                conn.close()
            return status, fields.get(b"retry-after"), data
        except BaseException:
            conn.close()  # its state is unknown; the next request reconnects
            raise
        finally:
            self._idle.put(conn)

    def _post(self, payload: dict) -> dict:
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
            except (OSError, FramingError) as exc:
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
                    # The plain socket's shutdown: a TLS socket's own also drops
                    # its TLS state, which a call in its handshake is about to use.
                    socket.socket.shutdown(sock, socket.SHUT_RDWR)
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
