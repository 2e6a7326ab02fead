"""In-memory spans around calls into keyrag's modules, for the traced run.

``Tracer.patch_function`` and ``Tracer.patch_method`` replace a public
function or method with a wrapper that records one span per call: name,
start, end, parent span, and the question id shared by every span under one
question's root call. A function is rebound in every ``keyrag`` module that
imported it, so calls made from inside the package are seen too.
``Tracer.restore`` undoes all patches. Self time is a span's duration minus
its children's.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    qid: int | None = None
    phase: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, qid_of_question: dict[str, int]):
        self.spans: list[Span] = []
        self.phase = ""
        self._qid_of = qid_of_question
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: dict) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, time.perf_counter(), parent=parent, phase=self.phase, attrs=attrs)
        with self._lock:
            if parent is not None:
                span.qid = self.spans[parent].qid
            self.spans.append(span)
            sid = len(self.spans) - 1
        stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes itself."""
        sid = self._open(name, {})
        try:
            yield self.spans[sid]
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, on_call=None, question_root: bool = False):
        """``on_call(span, args, result)`` may add attributes after each call.

        A ``question_root`` function takes the question text as its first
        argument; its span starts that question's id.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name, {})
            span = self.spans[sid]
            if question_root:
                span.qid = self._qid_of.get(args[0])
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(sid)
                if on_call is not None:
                    on_call(span, args, result)

        return wrapper

    def patch_function(self, fn, name: str, on_call=None, question_root: bool = False) -> None:
        wrapper = self.wrap(name, fn, on_call, question_root)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "keyrag" and not mod_name.startswith("keyrag."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, attr: str, name: str, on_call=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, on_call))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def by_name(self, name: str, phase: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (phase is None or s.phase == phase)]

    def self_seconds(self, sid: int) -> float:
        """Span duration minus the time its direct children cover (one thread: no overlap)."""
        children = sum(s.seconds for s in self.spans if s.parent == sid)
        return self.spans[sid].seconds - children
