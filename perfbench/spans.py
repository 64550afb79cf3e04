"""Spans recorded from outside the program.

`Tracer.wrap` replaces a function under the name its callers look it up by
(a module global such as `pillm.evolution.evaluate`, or a class attribute
such as `RunLog.append`) with a wrapper that records a span: name, start,
end, the enclosing span on the same thread, and what the call returned or
raised. Nothing under `src/` changes; `restore` puts every original back.
Spans stay in memory until the benchmark reads them.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named `name` around every call of `owner.attr`.

        `on_result(span, args, result)` may copy counts into `span.attrs`.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    span.error = type(exc).__name__
                    raise
            if on_result is not None:
                on_result(span, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the body of a `with` block."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), stack[-1] if stack else None))
        stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self.spans[index].end = time.perf_counter()
            stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own
