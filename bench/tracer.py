"""In-memory spans recorded around calls into satpath's layers.

The tracer never edits the library: it replaces a public function in the
namespace of the module that calls it (for example ``satpath.paths.find_nash``,
the name ``construct_path`` looks up) with a wrapper that opens a span, and
puts the original back on ``close``.  Spans nest by call order, so a span's
parent is whichever wrapped call was open when it started, and every span
carries the id of the root span of its request.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        sid = len(self.spans)
        span = Span(
            sid=sid,
            parent=parent.sid if parent else None,
            request=parent.request if parent else sid,
            name=name,
            start=self.clock(),
        )
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, module, attr: str, name: str, annotate=None) -> None:
        """Trace every call made through ``module.attr``.  ``annotate(span,
        args, kwargs, result)`` may add attributes once the call returns."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.attrs["raised"] = True
                raise
            finally:
                self.end(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def close(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo = max(child.start, cursor, span.start)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = span.duration - covered
    return out
