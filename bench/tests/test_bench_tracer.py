import types

import pytest

from tracer import Span, Tracer, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_parent_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    root = tracer.begin("root")
    clock.now = 1.0
    a = tracer.begin("a")
    clock.now = 3.0
    grand = tracer.begin("grand")
    clock.now = 3.5
    tracer.end(grand)
    tracer.end(a)
    clock.now = 4.0
    b = tracer.begin("b")
    clock.now = 4.25
    tracer.end(b)
    clock.now = 10.0
    tracer.end(root)

    selfs = self_times(tracer.spans)
    assert root.duration == 10.0
    assert selfs[root.sid] == 10.0 - (2.5 + 0.25)
    assert selfs[a.sid] == 2.5 - 0.5
    assert selfs[grand.sid] == 0.5
    assert a.parent == root.sid and grand.parent == a.sid
    assert {s.request for s in tracer.spans} == {root.sid}


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, None, 0, "p", 0.0, 10.0),
        Span(1, 0, 0, "c", 1.0, 4.0),
        Span(2, 0, 0, "c", 3.0, 6.0),
    ]
    assert self_times(spans)[0] == 10.0 - 5.0


def test_wrap_traces_calls_and_close_restores():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    tracer = Tracer()
    tracer.wrap(module, "f", "layer.f", lambda span, args, kwargs, result: span.attrs.update(r=result))
    assert module.f(1) == 2
    (span,) = tracer.spans
    assert span.name == "layer.f" and span.attrs == {"r": 2} and span.end >= span.start
    tracer.close()
    assert module.f is original


def test_wrap_marks_raised_calls():
    def boom():
        raise ValueError("x")

    module = types.SimpleNamespace(boom=boom)
    tracer = Tracer()
    tracer.wrap(module, "boom", "layer.boom")
    with pytest.raises(ValueError):
        module.boom()
    assert tracer.spans[0].attrs == {"raised": True}
    assert not tracer._open
