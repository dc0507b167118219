"""Span arithmetic and wrapper installation."""

from perfbench import layers
from perfbench.tracing import Tracer, layer_totals, self_times


def span(span_id, parent, name, start, end, call=1):
    return (span_id, parent, call, name, start, end, False)


def test_self_time_of_nested_and_back_to_back_children():
    spans = [
        span(1, 0, "root", 0, 100),
        span(2, 1, "a", 10, 30),   # back-to-back with 3
        span(3, 1, "b", 30, 50),
        span(4, 3, "c", 35, 45),   # nested inside 3
        span(5, 1, "d", 70, 80),
    ]
    own = self_times(spans)
    assert own == {1: 100 - 20 - 20 - 10, 2: 20, 3: 20 - 10, 4: 10, 5: 10}
    # Self times add back up to the root's duration.
    assert sum(own.values()) == 100


def test_overlapping_and_overhanging_children_count_once():
    spans = [
        span(1, 0, "root", 0, 100),
        span(2, 1, "a", 10, 60),
        span(3, 1, "b", 40, 80),    # overlaps a
        span(4, 1, "c", 90, 130),   # runs past the parent's end
    ]
    assert self_times(spans)[1] == 100 - 70 - 10


def test_layer_totals_group_by_name():
    spans = [
        span(1, 0, "call", 0, 50),
        span(2, 1, "giop", 0, 10),
        span(3, 1, "giop", 20, 40),
    ]
    totals = layer_totals(spans)
    assert totals["giop"] == {"count": 2, "self_ns": 30, "total_ns": 30, "failed": 0}
    assert totals["call"]["self_ns"] == 20


def test_wrappers_record_parents_and_call_ids():
    tracer = Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap("inner", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    root = tracer.wrap("call", outer)
    assert root(1) == 4 and root(2) == 6
    by_id = {s[0]: s for s in tracer.spans}
    calls = [s for s in tracer.spans if s[3] == "call"]
    assert len(calls) == 2
    for s in tracer.spans:
        if s[3] == "inner":
            assert by_id[s[1]][3] == "call"
            assert s[2] == s[1]


def test_failed_calls_are_marked_and_reraised():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("exception swallowed")
    assert tracer.spans[0][6] is True


def test_install_then_restore_puts_back_the_originals_by_identity():
    recorder = Tracer()
    layers.install(recorder, layers.Probes())
    targets = list(recorder.patches)
    assert len(targets) > 30
    for owner, attribute, raw in targets:
        current = owner[attribute] if isinstance(owner, dict) else vars(owner)[attribute]
        assert current is not raw
    recorder.restore()
    for owner, attribute, raw in targets:
        current = owner[attribute] if isinstance(owner, dict) else vars(owner)[attribute]
        assert current is raw
