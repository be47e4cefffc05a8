"""Self-time arithmetic and span bookkeeping on synthetic traces."""

import numpy as np

from servebench.layers import queue_waits
from servebench.tracer import Spans, Tracer, root_of, self_times


def _payload(spans, names, values=None):
    """Columnar payload from ``(name, start, end, parent)`` rows."""
    return {
        "names": names,
        "name": [names.index(row[0]) for row in spans],
        "start": [row[1] for row in spans],
        "end": [row[2] for row in spans],
        "parent": [row[3] for row in spans],
        "values": values or {},
    }


def test_self_time_subtracts_direct_children_only():
    #  tick [0, 10] -> plan [1, 4], execute [5, 9] -> completion [6, 8]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 8.0])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 2.0, 2.0]
    assert root_of(parent).tolist() == [0, 0, 0, 0]


def test_self_times_of_a_trace_sum_to_its_root_durations():
    rng = np.random.default_rng(7)
    tracer = Tracer(clock=iter(np.cumsum(rng.random(400))).__next__)

    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: [leaf() for _ in range(3)])
    top = tracer.wrap("top", lambda: (mid(), leaf(), mid()))
    for _ in range(5):
        top()
    spans = Spans(tracer.to_dict())
    roots = spans.parent < 0
    assert roots.sum() == 5
    np.testing.assert_allclose(
        spans.self_time.sum(), (spans.end - spans.start)[roots].sum()
    )
    assert (spans.self_time >= 0).all()
    assert spans.names == ["leaf", "mid", "top"]
    tops = spans.select("top", np.ones(len(spans.start), dtype=bool))
    assert root_of(spans.parent)[tops].tolist() == tops.tolist()


def test_wrap_records_values_and_parents():
    ticks = iter(range(100)).__next__
    tracer = Tracer(clock=lambda: float(ticks()))
    inner = tracer.wrap("inner", lambda x: x * 2, lambda result, args: result)
    outer = tracer.wrap("outer", lambda x: inner(x) + 1)
    assert outer(3) == 7
    spans = Spans(tracer.to_dict())
    assert spans.parent.tolist() == [-1, 0]
    assert spans.values == {1: 6}
    assert spans.start.tolist() == [0.0, 1.0]
    assert spans.end.tolist() == [3.0, 2.0]
    assert spans.self_time.tolist() == [2.0, 1.0]


def test_windows_keep_whole_requests():
    names = ["tick", "execute"]
    spans = Spans(_payload(
        [("tick", 0.0, 2.0, -1), ("execute", 0.5, 1.5, 0),
         ("tick", 3.0, 5.0, -1), ("execute", 3.5, 4.0, 2),
         ("tick", 6.0, 7.0, -1)],
        names,
    ))
    mask = spans.in_windows([(2.5, 5.5), (5.9, 6.5)])
    assert mask.tolist() == [False, False, True, True, False]


def test_queue_wait_pairs_each_tenants_decodes_and_ticks_in_order():
    names = ["serve.protocol.decode", "runtime.session.tick"]
    rows = [
        ("serve.protocol.decode", 0.0, 1.0, -1),   # a, arrives 1
        ("serve.protocol.decode", 1.0, 2.0, -1),   # b, arrives 2
        ("runtime.session.tick", 2.0, 4.0, -1),    # a served at 2
        ("runtime.session.tick", 4.0, 5.0, -1),    # b served at 4
        ("serve.protocol.decode", 5.0, 6.0, -1),   # a again, arrives 6
        ("runtime.session.tick", 7.0, 8.0, -1),    # a served at 7
    ]
    values = {
        "0": [60, "a"], "1": [60, "b"], "2": ["a", "reuse", False],
        "3": ["b", "reuse", False], "4": [60, "a"], "5": ["a", "refine", False],
    }
    spans = Spans(_payload(rows, names, values))
    waits = queue_waits(spans, np.ones(len(rows), dtype=bool))
    assert waits == [1.0, 2.0, 1.0]
