"""The tracer: self time, restoration, exceptions, generators, and that
tracing leaves the simulated machine alone."""

import pytest

from nvbench import spec, trace

class FakeClock:
    """perf_counter_ns that returns a scripted sequence."""

    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_is_duration_minus_child_spans(monkeypatch):
    # parent runs 0..10, its child 3..7: parent self 6, child self 4
    monkeypatch.setattr(trace.time, "perf_counter_ns", FakeClock(0, 3, 7, 10))
    tracer = trace.Tracer()
    child = tracer.wrap("lower", "child", lambda: "x")
    parent = tracer.wrap("upper", "parent", lambda: child())
    assert parent() == "x"
    assert tracer.functions[("upper", "parent")] == [1, 10, 6]
    assert tracer.functions[("lower", "child")] == [1, 4, 4]
    layers = tracer.by_layer()
    assert layers["upper"]["self_ns"] + layers["lower"]["self_ns"] == 10


def test_two_children_and_a_grandchild(monkeypatch):
    # a: 0..20; b: 2..9 with c: 4..6 inside; d: 10..15
    monkeypatch.setattr(trace.time, "perf_counter_ns",
                        FakeClock(0, 2, 4, 6, 9, 10, 15, 20))
    tracer = trace.Tracer()
    c = tracer.wrap("l3", "c", lambda: None)
    b = tracer.wrap("l2", "b", lambda: c())
    d = tracer.wrap("l2", "d", lambda: None)
    a = tracer.wrap("l1", "a", lambda: (b(), d()))
    a()
    assert tracer.functions[("l1", "a")] == [1, 20, 8]
    assert tracer.functions[("l2", "b")] == [1, 7, 5]
    assert tracer.functions[("l3", "c")] == [1, 2, 2]
    assert tracer.functions[("l2", "d")] == [1, 5, 5]


def test_exception_in_a_wrapped_call_still_closes_its_span(monkeypatch):
    monkeypatch.setattr(trace.time, "perf_counter_ns", FakeClock(0, 1, 5, 9))
    tracer = trace.Tracer(span_ops=1)
    tracer.begin_op(0)

    def boom():
        raise KeyError("inside")

    child = tracer.wrap("lower", "child", boom)

    def catching():
        with pytest.raises(KeyError):
            child()

    parent = tracer.wrap("upper", "parent", catching)
    parent()
    assert tracer.top[1] == -1  # no span left open
    assert tracer.functions[("lower", "child")] == [1, 4, 4]
    assert tracer.functions[("upper", "parent")] == [1, 9, 5]
    assert [(s[0], s[1], s[2], s[3]) for s in tracer.spans] == [
        ("parent", 0, 9, -1), ("child", 1, 5, 0)]


def test_generator_steps_are_spans_of_the_request_that_made_them():
    tracer = trace.Tracer(span_ops=10)

    def request(n):
        for i in range(n):
            yield i
        return "done"

    wrapped = tracer.wrap("svc", "request", request)
    tracer.begin_op(4)
    first = wrapped(2)
    tracer.begin_op(5)
    second = wrapped(1)
    assert [next(first), next(second), next(first)] == [0, 0, 1]
    with pytest.raises(StopIteration) as stop:
        next(first)
    assert stop.value.value == "done"
    assert tracer.functions[("svc", "request")][0] == 2  # calls, not steps
    assert [span[4] for span in tracer.spans] == [4, 5, 4, 4]
    assert tracer.op == 5 and tracer.top[1] == -1


def test_every_wrapped_attribute_is_restored_to_the_identical_object():
    table = trace.layer_table()
    before = [(owner, attr, vars(owner)[attr]) for _layer, owner, attr, *_ in table]
    tracer = trace.Tracer()
    tracer.install(table)
    try:
        assert all(vars(owner)[attr] is not original
                   for owner, attr, original in before)
        # imported-by-name functions are patched where they were imported
        import repro.db.database
        import repro.db.sql.parser
        assert repro.db.database.parse is repro.db.sql.parser.parse
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    import repro.db.database
    import repro.wal.diff
    import repro.wal.nvwal
    assert repro.db.database.parse is repro.db.sql.parser.parse
    assert repro.wal.nvwal.compute_extents is repro.wal.diff.compute_extents
    assert not tracer.patched()


def test_every_layer_has_entry_points_and_install_rejects_a_stale_table():
    table = trace.layer_table()
    assert {entry[0] for entry in table} == set(spec.LAYERS)
    from repro.db.pager import Pager

    with pytest.raises(LookupError):
        trace.Tracer().install([("db.pager", Pager, "no_such_method")])


def test_tracing_leaves_the_simulated_machine_alone(run):
    plain = run.spawn_round("mobi-lazy", 5, spec.SMOKE_SCALE, "plain")
    traced = run.spawn_round("mobi-lazy", 5, spec.SMOKE_SCALE, "traced")
    assert traced["sim"] == plain["sim"]  # the simulated clock
    assert traced["counts"] == plain["counts"]  # Stats and program counters
    assert traced["failed"] == plain["failed"] == 0
    summary = traced["traced"]
    assert summary["covered_share"] > 0.9
    assert {span["op"] for span in summary["spans"]} == set(range(spec.TRACE_SPAN_OPS))
    assert all(span["end_ns"] >= span["start_ns"] for span in summary["spans"])
