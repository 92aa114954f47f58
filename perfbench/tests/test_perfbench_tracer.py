"""Self-time arithmetic and wrapper hygiene of the benchmark's tracer."""

import pytest

from perfbench.layers import instrument, percentile, tail_percentile, targets
from perfbench.tracer import CALLS, SELF, TALLY, TOTAL, Instrumentation, Tracer


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)
        return True

    def middle():
        clock.advance(2.0)
        traced_leaf()
        traced_leaf()
        clock.advance(0.5)

    def top():
        clock.advance(3.0)
        traced_middle()
        clock.advance(4.0)

    traced_leaf = tracer.wrap(leaf, "a.leaf", tally=lambda ok: 1 if ok else 0)
    traced_middle = tracer.wrap(middle, "b.middle")
    traced_top = tracer.wrap(top, "root.top", root=True)
    traced_top()

    leaf_s, middle_s, top_s = (tracer.stats[n] for n in ("a.leaf", "b.middle", "root.top"))
    assert leaf_s[CALLS] == 2 and leaf_s[TOTAL] == 2.0 and leaf_s[SELF] == 2.0
    assert leaf_s[TALLY] == 2
    assert middle_s[TOTAL] == 4.5 and middle_s[SELF] == 2.5
    assert top_s[TOTAL] == 11.5 and top_s[SELF] == 7.0
    # Self times partition the root's duration exactly.
    assert sum(s[SELF] for s in tracer.stats.values()) == top_s[TOTAL]
    assert tracer.roots == [("root.top", None, 0.0, 11.5)]


def test_span_context_nests_like_wrapped_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    step = tracer.wrap(lambda: clock.advance(2.0), "engine.step")
    with tracer.span("root.phase"):
        clock.advance(1.0)
        step()
    assert tracer.stats["root.phase"][SELF] == 1.0
    assert tracer.stats["engine.step"][SELF] == 2.0
    assert tracer.roots == [("root.phase", None, 0.0, 3.0)]


def test_samples_and_parent_of_root_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    inner = tracer.wrap(lambda: clock.advance(0.25), "root.event", root=True)
    outer = tracer.wrap(lambda: (inner(), inner()), "engine.run", samples=True)
    outer()
    assert tracer.samples["engine.run"] == [0.5]
    assert [r[:2] for r in tracer.roots] == [("root.event", "engine.run")] * 2


def test_exception_closes_the_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    traced = tracer.wrap(boom, "a.boom")
    with pytest.raises(ValueError):
        traced()
    assert tracer.stats["a.boom"][CALLS] == 1
    assert tracer._stack == []


class _Owner:
    def method(self):
        return "method"


def test_instrumentation_restores_originals_even_on_error():
    before = dict(vars(_Owner))
    with pytest.raises(RuntimeError):
        with Instrumentation(Tracer()) as inst:
            inst.patch(_Owner, "method", "a.method")
            assert _Owner().method() == "method"
            assert vars(_Owner)["method"] is not before["method"]
            raise RuntimeError("traced run failed")
    assert vars(_Owner)["method"] is before["method"]


def test_every_layer_entry_point_is_restored():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets()]
    tracer = Tracer()
    with Instrumentation(tracer) as inst:
        instrument(inst)
        assert all(vars(owner)[attr] is not raw for owner, attr, raw in originals)
    assert all(vars(owner)[attr] is raw for owner, attr, raw in originals)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(10) == 0
    assert tail_percentile(100) == 90
    assert tail_percentile(496) == 97
    assert tail_percentile(2000) == 99
    for count in range(11, 3000):
        pct = tail_percentile(count)
        values = list(range(1, count + 1))
        assert count - percentile(values, pct) >= 10
        assert count - percentile(values, pct + 1) < 10 or pct == 99


def test_percentile_nearest_rank():
    assert percentile([], 50) == 0.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
