"""Tests for the outside-in span recorder (``layers.py``).

Run with ``python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import threading
import types

import pytest

from layers import Recorder


class FakeClock:
    """A clock the wrapped functions advance, so times are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def make_module(clock: FakeClock) -> types.ModuleType:
    mod = types.ModuleType("fake_layer")

    def leaf(n: int) -> int:
        clock.tick(2.0)
        return n

    def middle() -> int:
        clock.tick(1.0)
        out = mod.leaf(1) + mod.leaf(2)
        clock.tick(0.5)
        return out

    def boom() -> None:
        clock.tick(4.0)
        raise RuntimeError("boom")

    mod.leaf, mod.middle, mod.boom = leaf, middle, boom
    return mod


def test_self_times_sum_to_the_root_span():
    clock = FakeClock()
    mod = make_module(clock)
    rec = Recorder(clock=clock)
    rec.wrap(mod, "leaf", "leaf")
    rec.wrap(mod, "middle", "middle")
    with rec.span("root"):
        clock.tick(0.25)
        assert mod.middle() == 3
        mod.leaf(0)
    spans = rec.dump()["spans"]
    assert spans["root"]["total_s"] == pytest.approx(7.75)
    assert spans["middle"]["total_s"] == pytest.approx(5.5)
    assert spans["middle"]["self_s"] == pytest.approx(1.5)
    assert spans["leaf"]["calls"] == 3
    assert spans["leaf"]["self_s"] == pytest.approx(6.0)
    assert sum(s["self_s"] for s in spans.values()) == pytest.approx(
        spans["root"]["total_s"]
    )


def test_unwrap_restores_functions_and_methods():
    clock = FakeClock()
    mod = make_module(clock)

    class Base:
        def run(self) -> str:
            return "base"

    class Child(Base):
        def step(self) -> str:
            return "child"

    originals = (mod.leaf, Child.__dict__["step"], Base.__dict__["run"])
    rec = Recorder(clock=clock)
    rec.wrap(mod, "leaf", "leaf")
    rec.wrap(Child, "step", "Child.step")
    rec.wrap(Child, "run", "Child.run")  # inherited: lives on Base
    assert mod.leaf is not originals[0]
    assert Child().run() == "base" and Child().step() == "child"
    assert rec.dump()["spans"]["Child.run"]["calls"] == 1
    rec.unwrap_all()
    assert mod.leaf is originals[0]
    assert Child.__dict__["step"] is originals[1]
    assert "run" not in Child.__dict__
    assert Base.__dict__["run"] is originals[2]
    assert Child().run() == "base"


def test_a_raising_call_still_closes_its_span():
    clock = FakeClock()
    mod = make_module(clock)
    rec = Recorder(clock=clock)
    rec.wrap(mod, "boom", "boom")
    rec.wrap(mod, "leaf", "leaf")
    with rec.span("root"):
        with pytest.raises(RuntimeError):
            mod.boom()
        mod.leaf(0)
    spans = rec.dump()["spans"]
    assert spans["boom"] == {
        "calls": 1, "total_s": 4.0, "self_s": 4.0, "errors": 1
    }
    assert spans["leaf"]["errors"] == 0
    # The failed call is closed: the next call nests under root, not
    # under it, so root's nested time is both calls and boom keeps its
    # own time as self time.
    assert spans["root"]["self_s"] == pytest.approx(0.0)
    assert rec._stack() == []


def test_groups_count_only_the_outermost_call_and_its_work():
    clock = FakeClock()
    mod = types.ModuleType("fake_sim")

    def single(stimulus):
        clock.tick(1.0)
        return len(stimulus)

    def batch(stimuli):
        return [mod.single(s) for s in stimuli]

    mod.single, mod.batch = single, batch
    rec = Recorder(clock=clock)
    count = lambda key: lambda args, kwargs, result: {"items": key(args[0])}
    rec.wrap(mod, "single", "single", "sim", count(lambda s: 1))
    rec.wrap(mod, "batch", "batch", "sim", count(len))
    with rec.span("compaction"):
        mod.batch(["ab", "c", "d"])
        mod.single("x")
    dump = rec.dump()
    assert dump["spans"]["single"]["calls"] == 4
    assert dump["groups"]["sim"]["calls"] == 2
    assert dump["groups"]["sim"]["total_s"] == pytest.approx(4.0)
    assert dump["groups"]["sim"]["counters"] == {"items": 4.0}
    assert dump["spans"]["compaction"]["self_s"] == pytest.approx(0.0)


def test_logged_events_and_per_thread_nesting():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    mod = types.ModuleType("fake_queue")

    def claim(key: str) -> str:
        clock.tick(1.0)
        return key

    mod.claim = claim
    rec.wrap(mod, "claim", "claim", log=lambda args, kwargs, result: result)
    opened, claimed = threading.Event(), threading.Event()

    def holder() -> None:
        # Keeps a span open while the other thread claims.
        with rec.span("holder"):
            opened.set()
            assert claimed.wait(timeout=5)

    thread = threading.Thread(target=holder)
    thread.start()
    assert opened.wait(timeout=5)
    mod.claim("a")
    claimed.set()
    thread.join(timeout=5)
    assert not thread.is_alive()
    dump = rec.dump()
    assert [e[1:] for e in dump["events"]] == [["a", 0.0, 1.0]]
    # The claim ran on another thread: it is not nested in "holder",
    # whose whole duration stays self time.
    assert dump["spans"]["holder"]["total_s"] == pytest.approx(1.0)
    assert dump["spans"]["holder"]["self_s"] == pytest.approx(1.0)
    assert dump["groups"]["claim"]["calls"] == 1
