"""Unit tests for the span tree and tracer (:mod:`repro.trace.span`)."""

from __future__ import annotations

import pytest

from repro.errors import TraceError
from repro.runtime.metrics import RuntimeStats
from repro.trace import ROOT_SPAN_ID, Span, Tracer, span_id_for


class TestSpanIds:
    def test_root_id_is_constant(self):
        assert Tracer().root.span_id == ROOT_SPAN_ID
        assert Tracer().root.span_id == ROOT_SPAN_ID

    def test_ids_are_stable_across_tracers(self):
        ids = []
        for _ in range(2):
            t = Tracer()
            with t.span("flow") as outer, t.span("phase") as inner:
                ids.append((outer.span_id, inner.span_id))
            t.finish()
        assert ids[0] == ids[1]

    def test_same_name_siblings_get_distinct_ids(self):
        t = Tracer()
        with t.span("phase") as a:
            pass
        with t.span("phase") as b:
            pass
        assert a.span_id != b.span_id
        assert a.span_id == span_id_for(ROOT_SPAN_ID, "phase", "0")
        assert b.span_id == span_id_for(ROOT_SPAN_ID, "phase", "1")

    def test_explicit_key_overrides_occurrence_index(self):
        t = Tracer()
        span = t.begin("task", category="task", key="deadbeef")
        t.end(span)
        assert span.span_id == span_id_for(ROOT_SPAN_ID, "task", "deadbeef")

    def test_ids_do_not_depend_on_timing(self):
        import time

        t1 = Tracer()
        with t1.span("a"):
            pass
        t2 = Tracer()
        time.sleep(0.01)
        with t2.span("a"):
            pass
        assert t1.root.children[0].span_id == t2.root.children[0].span_id


class TestTracerDiscipline:
    def test_nesting_and_stack(self):
        t = Tracer()
        with t.span("outer") as outer:
            assert t.current is outer
            with t.span("inner") as inner:
                assert t.current is inner
            assert t.current is outer
        assert t.current is t.root
        root = t.finish()
        assert [s.name for s in root.walk()] == ["trace", "outer", "inner"]

    def test_out_of_order_end_raises(self):
        t = Tracer()
        a = t.begin("a")
        t.begin("b")
        with pytest.raises(TraceError, match="out-of-order"):
            t.end(a)

    def test_end_without_open_span_raises(self):
        t = Tracer()
        with pytest.raises(TraceError, match="no open span"):
            t.end(t.root)

    def test_unknown_category_raises(self):
        t = Tracer()
        with pytest.raises(TraceError, match="category"):
            t.begin("x", category="nope")

    def test_finish_closes_open_spans_and_is_idempotent(self):
        t = Tracer()
        t.begin("a")
        t.begin("b")
        root = t.finish()
        assert t.finished
        for span in root.walk():
            assert span.t_end_s is not None
        assert t.finish() is root

    def test_begin_after_finish_raises(self):
        t = Tracer()
        t.finish()
        with pytest.raises(TraceError, match="finished"):
            t.begin("late")

    def test_event_after_finish_raises(self):
        t = Tracer()
        t.finish()
        with pytest.raises(TraceError, match="finished"):
            t.event("note")

    def test_span_closed_even_when_body_raises(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("doomed"):
                raise RuntimeError("boom")
        assert t.current is t.root
        assert t.root.children[0].t_end_s is not None


class TestEvents:
    def test_events_attach_to_current_span_with_global_seq(self):
        t = Tracer()
        t.event("note", msg="at root")
        with t.span("phase") as phase:
            t.event("omega", u=3)
        root = t.finish()
        assert [e.seq for e in t.events] == [0, 1]
        assert t.events[0].span_id == root.span_id
        assert t.events[1].span_id == phase.span_id
        assert t.events[1].attrs == {"u": 3}

    def test_unknown_kind_raises(self):
        t = Tracer()
        with pytest.raises(TraceError, match="unknown trace event kind"):
            t.event("not_a_kind")

    def test_attrs_are_coerced_to_scalars(self):
        t = Tracer()
        event = t.event("note", path=object())
        assert isinstance(event.attrs["path"], str)


class TestTaskSpans:
    def test_task_span_attached_closed_and_keyed(self):
        t = Tracer()
        with t.span("phase") as phase:
            task = t.add_task_span("fault_group", "abc123", 0.25, faults=8)
        assert task in phase.children
        assert task.category == "task"
        assert task.t_end_s is not None
        assert task.duration_s == pytest.approx(0.25)
        assert task.span_id == span_id_for(phase.span_id, "fault_group", "abc123")
        assert task.attrs == {"faults": 8}

    def test_task_span_never_starts_before_parent(self):
        t = Tracer()
        with t.span("phase") as phase:
            task = t.add_task_span("w", "k", 1e9)
        assert task.t_start_s >= phase.t_start_s


class TestCounterDeltas:
    def test_deltas_are_recorded_nonzero_only(self):
        stats = RuntimeStats()
        t = Tracer(stats=stats)
        with t.span("work"):
            stats.full_simulations += 2
        root = t.finish()
        work = root.children[0]
        assert work.counter_deltas == {"full_simulations": 2.0}
        assert root.counter_deltas == {"full_simulations": 2.0}

    def test_parent_delta_is_sum_of_children_plus_self(self):
        stats = RuntimeStats()
        t = Tracer(stats=stats)
        with t.span("parent"):
            stats.cache_misses += 1
            with t.span("child"):
                stats.cache_misses += 3
        root = t.finish()
        parent = root.children[0]
        child = parent.children[0]
        assert parent.counter_deltas == {"cache_misses": 4.0}
        assert child.counter_deltas == {"cache_misses": 3.0}
        assert parent.self_counter_deltas() == {"cache_misses": 1.0}

    def test_no_stats_means_no_deltas(self):
        t = Tracer()
        with t.span("work"):
            pass
        assert t.finish().children[0].counter_deltas == {}

    def test_snapshot_excludes_configuration(self):
        snap = RuntimeStats(jobs=8).snapshot()
        assert "jobs" not in snap
        assert "timers" not in snap
        assert snap["full_simulations"] == 0.0


class TestSpanSerialization:
    def test_round_trip(self):
        stats = RuntimeStats()
        t = Tracer(stats=stats)
        with t.span("flow", circuit="s27"):
            stats.full_simulations += 1
            t.add_task_span("fault_group", "k1", 0.1)
        root = t.finish()
        back = Span.from_dict(root.to_dict())
        assert [s.span_id for s in back.walk()] == [
            s.span_id for s in root.walk()
        ]
        assert [s.name for s in back.walk()] == [s.name for s in root.walk()]
        assert back.children[0].attrs == {"circuit": "s27"}
        assert back.children[0].counter_deltas == {"full_simulations": 1.0}
        assert back.children[0].duration_s == pytest.approx(
            root.children[0].duration_s
        )

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {"name": "x"},  # missing id
            {"id": "a", "name": "x", "attrs": 5},
            {"id": "a", "name": "x", "children": "nope"},
        ],
    )
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(TraceError):
            Span.from_dict(payload)


class TestGraft:
    @staticmethod
    def _flow(t, circuit):
        with t.span("full_flow", circuit=circuit):
            with t.span("phase"):
                t.event("stage", name="phase")
            t.add_task_span("fault_group", "digest", 0.01)
            with t.span("phase"):
                pass

    def test_grafted_trace_normalizes_like_a_local_one(self):
        from repro.trace import normalized_json

        local = Tracer()
        with local.span("sweep"):
            for circuit in ("a", "b"):
                self._flow(local, circuit)
        grafted = Tracer()
        with grafted.span("sweep"):
            for circuit in ("a", "b"):
                worker = Tracer()
                self._flow(worker, circuit)
                root = Span.from_dict(worker.finish().to_dict())
                grafted.graft(root, worker.events)
        assert normalized_json(grafted.finish(), grafted.events) == (
            normalized_json(local.finish(), local.events)
        )

    def test_graft_renumbers_events_and_keeps_task_spans(self):
        t = Tracer()
        t.event("note", text="own")
        worker = Tracer()
        self._flow(worker, "a")
        with t.span("sweep") as sweep:
            t.graft(worker.finish(), worker.events)
        assert [e.seq for e in t.events] == [0, 1]
        (flow,) = sweep.children
        phase = flow.children[0]
        assert t.events[1].span_id == phase.span_id
        (task,) = [c for c in flow.children if c.category == "task"]
        assert task.parent_id == flow.span_id
        # Shifted onto this tracer's clock: the grafted flow ends by now.
        assert 0.0 <= flow.t_start_s <= flow.t_end_s <= t._now()

    def test_graft_after_finish_raises(self):
        t = Tracer()
        t.finish()
        with pytest.raises(TraceError):
            t.graft(Tracer().finish(), [])
