"""Outside-in span recorder for the per-layer benchmark metrics.

The benchmark times calls into each layer's *public* functions from
outside the program: :meth:`Recorder.wrap` replaces an attribute (a
module-level function or a class method) with a wrapper that opens a
span around every call, and :meth:`Recorder.unwrap_all` puts every
original back.  No file of the program is changed.

Each span knows the span that was open when it started (per thread),
which gives:

* **self time** -- a span's duration minus the time of the spans
  nested directly inside it, so the self times of a span tree sum to
  the duration of its root;
* **group time and work** -- wrapped callables that belong to one
  layer (say every ``FaultSimulator`` entry point) share a *group*;
  a call counts towards its group only when no call of the same group
  is already open, so a batch call that falls back to single calls is
  not counted twice.

A span is closed in a ``finally`` block, so a call that raises still
closes its span (and is counted in ``errors``).  Calls may also log
``(name, key, start, end)`` events, which the serve workload joins
with client-side timestamps by job key.

Timestamps come from :func:`time.monotonic`, the system-wide monotonic
clock, so events recorded in a server process line up with the
client's own timestamps on the same host.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``count(args, kwargs, result) -> {counter: amount}``; called after a
#: successful call.
CountFn = Callable[[tuple, dict, Any], Dict[str, float]]
#: ``log(args, kwargs, result) -> key or None``; a key records an event.
LogFn = Callable[[tuple, dict, Any], Optional[str]]

_ABSENT = object()


@dataclass
class SpanStats:
    """Per span name: calls, inclusive time, self time, raising calls."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


@dataclass
class GroupStats:
    """Per group: outermost calls and work."""

    calls: int = 0
    total_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    def add(self, dur: float, counts: Dict[str, float]) -> None:
        self.calls += 1
        self.total_s += dur
        for name, amount in counts.items():
            self.counters[name] = self.counters.get(name, 0.0) + amount


class _Frame:
    """One open span: its identity, start, nested time and outcome."""

    __slots__ = ("name", "group", "t0", "child_s", "ok", "counts", "key")

    def __init__(self, name: str, group: str, t0: float) -> None:
        self.name = name
        self.group = group
        self.t0 = t0
        self.child_s = 0.0
        self.ok = False
        self.counts: Dict[str, float] = {}
        self.key: Optional[str] = None


class Recorder:
    """Wraps callables, records nested spans, counts work per layer."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.spans: Dict[str, SpanStats] = defaultdict(SpanStats)
        self.groups: Dict[str, GroupStats] = defaultdict(GroupStats)
        self.events: List[Tuple[str, str, float, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, group: str) -> Tuple[List[_Frame], _Frame]:
        stack = self._stack()
        frame = _Frame(name, group, self.clock())
        stack.append(frame)
        return stack, frame

    def _exit(self, stack: List[_Frame], frame: _Frame) -> None:
        t1 = self.clock()
        stack.pop()
        dur = t1 - frame.t0
        if stack:
            stack[-1].child_s += dur
        outermost = all(f.group != frame.group for f in stack)
        with self._lock:
            stats = self.spans[frame.name]
            stats.calls += 1
            stats.total_s += dur
            stats.self_s += dur - frame.child_s
            if not frame.ok:
                stats.errors += 1
            if frame.key is not None:
                self.events.append((frame.name, frame.key, frame.t0, t1))
            if outermost:
                self.groups[frame.group].add(dur, frame.counts)

    @contextlib.contextmanager
    def span(self, name: str, group: Optional[str] = None) -> Iterator[None]:
        """Open a span around a ``with`` block (the benchmark's own roots)."""
        stack, frame = self._enter(name, group or name)
        try:
            yield
            frame.ok = True
        finally:
            self._exit(stack, frame)

    # -- wrapping -----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        group: Optional[str] = None,
        count: Optional[CountFn] = None,
        log: Optional[LogFn] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``owner`` is a module or a class; :meth:`unwrap_all` restores
        the original (and removes the attribute again when it was only
        inherited).
        """
        original = owner.__dict__.get(attr, _ABSENT)
        fn = getattr(owner, attr)
        group = group or name
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack, frame = enter(name, group)
            try:
                result = fn(*args, **kwargs)
                frame.ok = True
                if count is not None:
                    frame.counts = count(args, kwargs, result)
                if log is not None:
                    frame.key = log(args, kwargs, result)
                return result
            finally:
                exit_(stack, frame)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- read-out -----------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        """JSON-ready copy of everything recorded."""
        with self._lock:
            return {
                "spans": {k: vars(v).copy() for k, v in self.spans.items()},
                "groups": {k: _group_json(v) for k, v in self.groups.items()},
                "events": [list(e) for e in self.events],
            }


def merge_dumps(dumps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One dump from the dumps of several recorders (one per process)."""
    spans: Dict[str, Dict[str, float]] = {}
    groups: Dict[str, GroupStats] = defaultdict(GroupStats)
    events: List[List[Any]] = []
    for dump in dumps:
        for name, stats in dump["spans"].items():
            into = spans.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                into[key] += value
        for name, stats in dump["groups"].items():
            into_group = groups[name]
            into_group.calls += stats["calls"]
            into_group.total_s += stats["total_s"]
            for key, value in stats["counters"].items():
                into_group.counters[key] = (
                    into_group.counters.get(key, 0.0) + value
                )
        events += dump["events"]
    return {
        "spans": spans,
        "groups": {k: _group_json(v) for k, v in groups.items()},
        "events": events,
    }


def _group_json(stats: GroupStats) -> Dict[str, Any]:
    return {
        "calls": stats.calls,
        "total_s": stats.total_s,
        "counters": dict(stats.counters),
    }
