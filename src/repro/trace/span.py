"""Hierarchical span tracing with deterministic identities.

A :class:`Span` is one named, attributed interval of work; spans nest,
forming a tree rooted at the tracer's synthetic ``trace`` span.  Two
design rules make the tree usable for golden-trace testing:

* **Stable IDs.**  A span's ID is a digest of its *path* — the parent
  ID, the span name, and either an explicit ``key`` (worker-pool tasks
  use their task digest) or the occurrence index among same-named
  siblings.  Wall clock, PIDs and scheduling order never contribute,
  so the same workload produces the same IDs on every run, for any
  worker count.
* **Category split.**  ``flow`` spans mark phases of the algorithm
  (mining, screening, reverse-order compaction, ...) and are created
  at fixed program points — their tree is a pure function of the
  workload.  ``task`` spans mirror executor work units (which vary
  with cache temperature, worker count and chaos injection) and are
  dropped by normalization.

Each span records wall time (``time.perf_counter``), CPU time
(``time.process_time``) and — when the tracer is attached to a
:class:`~repro.runtime.metrics.RuntimeStats` — the delta of every
runtime counter over its interval, so a trace answers "where did the
simulations/cache hits/retries happen", not just "where did the time
go".
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.errors import TraceError
from repro.trace.events import EVENT_KINDS, Scalar, TraceEvent, coerce_attr

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.metrics import RuntimeStats

CATEGORIES = ("flow", "task")
"""Span categories: algorithm phases vs. executor work units."""

_ID_BYTES = 8

ROOT_SPAN_ID = hashlib.sha256(b"repro-trace-root").hexdigest()[: 2 * _ID_BYTES]
"""The synthetic root span's ID (identical in every trace)."""


def span_id_for(parent_id: str, name: str, token: str) -> str:
    """The stable ID of a span at path ``parent/name#token``."""
    text = f"{parent_id}/{name}#{token}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[: 2 * _ID_BYTES]


@dataclass
class Span:
    """One interval of the span tree.

    Attributes
    ----------
    span_id:
        Stable identity (see :func:`span_id_for`).
    name:
        Phase or task name (``"mine_candidates"``, ``"fault_group"``).
    category:
        ``"flow"`` or ``"task"``.
    attrs:
        JSON-scalar attributes fixed at creation (circuit name, ``u``,
        ``L_S``, ...).
    parent_id:
        The enclosing span's ID (None only for the root).
    t_start_s / t_end_s:
        Wall-clock interval in seconds since the tracer's epoch.
    cpu_start_s / cpu_end_s:
        ``time.process_time`` interval.
    counter_deltas:
        Per-counter increments of the attached
        :class:`~repro.runtime.metrics.RuntimeStats` over the span
        (zero deltas omitted).
    children:
        Nested spans, in creation order.
    """

    span_id: str
    name: str
    category: str
    attrs: Dict[str, Scalar]
    parent_id: Optional[str]
    t_start_s: float
    t_end_s: Optional[float] = None
    cpu_start_s: float = 0.0
    cpu_end_s: Optional[float] = None
    counter_deltas: Dict[str, float] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        """Wall-clock seconds spanned (0.0 while still open)."""
        if self.t_end_s is None:
            return 0.0
        return self.t_end_s - self.t_start_s

    @property
    def cpu_s(self) -> float:
        """CPU seconds spanned (0.0 while still open)."""
        if self.cpu_end_s is None:
            return 0.0
        return self.cpu_end_s - self.cpu_start_s

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def self_counter_deltas(self) -> Dict[str, float]:
        """Counter increments attributed to this span *excluding* its
        children (non-negative for monotonic counters)."""
        out = dict(self.counter_deltas)
        for child in self.children:
            for name, delta in child.counter_deltas.items():
                out[name] = out.get(name, 0.0) - delta
        return {k: v for k, v in out.items() if v}

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form of this subtree."""
        return {
            "id": self.span_id,
            "name": self.name,
            "category": self.category,
            "attrs": dict(self.attrs),
            "t_start_s": self.t_start_s,
            "duration_s": self.duration_s,
            "cpu_s": self.cpu_s,
            "counters": dict(self.counter_deltas),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(
        cls, payload: object, parent_id: Optional[str] = None
    ) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output."""
        if not isinstance(payload, dict):
            raise TraceError(f"trace span is not an object: {payload!r}")
        try:
            t_start = float(payload.get("t_start_s", 0.0))
            duration = float(payload.get("duration_s", 0.0))
            cpu = float(payload.get("cpu_s", 0.0))
            attrs = payload.get("attrs", {})
            counters = payload.get("counters", {})
            if not isinstance(attrs, dict) or not isinstance(counters, dict):
                raise TraceError(f"malformed trace span: {payload!r}")
            span = cls(
                span_id=str(payload["id"]),
                name=str(payload["name"]),
                category=str(payload.get("category", "flow")),
                attrs={str(k): coerce_attr(v) for k, v in attrs.items()},
                parent_id=parent_id,
                t_start_s=t_start,
                t_end_s=t_start + duration,
                cpu_start_s=0.0,
                cpu_end_s=cpu,
                counter_deltas={str(k): float(v) for k, v in counters.items()},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed trace span: {payload!r}") from exc
        children = payload.get("children", [])
        if not isinstance(children, list):
            raise TraceError(f"trace span children is not a list: {children!r}")
        span.children = [
            cls.from_dict(child, parent_id=span.span_id) for child in children
        ]
        return span


class Tracer:
    """Collects one trace: a span tree plus the event log.

    Parameters
    ----------
    stats:
        Optional :class:`~repro.runtime.metrics.RuntimeStats`; when
        given, every span records the delta of each counter over its
        interval.
    on_event:
        Optional callback fired with every :class:`TraceEvent` as it
        is appended — the live-progress tap used by
        :mod:`repro.serve.progress`.  Exceptions it raises are
        swallowed: observation must never change the observed run.

    The tracer is strictly stack-disciplined: :meth:`end` must close
    the innermost open span (the ``span`` context manager guarantees
    this).  :meth:`finish` closes everything still open — after it,
    the trace is immutable.
    """

    def __init__(
        self,
        stats: Optional["RuntimeStats"] = None,
        on_event: Optional[Callable[[TraceEvent], None]] = None,
    ) -> None:
        self.stats = stats
        self.on_event = on_event
        self._t0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self.root = Span(
            span_id=ROOT_SPAN_ID,
            name="trace",
            category="flow",
            attrs={},
            parent_id=None,
            t_start_s=0.0,
            cpu_start_s=0.0,
        )
        self._stack: List[Tuple[Span, Dict[str, float]]] = [
            (self.root, self._snapshot())
        ]
        self._occurrences: Dict[Tuple[str, str], int] = {}
        self.events: List[TraceEvent] = []
        self._finished = False

    # -- clocks and counters ------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _cpu_now(self) -> float:
        return time.process_time() - self._cpu0

    def _snapshot(self) -> Dict[str, float]:
        if self.stats is None:
            return {}
        return self.stats.snapshot()

    # -- span lifecycle -----------------------------------------------------

    @property
    def current(self) -> Span:
        """The innermost open span."""
        return self._stack[-1][0]

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` sealed the trace."""
        return self._finished

    def begin(
        self,
        name: str,
        category: str = "flow",
        key: Optional[str] = None,
        **attrs: object,
    ) -> Span:
        """Open a child span of the current span and make it current.

        ``key`` overrides the identity token (worker tasks pass their
        task digest); without it the token is the occurrence index of
        ``name`` under this parent — deterministic for spans created
        at fixed program points.
        """
        if self._finished:
            raise TraceError("tracer is finished; no new spans can start")
        if category not in CATEGORIES:
            raise TraceError(
                f"unknown span category {category!r}; expected one of "
                f"{', '.join(CATEGORIES)}"
            )
        parent = self.current
        if key is None:
            slot = (parent.span_id, name)
            index = self._occurrences.get(slot, 0)
            self._occurrences[slot] = index + 1
            token = str(index)
        else:
            token = key
        span = Span(
            span_id=span_id_for(parent.span_id, name, token),
            name=name,
            category=category,
            attrs={str(k): coerce_attr(v) for k, v in attrs.items()},
            parent_id=parent.span_id,
            t_start_s=self._now(),
            cpu_start_s=self._cpu_now(),
        )
        parent.children.append(span)
        self._stack.append((span, self._snapshot()))
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` (which must be the innermost open span)."""
        if len(self._stack) <= 1:
            raise TraceError("no open span to end (root closes via finish())")
        top, start_counters = self._stack[-1]
        if top is not span:
            raise TraceError(
                f"out-of-order span end: {span.name!r} is not the "
                f"innermost open span ({top.name!r} is)"
            )
        self._stack.pop()
        self._seal(span, start_counters)

    def _seal(self, span: Span, start_counters: Dict[str, float]) -> None:
        span.t_end_s = self._now()
        span.cpu_end_s = self._cpu_now()
        if start_counters or self.stats is not None:
            now = self._snapshot()
            span.counter_deltas = {
                name: now[name] - before
                for name, before in start_counters.items()
                if now.get(name, before) != before
            }

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "flow",
        key: Optional[str] = None,
        **attrs: object,
    ) -> Iterator[Span]:
        """Context manager around :meth:`begin` / :meth:`end`."""
        span = self.begin(name, category=category, key=key, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def add_task_span(
        self,
        name: str,
        key: str,
        busy_s: float,
        **attrs: object,
    ) -> Span:
        """Record one already-completed executor work unit.

        Worker-pool tasks run out of process, so their spans are
        merged into the parent trace after the fact: a ``task`` span
        keyed on the task digest (stable across runs, workers and
        PIDs) whose duration is the worker's busy time.  The span is
        attached to the currently open span and closed immediately.
        """
        if self._finished:
            raise TraceError("tracer is finished; no new spans can start")
        parent = self.current
        now = self._now()
        span = Span(
            span_id=span_id_for(parent.span_id, name, key),
            name=name,
            category="task",
            attrs={str(k): coerce_attr(v) for k, v in attrs.items()},
            parent_id=parent.span_id,
            t_start_s=max(now - busy_s, parent.t_start_s),
            cpu_start_s=0.0,
            cpu_end_s=busy_s,
        )
        span.t_end_s = span.t_start_s + busy_s
        parent.children.append(span)
        return span

    # -- events -------------------------------------------------------------

    def event(self, kind: str, **attrs: object) -> TraceEvent:
        """Append one event, attached to the current span."""
        return self._append(kind, self.current.span_id, self._now(), attrs)

    def _append(
        self, kind: str, span_id: str, t_s: float, attrs: Mapping[str, object]
    ) -> TraceEvent:
        if kind not in EVENT_KINDS:
            raise TraceError(
                f"unknown trace event kind {kind!r}; expected one of "
                f"{', '.join(sorted(EVENT_KINDS))}"
            )
        if self._finished:
            raise TraceError("tracer is finished; no new events can fire")
        event = TraceEvent(
            seq=len(self.events),
            kind=kind,
            span_id=span_id,
            t_s=t_s,
            attrs={str(k): coerce_attr(v) for k, v in attrs.items()},
        )
        self.events.append(event)
        if self.on_event is not None:
            try:
                self.on_event(event)
            except Exception:  # noqa: BLE001 - observers must not break runs
                pass
        return event

    # -- grafting -----------------------------------------------------------

    def graft(self, root: Span, events: Iterable[TraceEvent]) -> None:
        """Adopt another tracer's finished trace under the current span.

        ``root``'s children become children of the current span and
        ``events`` are appended after this tracer's own.  Every span ID
        is derived again from its new parent as :meth:`begin` derives
        it: a ``flow`` span from its occurrence index among same-named
        siblings (counted on in this tracer), a ``task`` span from its
        old ID as key.  A flow traced in a worker process and grafted
        here thus normalizes exactly like one traced here.  Times move
        so that the grafted trace ends now.
        """
        if self._finished:
            raise TraceError("tracer is finished; nothing can be grafted")
        parent = self.current
        shift = self._now() - root.duration_s
        ids = {root.span_id: parent.span_id}
        for child in root.children:
            parent.children.append(self._adopt(child, parent, shift, ids))
        for event in events:
            self._append(
                event.kind,
                ids.get(event.span_id, parent.span_id),
                event.t_s + shift,
                event.attrs,
            )

    def _adopt(
        self, span: Span, parent: Span, shift: float, ids: Dict[str, str]
    ) -> Span:
        if span.category == "flow":
            slot = (parent.span_id, span.name)
            index = self._occurrences.get(slot, 0)
            self._occurrences[slot] = index + 1
            token = str(index)
        else:
            token = span.span_id
        adopted = replace(
            span,
            span_id=span_id_for(parent.span_id, span.name, token),
            parent_id=parent.span_id,
            t_start_s=span.t_start_s + shift,
            t_end_s=None if span.t_end_s is None else span.t_end_s + shift,
            children=[],
        )
        ids[span.span_id] = adopted.span_id
        adopted.children = [
            self._adopt(child, adopted, shift, ids) for child in span.children
        ]
        return adopted

    # -- sealing ------------------------------------------------------------

    def finish(self) -> Span:
        """Close every open span, including the root; idempotent."""
        if self._finished:
            return self.root
        while len(self._stack) > 1:
            span, counters = self._stack[-1]
            self._stack.pop()
            self._seal(span, counters)
        root, counters = self._stack[0]
        self._seal(root, counters)
        self._finished = True
        return root
