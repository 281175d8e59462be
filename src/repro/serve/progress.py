"""Live job-progress feed for the long-poll events endpoint.

A :class:`ProgressBook` is the server's in-memory, thread-safe record
of what each job is doing *right now*: lifecycle transitions posted by
the scheduler/supervisor plus the deterministic phase events
(``stage``, ``generation``, ...) tapped off each job's own tracer via
:attr:`~repro.trace.span.Tracer.on_event`.  ``GET
/jobs/<key>/events?since=<seq>`` long-polls :meth:`ProgressBook.wait`
from the asyncio side (via ``asyncio.to_thread``), so a watching
client wakes the moment a stage completes instead of busy-polling the
job record.

Progress is *observability, not state*: the book lives only as long as
the server process, is bounded per job (old events fall off the
front), and losing it loses nothing — results, traces and the queue
journal are the durable record.  A job finished in an earlier server
life simply reports ``closed`` with no events.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.trace.events import DETERMINISTIC_KINDS, Scalar, coerce_attr

DEFAULT_CAPACITY = 512
"""Events retained per job; older ones fall off (seq keeps counting)."""

MAX_WAIT_S = 60.0
"""Hard cap on one long-poll wait, whatever the client asks for."""

PROGRESS_KINDS = frozenset(DETERMINISTIC_KINDS)
"""Tracer event kinds forwarded from a running job into the book —
exactly the deterministic kinds, which fire at phase granularity
(``stage``, ``generation``, ``front``, ``analysis``, ``omega``,
``reverse``, ``note``) and are therefore bounded per job."""


class ProgressBook:
    """Per-job event ledger with monotone sequence numbers.

    Every event is a plain dict ``{"seq": int, "kind": str, "attrs":
    {...}}``; ``seq`` is per-job, starts at 0, and never repeats even
    after old events are evicted, so ``?since=<seq>`` cursors stay
    valid across evictions (a client that fell behind simply misses
    the evicted middle).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = max(1, int(capacity))
        self._events: Dict[str, List[Dict[str, object]]] = {}
        self._next_seq: Dict[str, int] = {}
        self._closed: Dict[str, str] = {}
        self._cond = threading.Condition()

    # -- producers ----------------------------------------------------------

    def post(
        self, key: str, kind: str, attrs: Optional[Mapping[str, object]] = None
    ) -> None:
        """Append one event for ``key`` and wake every waiter."""
        clean: Dict[str, Scalar] = (
            {str(k): coerce_attr(v) for k, v in attrs.items()}
            if attrs
            else {}
        )
        with self._cond:
            seq = self._next_seq.get(key, 0)
            self._next_seq[key] = seq + 1
            bucket = self._events.setdefault(key, [])
            bucket.append({"seq": seq, "kind": kind, "attrs": clean})
            if len(bucket) > self.capacity:
                del bucket[: len(bucket) - self.capacity]
            self._cond.notify_all()

    def close(self, key: str, state: str) -> None:
        """Mark ``key`` terminal; waiters return immediately from now on."""
        with self._cond:
            self._closed[key] = state
            self._cond.notify_all()

    def reopen(self, key: str) -> None:
        """Un-close a requeued job so watchers keep following it."""
        with self._cond:
            self._closed.pop(key, None)
            self._cond.notify_all()

    # -- consumers ----------------------------------------------------------

    def _since_locked(
        self, key: str, since: int
    ) -> List[Dict[str, object]]:
        return [
            dict(event)
            for event in self._events.get(key, [])
            if int(event["seq"]) >= since  # type: ignore[call-overload]
        ]

    def snapshot(
        self, key: str, since: int = 0
    ) -> Tuple[List[Dict[str, object]], bool]:
        """Events with ``seq >= since`` plus the closed flag, now."""
        with self._cond:
            return self._since_locked(key, since), key in self._closed

    def wait(
        self, key: str, since: int = 0, timeout_s: float = 25.0
    ) -> Tuple[List[Dict[str, object]], bool]:
        """Block until an event with ``seq >= since`` exists, the job
        closes, or ``timeout_s`` passes; then behave as :meth:`snapshot`."""
        deadline = time.monotonic() + min(max(timeout_s, 0.0), MAX_WAIT_S)
        with self._cond:
            while True:
                events = self._since_locked(key, since)
                closed = key in self._closed
                if events or closed:
                    return events, closed
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    return [], False
                self._cond.wait(remaining)

    def seen(self, key: str) -> bool:
        """Whether ``key`` got an event or a close in this book's life."""
        with self._cond:
            return key in self._next_seq or key in self._closed

    def next_seq(self, key: str) -> int:
        """The seq the *next* event for ``key`` will get (the cursor a
        fully caught-up client should poll with)."""
        with self._cond:
            return self._next_seq.get(key, 0)
