"""Structured trace events and their JSONL log.

A :class:`TraceEvent` is one discrete occurrence inside a trace — a
cache hit, a worker retry, a checkpoint write, an ``Ω`` acceptance —
attached to the span that was open when it happened.  Events come in
two determinism classes:

* **deterministic** kinds (:data:`DETERMINISTIC_KINDS`) are a pure
  function of the workload: the same flow emits the same events in the
  same order whether it runs serially, on a worker pool, from a warm
  cache, or under chaos injection.  They survive trace normalization
  (:mod:`repro.trace.normalize`) and are what the golden-trace tests
  compare.
* **runtime** kinds (:data:`RUNTIME_KINDS`) describe *how* the results
  were obtained — cache traffic, executor dispatch and recovery, chaos
  injections, checkpoint writes.  They vary with worker count, cache
  temperature and injected failures, so normalization drops them.

The JSONL log (:func:`write_events_jsonl` / :func:`read_events_jsonl`)
stores one event per line, append-friendly and diff-friendly; the
round trip is exact because event attributes are coerced to JSON
scalars at creation time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.errors import TraceError

TRACE_FORMAT = 1
"""Version of the trace payload layout.  Exports carry it; loaders
reject anything else (recompute, never reinterpret)."""

DETERMINISTIC_KINDS = frozenset(
    {"note", "omega", "reverse", "stage", "generation", "front",
     "analysis", "prune"}
)
"""Event kinds that are identical for any execution strategy.  The
``generation`` / ``front`` kinds mark :mod:`repro.optimize` progress:
one event per search generation and one for the final Pareto front —
both pure functions of (circuit, config, seed).  The ``analysis`` kind
summarises :mod:`repro.analysis.static` results — a pure function of
(circuit, fault set), whether computed fresh or replayed from the
artifact cache.  Nothing emits ``prune`` now; the kind stays so that
traces written earlier still load."""

RUNTIME_KINDS = frozenset(
    {
        "cache_hit",
        "cache_miss",
        "cache_store",
        "cache_discard",
        "cache_evict",
        "cache_chaos",
        "task_retry",
        "task_timeout",
        "worker_crash",
        "pool_rebuild",
        "serial_replay",
        "corrupt_result",
        "executor_degraded",
        "checkpoint",
        "journal_skip",
        "job_queued",
        "job_admitted",
        "job_running",
        "job_done",
        "job_failed",
        "job_cancelled",
        "job_shed",
        "job_rejected",
        "job_requeued",
        "lease_expired",
        "stale_result_rejected",
        "worker_restart",
        "worker_degraded",
    }
)
"""Event kinds describing execution strategy, not results.  The
``job_*`` family marks the lifecycle of one :mod:`repro.serve` campaign
job (queued → admitted → running → done/failed/cancelled/shed), so a
served trace attributes every job in Perfetto; the supervisor adds the
recovery kinds (requeue, lease expiry, fencing, worker restarts)."""

EVENT_KINDS = DETERMINISTIC_KINDS | RUNTIME_KINDS

Scalar = Union[str, int, float, bool, None]


def coerce_attr(value: object) -> Scalar:
    """Reduce an attribute value to a JSON scalar.

    Scalars pass through; everything else is rendered with ``str`` so
    the JSONL round trip is exact by construction.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


@dataclass(frozen=True)
class TraceEvent:
    """One discrete trace occurrence.

    Attributes
    ----------
    seq:
        Position in the tracer's global event order (0-based).
    kind:
        One of :data:`EVENT_KINDS`.
    span_id:
        Stable ID of the span that was open when the event fired.
    t_s:
        Seconds since the tracer's epoch (wall clock; stripped by
        normalization).
    attrs:
        JSON-scalar attributes.
    """

    seq: int
    kind: str
    span_id: str
    t_s: float
    attrs: Dict[str, Scalar] = field(default_factory=dict)

    @property
    def deterministic(self) -> bool:
        """True when this event survives trace normalization."""
        return self.kind in DETERMINISTIC_KINDS

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (one JSONL line)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "span": self.span_id,
            "t_s": self.t_s,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: object) -> "TraceEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        if not isinstance(payload, dict):
            raise TraceError(f"trace event is not an object: {payload!r}")
        try:
            attrs = payload.get("attrs", {})
            if not isinstance(attrs, dict):
                raise TraceError(f"trace event attrs is not an object: {attrs!r}")
            return cls(
                seq=int(payload["seq"]),
                kind=str(payload["kind"]),
                span_id=str(payload["span"]),
                t_s=float(payload["t_s"]),
                attrs={str(k): coerce_attr(v) for k, v in attrs.items()},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed trace event: {payload!r}") from exc


def write_events_jsonl(events: Iterable[TraceEvent], path: Union[str, Path]) -> int:
    """Write ``events`` to ``path``, one JSON object per line.

    Returns the number of events written.  Raises :class:`TraceError`
    on an unwritable path (the clean one-line CLI error contract).
    """
    lines = [json.dumps(e.to_dict(), sort_keys=True) for e in events]
    try:
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    except OSError as exc:
        raise TraceError(f"cannot write event log {path}: {exc}") from exc
    return len(lines)


def read_events_jsonl(path: Union[str, Path]) -> List[TraceEvent]:
    """Read a JSONL event log written by :func:`write_events_jsonl`."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TraceError(f"cannot read event log {path}: {exc}") from exc
    events: List[TraceEvent] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise TraceError(
                f"{path}: line {line_no} is not valid JSON: {exc}"
            ) from exc
        events.append(TraceEvent.from_dict(payload))
    return events
