"""Service metrics: counters, queue depth and latency histograms.

What ``GET /metrics`` serves.  Three ingredients:

* the service's own counters (submissions, admissions by verdict,
  completions, failures, shed/cancelled jobs),
* latency histograms — queue wait, run time, and the end-to-end
  submit→complete latency — with p50/p90/p99 read-outs, and
* a snapshot of the :class:`~repro.runtime.metrics.RuntimeStats` of
  the scheduler's runtime context (a supervisor's: summed over its
  workers' reports) plus the live queue depth, merged in by the
  server.

Latencies keep every observation (one float per finished job of a
server life), so percentiles are exact nearest-rank values.  All
clocks are monotonic durations; nothing here feeds a result.
"""

from __future__ import annotations

import threading
from bisect import insort
from typing import Dict, List, Optional


class LatencyHistogram:
    """Latency observations with exact percentile read-outs."""

    def __init__(self) -> None:
        self._sorted: List[float] = []

    def observe(self, seconds: float) -> None:
        insort(self._sorted, seconds)

    @property
    def count(self) -> int:
        return len(self._sorted)

    @property
    def mean_s(self) -> float:
        return sum(self._sorted) / len(self._sorted) if self._sorted else 0.0

    def percentile(self, p: float) -> float:
        """The nearest-rank ``p``-quantile observation (0.0 on an empty
        histogram)."""
        if not self._sorted:
            return 0.0
        rank = max(1, int(p * len(self._sorted) + 0.999999))
        return self._sorted[min(rank, len(self._sorted)) - 1]

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean_s": round(self.mean_s, 6),
            "p50_s": self.percentile(0.50),
            "p90_s": self.percentile(0.90),
            "p99_s": self.percentile(0.99),
        }


class ServeMetrics:
    """Thread-safe counter/histogram bag for one server."""

    _COUNTERS = (
        "submissions",
        "admitted",
        "deduplicated",
        "rejected_rate_limited",
        "rejected_saturated",
        "completed",
        "failed",
        "cancelled",
        "shed",
        "requeued",
        # Multi-worker service counters (zero under the in-process
        # scheduler): restarts of crashed/hung workers, leases the
        # expiry sweep reclaimed, results a stale fencing token kept
        # out of the store, and worker slots retired for flapping.
        "worker_restarts",
        "lease_expiries",
        "stale_results_rejected",
        "workers_degraded",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {name: 0 for name in self._COUNTERS}
        self.queue_wait = LatencyHistogram()
        self.run = LatencyHistogram()
        self.submit_to_complete = LatencyHistogram()

    def count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + delta

    def observe_job(
        self,
        queued_s: Optional[float],
        run_s: Optional[float],
        total_s: Optional[float],
    ) -> None:
        """Record one finished job's latencies (None = unknown, e.g. a
        job resumed from a previous server life)."""
        with self._lock:
            if queued_s is not None:
                self.queue_wait.observe(queued_s)
            if run_s is not None:
                self.run.observe(run_s)
            if total_s is not None:
                self.submit_to_complete.observe(total_s)

    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "counters": dict(self.counters),
                "latency": {
                    "queue_wait": self.queue_wait.to_dict(),
                    "run": self.run.to_dict(),
                    "submit_to_complete": self.submit_to_complete.to_dict(),
                },
            }
