"""BIST-campaign job service.

Turns the one-shot flows into a long-running service: a durable
priority queue of campaign jobs with one journal and one dispatch
order, a scheduler running them on one runtime context (or a
supervisor leasing them to worker processes, each with its own),
admission control with per-client rate limits and load shedding, and
a stdlib-only asyncio HTTP API — submit,
inspect, cancel, fetch results and normalized traces, ``/healthz``,
``/metrics``.  ``repro serve`` boots it; ``repro submit`` / ``repro
jobs`` and :class:`ServeClient` talk to it.

Guarantees, in one line each:

* an **acknowledged job is never lost** — it is journaled atomically
  before the 202 and survives crash, SIGTERM and restart;
* results are **byte-identical** to running the same flow directly
  (the flows are deterministic; the service only schedules them);
* an over-limit client hears **429/503 with Retry-After** in
  milliseconds instead of waiting on work that will not run.
"""

from __future__ import annotations

from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from repro.serve.client import ServeClient
from repro.serve.job import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SHED,
    STATES,
    TASKS,
    TERMINAL_STATES,
    Job,
    JobSpec,
)
from repro.serve.lease import Lease, LeaseTable
from repro.serve.metrics import LatencyHistogram, ServeMetrics
from repro.serve.progress import PROGRESS_KINDS, ProgressBook
from repro.serve.queue import JobQueue
from repro.serve.results import (
    ResultStore,
    flow_result_payload,
    optimize_result_payload,
    render_result,
)
from repro.serve.scheduler import Scheduler
from repro.serve.server import CampaignServer, ServerConfig, ServerThread
from repro.serve.supervisor import Supervisor
from repro.serve.worker import JobOutcome, WorkerHandle, execute_job

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "CampaignServer",
    "CANCELLED",
    "DONE",
    "FAILED",
    "Job",
    "JobOutcome",
    "JobQueue",
    "JobSpec",
    "LatencyHistogram",
    "Lease",
    "LeaseTable",
    "PROGRESS_KINDS",
    "ProgressBook",
    "QUEUED",
    "ResultStore",
    "RUNNING",
    "Scheduler",
    "ServeClient",
    "ServeMetrics",
    "ServerConfig",
    "ServerThread",
    "SHED",
    "STATES",
    "Supervisor",
    "TASKS",
    "TERMINAL_STATES",
    "TokenBucket",
    "WorkerHandle",
    "execute_job",
    "flow_result_payload",
    "optimize_result_payload",
    "render_result",
]
