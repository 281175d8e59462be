"""repro.resilience — fault tolerance for the runtime layer.

Long sweeps must survive the real world: worker processes crash, hang,
or return garbage; cache entries get truncated; schedulers send
SIGTERM mid-run.  This package provides the pieces the runtime layer
composes into a fault-tolerant whole:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy`: per-task
  timeouts, bounded retries with exponential backoff, and the
  pool-failure budget after which the executor degrades to serial
  execution.  Retried and serially-replayed tasks run the very same
  worker functions, so results stay bit-identical by construction.
* :mod:`repro.resilience.chaos` — :class:`ChaosSpec`: deterministic,
  seeded fault injection (worker crash / hang / corrupted payload,
  cache vandalism, and the serve layer's worker crashes, hangs,
  stalls and expired leases) so every recovery path is exercised in
  tests rather than trusted on faith.
* :mod:`repro.resilience.journal` — :class:`CheckpointJournal`:
  atomic key → record journals: per-circuit result checkpoints under
  the cache dir, powering ``repro table6 --resume``, and the serve
  queue's one journal.
* :mod:`repro.resilience.signals` — :func:`handle_termination`:
  SIGINT/SIGTERM → :class:`~repro.errors.SweepInterrupted`, for an
  orderly stop with a valid journal left behind.
"""

from repro.resilience.chaos import (
    CORRUPT_PAYLOAD,
    ChaosSpec,
    chaos_call,
    task_digest,
)
from repro.resilience.journal import (
    JOURNAL_FORMAT,
    CheckpointJournal,
    CheckpointWarning,
    flow_journal_key,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.signals import handle_termination

__all__ = [
    "CORRUPT_PAYLOAD",
    "ChaosSpec",
    "CheckpointJournal",
    "CheckpointWarning",
    "JOURNAL_FORMAT",
    "RetryPolicy",
    "chaos_call",
    "flow_journal_key",
    "handle_termination",
    "task_digest",
]
