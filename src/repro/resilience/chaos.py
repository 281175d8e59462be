"""Deterministic fault injection ("chaos") for the runtime and serve layers.

Recovery code that is never exercised is recovery code that does not
work.  A :class:`ChaosSpec` makes workers crash, hang past their
timeout, or return corrupted payloads, and makes the artifact cache
vandalize entries it just wrote — all **deterministically**: every
injection decision is a pure function of the spec's seed and the
identity of the victim (worker-function name, task digest, attempt
number, or cache key).  The same spec against the same workload always
injects the same faults, so every recovery path can be pinned in
tier-1 tests.

Injections never change results.  A crashed/hung/corrupting task is
retried (the decision hash includes the attempt number, so retries
roll fresh dice) and ultimately replayed serially without chaos; a
vandalized cache entry is discarded on read and the artifact
recomputed.

Two families of modes share one spec:

* **Runtime-pool modes** (``crash``/``hang``/``corrupt``/``cache``)
  afflict the executor's task workers and the artifact cache, exactly
  as before.
* **Service modes** afflict the multi-worker campaign service
  (:mod:`repro.serve.supervisor`): ``worker_crash`` hard-exits a job
  worker after it computed but before it reported, ``worker_hang``
  stops its heartbeats before the work, ``worker_stall`` stops them
  after the work but before the result is sent, ``kill_claim``
  SIGKILLs the worker the instant it receives a claim, and
  ``lease_expire`` grants an already-expired lease (provoking the
  stale-result fencing race).

Spec syntax (the CLI's ``--chaos``)::

    crash=0.2,hang=0.1,corrupt=0.1,cache=0.3,seed=7,hang_s=2.0
    worker_crash=0.3,kill_claim=0.2,lease_expire=0.2,seed=11

Rates are probabilities in ``[0, 1]``; ``seed`` picks the injection
pattern; ``hang_s`` is how long a hung worker sleeps.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, fields
from typing import Any, Callable, Tuple

from repro.errors import ChaosError

CORRUPT_PAYLOAD = "__repro_chaos_corrupted_payload__"
"""Sentinel a chaos-afflicted worker returns instead of its real
result; it fails the executor's payload validation and triggers the
retry path."""

_RATE_FIELDS = (
    "crash",
    "hang",
    "corrupt",
    "cache",
    "worker_crash",
    "worker_hang",
    "worker_stall",
    "kill_claim",
    "lease_expire",
)
_SERVICE_FIELDS = (
    "worker_crash",
    "worker_hang",
    "worker_stall",
    "kill_claim",
    "lease_expire",
)
_DIGEST_BITS = 48


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded fault-injection configuration.

    Attributes
    ----------
    crash:
        Probability that a worker task hard-exits mid-flight
        (``os._exit``), breaking the process pool.
    hang:
        Probability that a worker task sleeps ``hang_s`` seconds
        before doing its work (exceeding any sane ``task_timeout``).
    corrupt:
        Probability that a worker task returns
        :data:`CORRUPT_PAYLOAD` instead of its real result.
    cache:
        Probability that the artifact cache truncates an entry right
        after writing it.
    worker_crash:
        Probability that a campaign job worker hard-exits after
        computing a job but before reporting the result.
    worker_hang:
        Probability that a campaign job worker stops heartbeating and
        sleeps ``hang_s`` *before* doing the work.
    worker_stall:
        Probability that a campaign job worker does the work, then
        stops heartbeating and stalls before sending the result.
    kill_claim:
        Probability that a campaign job worker SIGKILLs itself the
        instant it receives a claim (the journaled lease is the only
        trace of the claim).
    lease_expire:
        Probability that the supervisor grants a lease already at its
        deadline, so the job is reclaimed while the original worker is
        still computing and that worker's late result is fenced off.
    seed:
        Seed for the injection pattern; same seed → same injections.
    hang_s:
        Sleep duration of a hung worker.
    """

    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    cache: float = 0.0
    worker_crash: float = 0.0
    worker_hang: float = 0.0
    worker_stall: float = 0.0
    kill_claim: float = 0.0
    lease_expire: float = 0.0
    seed: int = 0
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ChaosError(
                    f"chaos rate {name}={rate!r} must be in [0, 1]"
                )
        if self.hang_s <= 0:
            raise ChaosError(f"hang_s must be positive, got {self.hang_s!r}")

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Parse a ``key=value,...`` spec (the CLI's ``--chaos``)."""
        known = {f.name: f for f in fields(cls)}
        values: dict = {}
        for part in text.replace(";", ",").split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ChaosError(
                    f"chaos spec item {part!r} is not key=value"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            if key not in known:
                raise ChaosError(
                    f"unknown chaos key {key!r}; expected one of "
                    f"{', '.join(sorted(known))}"
                )
            try:
                values[key] = int(raw) if key == "seed" else float(raw)
            except ValueError as exc:
                raise ChaosError(
                    f"chaos value {raw.strip()!r} for {key!r} is not a number"
                ) from exc
        return cls(**values)

    @property
    def affects_workers(self) -> bool:
        """True when any runtime-pool injection mode is active."""
        return self.crash > 0 or self.hang > 0 or self.corrupt > 0

    @property
    def affects_service(self) -> bool:
        """True when any serve-layer injection mode is active."""
        return any(getattr(self, name) > 0 for name in _SERVICE_FIELDS)

    def roll(self, mode: str, *ingredients: object) -> float:
        """Deterministic pseudo-uniform draw in ``[0, 1)`` for one
        potential injection site."""
        text = "|".join(
            [str(self.seed), mode] + [repr(item) for item in ingredients]
        )
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        return int.from_bytes(digest[:6], "big") / float(1 << _DIGEST_BITS)

    def decide(self, mode: str, *ingredients: object) -> bool:
        """Whether to inject fault ``mode`` at this site."""
        rate = float(getattr(self, mode))
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return self.roll(mode, *ingredients) < rate


def task_digest(task: object) -> str:
    """Stable digest identifying one task payload.

    ``repr`` over the task tuple (strings, ints, tuples, fault
    dataclasses) is deterministic across processes, so the same task
    draws the same chaos verdict wherever it runs.
    """
    return hashlib.sha256(repr(task).encode("utf-8")).hexdigest()[:16]


def chaos_call(
    payload: Tuple["ChaosSpec", Callable[[Any], Tuple[Any, float]], int, Any],
) -> Tuple[Any, float]:
    """Worker-side wrapper: maybe inject a fault, then run the task.

    The executor submits this instead of the bare worker function when
    a spec with worker-side modes is active.  Serial replays call the
    bare function directly, so exhausted-retry fallbacks always
    succeed.
    """
    spec, fn, attempt, task = payload
    site = (fn.__name__, task_digest(task), attempt)
    if spec.decide("crash", *site):
        # A hard exit, not an exception: the parent sees
        # BrokenProcessPool exactly as it would for a real segfault.
        os._exit(13)
    if spec.decide("hang", *site):
        time.sleep(spec.hang_s)
    result, elapsed = fn(task)
    if spec.decide("corrupt", *site):
        return CORRUPT_PAYLOAD, elapsed
    return result, elapsed
