"""Leased job ownership: fencing tokens and deadlines.

A claim in the multi-worker service is a **lease**: the queue grants a
worker bounded ownership of one job, stamped with a *monotonic fencing
token* and a deadline.  The token is the whole correctness story:

* every grant consumes the next token from a counter that only moves
  forward (restored past the journal's high-water mark on restart), so
  ownership is totally ordered across worker restarts and server
  lives;
* a worker finishing a job must present its token; after the lease
  expired — or the job was requeued by the supervisor — the token no
  longer matches and the **stale result is rejected**, so a slow or
  zombie worker can never overwrite work that has been handed to
  someone else;
* requeueing is **exactly-once** by construction: it demotes only a
  ``running`` job whose current token is presented, so the supervisor
  and a signal handler racing to demote the same claim cannot
  double-demote.

Deadlines use the injected monotonic clock and live only in memory —
a restart clears every lease anyway (``running`` jobs are demoted),
so persisting wall-clock deadlines would only invite clock-skew bugs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Lease:
    """One worker's bounded ownership of one job."""

    key: str
    owner: str
    token: int
    ttl_s: Optional[float]
    #: Monotonic-clock deadline; None = never expires (inline scheduler).
    deadline: Optional[float]

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


@dataclass
class LeaseTable:
    """Active leases and the monotonic fencing counter.

    Not itself locked — the owning :class:`~repro.serve.queue.JobQueue`
    serializes access under its queue lock.
    """

    clock: Callable[[], float] = time.monotonic
    _leases: Dict[str, Lease] = field(default_factory=dict)
    _next_token: int = 1

    def observe_token(self, token: int) -> None:
        """Raise the fencing floor past a token seen in the journal."""
        if token >= self._next_token:
            self._next_token = token + 1

    def grant(self, key: str, owner: str, ttl_s: Optional[float]) -> Lease:
        """Grant ``owner`` a fresh lease on ``key`` (next fencing token).

        ``ttl_s`` of None means no deadline (the in-process scheduler,
        which cannot outlive its own server).  A ttl of 0 grants a
        lease that is already expired — chaos uses this to provoke the
        reclaim race.
        """
        token = self._next_token
        self._next_token += 1
        deadline = None if ttl_s is None else self.clock() + ttl_s
        lease = Lease(
            key=key,
            owner=owner,
            token=token,
            ttl_s=ttl_s,
            deadline=deadline,
        )
        self._leases[key] = lease
        return lease

    def get(self, key: str) -> Optional[Lease]:
        return self._leases.get(key)

    def validate(self, key: str, token: int) -> bool:
        """True when ``token`` is the *current* lease token for ``key``."""
        lease = self._leases.get(key)
        return lease is not None and lease.token == token

    def renew(self, key: str, owner: str, token: int) -> bool:
        """Push the deadline out by the lease's own ttl.

        A renewal must present the current token and owner; renewing a
        released or superseded lease is a no-op (False).  The granted
        ttl is sticky — a zero-ttl (chaos) lease stays expired no
        matter how fast the worker heartbeats.
        """
        lease = self._leases.get(key)
        if lease is None or lease.token != token or lease.owner != owner:
            return False
        if lease.ttl_s is not None:
            lease.deadline = self.clock() + lease.ttl_s
        return True

    def release(self, key: str, token: int) -> bool:
        """Drop the lease (job finished or requeued); token-fenced."""
        if not self.validate(key, token):
            return False
        del self._leases[key]
        return True

    def expired(self, now: Optional[float] = None) -> List[Lease]:
        """Every active lease past its deadline, in key order."""
        stamp = self.clock() if now is None else now
        return [
            lease
            for _key, lease in sorted(self._leases.items())
            if lease.expired(stamp)
        ]

    def __len__(self) -> int:
        return len(self._leases)
