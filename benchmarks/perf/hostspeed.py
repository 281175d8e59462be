"""Host-speed probe: wall time scaled to a reference host speed.

The measurement host is a shared VM whose speed drifts: the same g208
flow took 7.3 to 12.9 s within four minutes, and a cold Table-6 sweep
6.5 to 17.9 s within an hour.  A run's median then measures the host's
neighbours as much as the program.  The host slows a process in two
ways, and the probe measures both:

* **CPU speed.**  A timer signal interrupts the measuring process every
  :data:`PERIOD_S` and runs a fixed burst of interpreter work
  (big-integer bit operations and list and dict reads, the fault
  simulators' inner loop in miniature) in the same process, so on the
  CPU and at the moment the operation runs.  The burst's CPU time gives
  the speed at that moment, ``REF_BURST_S / burst``; preemption by the
  operation's own workers is not counted.
* **Steal.**  CPU time leaves out the time the hypervisor ran another
  guest on a vCPU this one wanted to run (a busy thread got 0.24 s of
  CPU in 0.5 s of wall time while the kernel counted 57% steal).  Every
  sample also reads the kernel's busy and steal counters
  (``/proc/stat``); an interval's *steal share* is the share of the
  vCPU time wanted in it that was stolen.

Over an interval, the wall time less the bursts, times the share not
stolen and the mean speed of the bursts in it, is the time the interval
would have taken on a host where one burst takes :data:`REF_BURST_S`
and nothing is stolen: reference seconds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Tuple

#: Seconds between bursts.
PERIOD_S = 0.05
#: CPU seconds of one burst on the reference host.
REF_BURST_S = 0.002
#: Rounds of one burst (about 2 ms of CPU on the measurement host).
BURST_ROUNDS = 300
#: The kernel's CPU counters: all vCPUs, in clock ticks.
PROC_STAT = "/proc/stat"

_MASK = (1 << 256) - 1
_SEEDS = tuple((0x9E3779B97F4A7C15 * (i + 1)) & _MASK for i in range(16))
_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(64)}

#: ``(end, cpu_s, wall_s, busy_ticks, steal_ticks)`` of one burst.
Sample = Tuple[float, float, float, int, int]


def cpu_ticks() -> Tuple[int, int]:
    """``(busy, steal)`` clock ticks of all vCPUs since boot; ``(0, 0)``
    where the kernel does not count them."""
    try:
        with open(PROC_STAT) as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    if len(fields) < 8:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


class HostSpeed:
    """Speed samples of the host, taken on a timer signal.

    One per process; :meth:`start` takes over ``SIGALRM``.  Sample
    times are on the monotonic clock.
    """

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        # Reused by every burst: a burst allocates no container, so it
        # never sets off a garbage collection of the operation's objects.
        self._vals = list(_SEEDS)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def burst(self) -> int:
        """The fixed work of one sample."""
        vals = self._vals
        vals[:] = _SEEDS
        acc = 0
        for r in range(BURST_ROUNDS):
            for i in range(16):
                a = vals[(i * 5 + r) & 15]
                b = vals[(i * 3 + 1) & 15]
                k = (i + r) % 3
                if k == 0:
                    v = a & b
                elif k == 1:
                    v = (a | b) ^ vals[i]
                else:
                    v = ~(a ^ b) & _MASK
                vals[i] = v
                acc += _TABLE[(i + r) & 63]
        return acc

    def _sample(self, signum: int, frame: object) -> None:
        w0, c0 = time.perf_counter(), time.thread_time()
        self.burst()
        c1, w1 = time.thread_time(), time.perf_counter()
        busy, steal = cpu_ticks()
        self.samples.append((time.monotonic(), c1 - c0, w1 - w0, busy, steal))

    def _window(self, t0: float, t1: float) -> List[Sample]:
        """The samples that ended in ``[t0, t1]``, else the nearest one."""
        ends = [s[0] for s in self.samples]
        lo, hi = bisect.bisect_left(ends, t0), bisect.bisect_right(ends, t1)
        if lo < hi:
            return self.samples[lo:hi]
        if not self.samples:
            raise RuntimeError("no host-speed sample taken")
        near = min(
            (i for i in (lo - 1, lo) if 0 <= i < len(self.samples)),
            key=lambda i: min(abs(ends[i] - t0), abs(ends[i] - t1)),
        )
        return [self.samples[near]]

    def speed(self, t0: float, t1: float) -> float:
        """Mean CPU speed over ``[t0, t1]`` relative to the reference
        host."""
        return statistics.fmean(
            REF_BURST_S / max(s[1], 1e-9) for s in self._window(t0, t1)
        )

    def steal_share(self, t0: float, t1: float) -> float:
        """Share of the vCPU time wanted over ``[t0, t1]`` that was
        stolen, from the last sample before ``t0`` to the first after
        ``t1`` (the interval's own ends where there is none)."""
        ends = [s[0] for s in self.samples]
        lo = max(bisect.bisect_right(ends, t0) - 1, 0)
        hi = min(bisect.bisect_left(ends, t1), len(self.samples) - 1)
        if hi <= lo:
            return 0.0
        busy = self.samples[hi][3] - self.samples[lo][3]
        steal = self.samples[hi][4] - self.samples[lo][4]
        return steal / (busy + steal) if busy + steal > 0 else 0.0

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done in ``[t0, t1]``."""
        inside = self._window(t0, t1)
        bursts = sum(s[2] for s in inside if t0 <= s[0] <= t1)
        return (
            max(t1 - t0 - bursts, 0.0)
            * (1.0 - self.steal_share(t0, t1))
            * self.speed(t0, t1)
        )
