"""Tests for the host-speed probe's arithmetic and its timer.

Run with ``python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import signal
import time

import pytest

import hostspeed
from hostspeed import PERIOD_S, REF_BURST_S, HostSpeed, cpu_ticks


def probe(*samples):
    """A probe holding ``samples``; three-field samples get no steal."""
    host = HostSpeed()
    host.samples = [s if len(s) == 5 else (*s, 0, 0) for s in samples]
    return host


def test_half_speed_halves_the_reference_time():
    # Two bursts inside [0, 10], each at half the reference speed.
    host = probe((2.0, 2 * REF_BURST_S, 0.01), (6.0, 2 * REF_BURST_S, 0.01))
    assert host.speed(0.0, 10.0) == pytest.approx(0.5)
    assert host.ref_seconds(0.0, 10.0) == pytest.approx((10.0 - 0.02) * 0.5)


def test_speed_is_the_mean_of_the_samples_inside():
    host = probe(
        (1.0, REF_BURST_S, 0.002), (2.0, REF_BURST_S / 2, 0.001),
        (9.0, REF_BURST_S / 4, 0.0005),
    )
    assert host.speed(0.0, 3.0) == pytest.approx(1.5)
    # Samples outside the interval neither count nor are subtracted.
    assert host.ref_seconds(0.0, 3.0) == pytest.approx((3.0 - 0.003) * 1.5)


def test_an_interval_without_a_sample_takes_the_nearest():
    host = probe((1.0, REF_BURST_S, 0.002), (5.0, REF_BURST_S / 2, 0.001))
    assert host.speed(4.0, 4.5) == pytest.approx(2.0)
    assert host.ref_seconds(4.0, 4.5) == pytest.approx(1.0)
    assert host.speed(1.2, 1.4) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        HostSpeed().speed(0.0, 1.0)


def test_stolen_time_is_taken_out():
    # From the sample before t0 to the one after t1: 300 ticks wanted,
    # 100 of them stolen.
    host = probe(
        (0.5, REF_BURST_S, 0.0, 1000, 50),
        (2.0, REF_BURST_S, 0.0, 1100, 90),
        (4.5, REF_BURST_S, 0.0, 1200, 150),
    )
    assert host.steal_share(1.0, 4.0) == pytest.approx(100 / 300)
    assert host.ref_seconds(1.0, 4.0) == pytest.approx(3.0 * 2 / 3)
    # No counter moved (or none counted): nothing is taken out.
    assert probe((1.0, REF_BURST_S, 0.0)).steal_share(0.0, 2.0) == 0.0


def test_without_kernel_counters_nothing_is_stolen(monkeypatch, tmp_path):
    monkeypatch.setattr(hostspeed, "PROC_STAT", str(tmp_path / "missing"))
    assert cpu_ticks() == (0, 0)


def test_the_timer_samples_and_stops():
    host = HostSpeed()
    host.start()
    try:
        t0 = time.monotonic()
        while time.monotonic() - t0 < 10 * PERIOD_S:
            sum(range(1000))
        t1 = time.monotonic()
    finally:
        host.stop()
    assert len(host.samples) >= 5
    assert all(cpu > 0 and wall > 0 for _, cpu, wall, _, _ in host.samples)
    assert 0.0 <= host.steal_share(t0, t1) < 1.0
    assert 0 < host.ref_seconds(t0, t1) < 100 * (t1 - t0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
