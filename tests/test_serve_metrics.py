"""Latency read-outs of ``GET /metrics``: exact nearest-rank values."""

from __future__ import annotations

from repro.serve.metrics import LatencyHistogram


def test_percentiles_are_observations_not_bucket_edges():
    hist = LatencyHistogram()
    for seconds in (0.6, 0.3, 0.7):
        hist.observe(seconds)
    out = hist.to_dict()
    assert out["count"] == 3
    assert out["mean_s"] == round((0.3 + 0.6 + 0.7) / 3, 6)
    assert out["p50_s"] == 0.6
    assert out["p90_s"] == 0.7
    assert out["p99_s"] == 0.7


def test_empty_histogram_reads_zero():
    assert LatencyHistogram().to_dict() == {
        "count": 0,
        "mean_s": 0.0,
        "p50_s": 0.0,
        "p90_s": 0.0,
        "p99_s": 0.0,
    }
