"""Tests for ``compare.py`` on synthetic results files.

Run with ``python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

import compare

SPEC = json.loads((compare.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def results(
    wall: List[float],
    failed: int = 0,
    other: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """A results file: every workload gets the same runs."""
    runs = []
    for seed, value in enumerate(wall, start=1):
        metrics = {"wall_ref_s": value, "setup_s": 0.5, "peak_rss_mb": 40.0,
                   "jobs_per_ref_s": 1.0 / value}
        metrics.update(other or {})
        for workload in WORKLOADS:
            runs.append({
                "workload": workload, "seed": seed, "trace": 0,
                "exit_code": 0,
                "result": {
                    "correct": failed == 0, "attempted": 10,
                    "failed": failed,
                    "metrics": {
                        k: {"value": v, "unit": "x"} for k, v in metrics.items()
                    },
                },
            })
    return {"meta": {}, "runs": runs}


def verdicts(parent, change, metric="wall_ref_s"):
    rows = compare.compare(parent, change, SPEC)
    return {r["workload"]: r["verdict"] for r in rows if r["metric"] == metric}


def steady(center: float, n: int = 10) -> List[float]:
    """``n`` values within +-1% of ``center``."""
    return [center * (1 + 0.002 * ((i * 7) % 11 - 5)) for i in range(n)]


def test_same_code_is_unchanged():
    a, b = results(steady(6.0)), results(steady(6.02))
    assert set(verdicts(a, b).values()) == {"unchanged"}
    assert set(verdicts(a, b, "fail_frac").values()) == {"unchanged"}


def test_a_slowdown_past_the_bound_is_worse():
    slower = 1 + BOUND["wall_ref_s"] * 1.5
    a, b = results(steady(6.0)), results(steady(6.0 * slower))
    assert set(verdicts(a, b).values()) == {"worse"}
    assert set(verdicts(a, b, "jobs_per_ref_s").values()) == {"worse"}
    # A slowdown within the bound is not a regression.
    c = results(steady(6.0 * (1 + BOUND["wall_ref_s"] / 2)))
    assert set(verdicts(a, c).values()) == {"unchanged"}


def test_a_gain_needs_ten_pairs_won():
    a, b = results(steady(6.0)), results(steady(5.0))
    assert set(verdicts(a, b).values()) == {"better"}
    assert set(verdicts(a, b, "jobs_per_ref_s").values()) == {"better"}
    # Nine pairs are not enough evidence, however clear.
    a9, b9 = results(steady(6.0, 9)), results(steady(5.0, 9))
    assert set(verdicts(a9, b9).values()) == {"unchanged"}


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [4.0, 8.0, 5.0, 7.0, 6.0, 4.5, 7.5, 5.5, 6.5, 6.0]
    a, b = results(noisy), results([v * 1.02 for v in reversed(noisy)])
    assert set(verdicts(a, b).values()) == {"unresolved"}
    # ... unless every run of the change beats every run of the parent
    # (too few pairs to claim a gain, but not a regression either).
    a9, c9 = results(noisy[:9]), results([v / 3 for v in noisy[:9]])
    assert set(verdicts(a9, c9).values()) == {"unchanged"}


def test_more_failures_is_worse(tmp_path: Path):
    a, b = results(steady(6.0)), results(steady(6.0), failed=1)
    assert set(verdicts(a, b, "fail_frac").values()) == {"worse"}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert compare.main([str(pa), str(pa)]) == 0
    assert compare.main([str(pa), str(pb)]) == 1


def test_a_crashed_run_is_worse(tmp_path: Path):
    a, b = results(steady(6.0)), results(steady(6.0))
    # Two of the change's runs of the first workload crash: one prints
    # no result, one times out in the every-workload mode.
    crashed = [r for r in b["runs"] if r["workload"] == WORKLOADS[0]][:2]
    crashed[0].update(exit_code=1, result=None)
    crashed[1].update(exit_code=-9, result=None)
    got = verdicts(a, b, "fail_frac")
    assert got[WORKLOADS[0]] == "worse"
    assert set(got[w] for w in WORKLOADS[1:]) == {"unchanged"}
    # The surviving runs alone would read unchanged.
    assert verdicts(a, b)[WORKLOADS[0]] == "unchanged"
    assert compare.failures(b, WORKLOADS[0]) == (2, 82)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert compare.main([str(pa), str(pb)]) == 1


def test_unreadable_input_exits_2(tmp_path: Path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"runs": "nope"}))
    assert compare.main([str(bad), str(bad)]) == 2
    assert compare.main([str(tmp_path / "missing.json"), str(bad)]) == 2
    assert compare.main([]) == 2
