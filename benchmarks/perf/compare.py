"""Compare two results files of ``run.py`` per workload and metric.

``python3 benchmarks/perf/compare.py A.json B.json`` treats ``A`` as the
parent and ``B`` as the change.  For every workload and end-to-end
metric of ``BENCHMARK.json`` it prints each side's median and quartiles
over the untraced runs, and one verdict:

* ``better`` -- at least ten pairs of runs, the change wins at least
  nine tenths of them (ties count for neither side), and the medians
  differ by more than the parent's own quartile spread;
* ``worse`` -- the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` -- the run-to-run spread (quartile distance over the
  median, the wider side) exceeds the bound, unless every run of the
  change reads better than every run of the parent (``unchanged``) or
  every one reads worse by more than the bound (``worse``);
* ``unchanged`` -- otherwise.

Runs are paired in file order.  A workload whose share of failed
operations grew is ``worse`` whatever its timings; a run that exited
non-zero without a result (it crashed or timed out) counts as one
failed operation.  Exit code 1 when any verdict is ``worse``, 2 on
unreadable input.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; quartiles as ``statistics.quantiles`` gives."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(
    parent: List[float], change: List[float], bound: float, lower: bool
) -> str:
    """The verdict for one workload and metric (see the module doc)."""

    def gain(a: float, b: float) -> float:
        """How much better ``b`` reads than ``a`` (positive = better)."""
        return a - b if lower else b - a

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = -gain(pm, cm) / pm
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and gain(pm, cm) > p3 - p1
    ):
        return "better"
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    if spread > bound:
        if all(gain(a, b) > 0 for a in parent for b in change):
            return "unchanged"
        if worse_by > bound and all(
            gain(a, b) < 0 for a in parent for b in change
        ):
            return "worse"
        return "unresolved"
    return "worse" if worse_by > bound else "unchanged"


def load(path: Path) -> Dict[str, Any]:
    record = json.loads(path.read_text())
    if not isinstance(record, dict) or not isinstance(
        record.get("runs"), list
    ):
        raise ValueError(f"{path}: not a run.py results file")
    return record


def samples(
    record: Dict[str, Any], workload: str, metric: str
) -> List[float]:
    return [
        run["result"]["metrics"][metric]["value"]
        for run in record["runs"]
        if run["workload"] == workload
        and not run["trace"]
        and run.get("result")
        and metric in run["result"]["metrics"]
    ]


def failures(record: Dict[str, Any], workload: str) -> Tuple[int, int]:
    """``(failed, attempted)`` operations over a workload's runs."""
    failed = attempted = 0
    for run in record["runs"]:
        if run["workload"] != workload:
            continue
        result = run.get("result")
        if not result:
            failed, attempted = failed + 1, attempted + 1
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        if run.get("exit_code") != 0 and not result["failed"]:
            failed += 1
    return failed, attempted


def fail_frac(record: Dict[str, Any], workload: str) -> float:
    failed, attempted = failures(record, workload)
    return failed / max(attempted, 1)


def compare(
    parent: Dict[str, Any], change: Dict[str, Any], spec: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One row per workload x end-to-end metric, plus failure rows."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = samples(parent, workload, name)
            b = samples(change, workload, name)
            row: Dict[str, Any] = {"workload": workload, "metric": name}
            if not a or not b:
                row["verdict"] = "unresolved"
            else:
                row["parent"] = quartiles(a)
                row["change"] = quartiles(b)
                row["n"] = (len(a), len(b))
                row["verdict"] = verdict(
                    a, b, metric["bound"], metric["better"] == "lower"
                )
            rows.append(row)
        fa, fb = fail_frac(parent, workload), fail_frac(change, workload)
        rows.append({
            "workload": workload, "metric": "fail_frac",
            "parent": (fa, fa, fa), "change": (fb, fb, fb), "n": (1, 1),
            "verdict": "worse" if fb > fa else "unchanged",
        })
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    out = [
        f"{'workload':<14} {'metric':<12} {'parent q1/med/q3':>32} "
        f"{'change q1/med/q3':>32} {'n':>7}  verdict"
    ]

    def fmt(q: Optional[Tuple[float, float, float]]) -> str:
        if q is None:
            return "-"
        return "/".join(f"{v:.4g}" for v in q)

    for row in rows:
        n = row.get("n")
        out.append(
            f"{row['workload']:<14} {row['metric']:<12} "
            f"{fmt(row.get('parent')):>32} {fmt(row.get('change')):>32} "
            f"{(f'{n[0]}:{n[1]}' if n else '-'):>7}  {row['verdict']}"
        )
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare.py PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    try:
        parent, change = load(Path(args[0])), load(Path(args[1]))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        rows = compare(parent, change, spec)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"compare.py: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
