"""The repo's end-to-end and per-layer benchmark.

One workload, the command ``BENCHMARK.json`` names::

    python3 benchmarks/perf/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 0 only when every output check passed.

Every workload, every metric::

    python3 benchmarks/perf/run.py [--seed N] [--out FILE]

runs each workload ten times untraced (seeds ``N`` .. ``N+9``; ten
pairs are what ``compare.py`` needs to call a change better) and once
traced, each run in its own process, prints medians and quartiles, and
writes every run to ``FILE`` (stamped with the host and ``git
describe``) for ``compare.py``.

Each run measures in a child process (``workloads.py``).  Times are in
reference seconds: wall time scaled by the host speed sampled while it
passed (``hostspeed.py``); the raw wall times are printed beside them.
Set-up time runs from the child's start to its first timed operation;
for workloads with a cheap set-up, extra set-up-only children are
started and the median reported.  Peak RSS is the largest resident set
of any process the run started.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from compare import MIN_PAIRS, failures, quartiles  # noqa: E402
from instrument import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "jobs_per_ref_s": "1/s",
}
#: What one run may take, set-up and checks included.
RUN_BUDGET_S = 170.0
#: Untraced runs per workload in the every-workload mode.
RUNS = MIN_PAIRS


# -- one run ------------------------------------------------------------------


def spawn(
    name: str, seed: int, seconds: float, trace: bool, setup_only: bool,
    timeout_s: float,
) -> Dict[str, Any]:
    """Run ``workloads.py`` in a child process; returns its report."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"), name,
        "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(int(trace)), "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # A session of its own, so a timeout also stops the child's own
    # children (the server, pool workers).
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=child_env(), text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{name}: no report within {timeout_s:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: child exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(
    name: str, seed: int, seconds: float, trace: bool
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One run: ``(result line, details)``."""
    deadline = time.monotonic() + RUN_BUDGET_S
    setups: List[Dict[str, Any]] = []
    if not trace:
        for _ in range(WORKLOADS[name] - 1):
            left = deadline - time.monotonic()
            setups.append(spawn(name, seed, seconds, trace, True, left))
    left = deadline - time.monotonic()
    report = spawn(name, seed, seconds, trace, False, left)
    setups.append(report)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    raw = report.get("raw_durations") or [0.0]
    details = {
        "setups": len(setups),
        "ops": len(report.get("durations", [])),
        "traced_ops": len(report.get("traced_durations", [])),
        "problems": report["problems"],
        "raw_wall_s": statistics.median(raw),
        "raw_setup_s": statistics.median(s["raw_setup_s"] for s in setups),
    }
    if trace:
        values = report["layers"]
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
    else:
        values = dict(report.get("e2e", {}))
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        values["peak_rss_mb"] = rss_kb / 1024.0
        units = END_TO_END
    line = {
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            k: {"value": values[k], "unit": units[k]}
            for k in units
            if k in values
        },
    }
    return line, details


def describe_run(
    name: str, line: Dict[str, Any], details: Dict[str, Any]
) -> List[str]:
    notes = {
        "wall_ref_s": f"  (median of {details['ops']}; raw wall "
                      f"{details['raw_wall_s']:.4g} s)",
        "jobs_per_ref_s": f"  ({details['ops']} operations)",
        "setup_s": f"  (median of {details['setups']}; raw wall "
                   f"{details['raw_setup_s']:.4g} s)",
    }
    out = [
        f"{name:<14} {metric:<26} {entry['value']:>14.6g} {entry['unit']}"
        + notes.get(metric, "")
        for metric, entry in line["metrics"].items()
    ]
    if details["traced_ops"]:
        out.append(
            f"{name:<14} per-layer values are per operation, over "
            f"{details['traced_ops']} traced and {details['ops']} untraced"
        )
    out.append(
        f"{name:<14} attempted {line['attempted']}, failed "
        f"{line['failed']}, correct {line['correct']}"
    )
    out += [f"{name:<14} problem: {p}" for p in details["problems"]]
    return out


# -- every workload -----------------------------------------------------------


def git_describe() -> str:
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for text in Path("/proc/cpuinfo").read_text().splitlines():
            if text.startswith("model name"):
                return text.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def invoke(
    name: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """One run in a fresh process, exactly as ``BENCHMARK.json`` runs it."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(int(trace)),
    ]
    run: Dict[str, Any] = {
        "workload": name, "seed": seed, "trace": int(trace),
        "exit_code": None, "result": None,
    }
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=RUN_BUDGET_S + 30
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: seed {seed} timed out")
        return run
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    run["exit_code"] = proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        run["result"] = json.loads(lines[-1]) if lines else None
    except ValueError:
        pass  # no result line: the run crashed
    return run


def summary(runs: List[Dict[str, Any]]) -> List[str]:
    out = ["", "workload       metric                 median        q1        "
           "q3   n  unit"]
    for name in WORKLOADS:
        mine = [r for r in runs if r["workload"] == name and r["result"]]
        plain = [r["result"] for r in mine if not r["trace"]]
        for metric, unit in END_TO_END.items():
            values = [
                r["metrics"][metric]["value"]
                for r in plain
                if metric in r["metrics"]
            ]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            out.append(
                f"{name:<14} {metric:<18} {med:>10.4g} {q1:>9.4g} "
                f"{q3:>9.4g} {len(values):>3}  {unit}"
            )
        failed, attempted = failures({"runs": runs}, name)
        out.append(
            f"{name:<14} fail_frac {failed}/{attempted}"
            f" = {failed / max(attempted, 1):.3g}"
        )
    return out


def run_all(seed: int, seconds: float, out: Optional[Path]) -> int:
    runs = []
    for name in WORKLOADS:
        for i in range(RUNS):
            runs.append(invoke(name, seed + i, seconds, False))
        runs.append(invoke(name, seed, seconds, True))
    record = {
        "meta": {
            "git_describe": git_describe(),
            "host_cpus": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "date": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            "seed": seed, "seconds": seconds, "runs": RUNS,
        },
        "runs": runs,
    }
    print("\n".join(summary(runs)))
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")
    ok = all(
        r["exit_code"] == 0 and r["result"] and r["result"]["correct"]
        for r in runs
    )
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None,
                   help="results file for the every-workload mode")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args.seed, seconds, args.out)
    try:
        line, details = run_workload(
            args.workload, args.seed, seconds, bool(args.trace)
        )
    except (RuntimeError, KeyError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print("\n".join(describe_run(args.workload, line, details)))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
