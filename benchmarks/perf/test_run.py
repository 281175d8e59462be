"""Tests for the benchmark's output checks and its failure exit.

Run with ``python -m pytest benchmarks/perf -q``.  The end-to-end case
runs one ``flow_hw_g208`` flow (about 7 s).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.fixture(scope="module")
def s27_flow():
    from repro import FlowConfig, ProcedureConfig, run_full_flow

    config = FlowConfig(
        procedure=ProcedureConfig(l_g=64), synthesize_hardware=True
    )
    return run_full_flow("s27", config)


def test_a_correct_flow_has_no_problems(s27_flow):
    digest = workloads.flow_digest(s27_flow)
    assert workloads.flow_problems(s27_flow, digest, hardware=True) == []


def test_a_corrupted_digest_is_a_problem(s27_flow):
    digest = workloads.flow_digest(s27_flow)
    corrupted = ("0" if digest[0] != "0" else "1") + digest[1:]
    problems = workloads.flow_problems(s27_flow, corrupted)
    assert len(problems) == 1 and "digest" in problems[0]


def test_an_unverified_tpg_is_a_problem(s27_flow):
    digest = workloads.flow_digest(s27_flow)
    broken = dataclasses.replace(s27_flow, tpg_verified=False)
    problems = workloads.flow_problems(broken, digest, hardware=True)
    assert problems == ["s27: TPG replay not verified"]


def test_failed_checks_give_fail_frac_and_a_nonzero_exit(monkeypatch, capsys):
    def fake_spawn(name, seed, seconds, trace, setup_only, timeout_s):
        report = {"setup_s": 0.3, "raw_setup_s": 0.4}
        if not setup_only:
            report.update(
                attempted=3, failed=1, problems=["g208: digest 1 != 2"],
                durations=[6.0, 6.1], raw_durations=[8.0, 8.1],
                e2e={"wall_ref_s": 6.05, "jobs_per_ref_s": 0.16},
            )
        return report

    monkeypatch.setattr(run, "spawn", fake_spawn)
    code = run.main(["--workload", "flow_hw_g208", "--seconds", "1"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert line["correct"] is False
    assert line["failed"] / line["attempted"] > 0
    assert set(line["metrics"]) == set(run.END_TO_END)


def test_a_corrupted_golden_file_fails_the_run(tmp_path):
    """The real command against a golden file with one digest changed."""
    bench = tmp_path / "benchmarks" / "perf"
    shutil.copytree(
        run.HERE, bench,
        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"),
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "src").symlink_to(run.ROOT / "src")
    golden = json.loads((bench / "golden.json").read_text())
    golden["digests"]["flow_hw_g208"]["g208"] = "0" * 64
    (bench / "golden.json").write_text(json.dumps(golden))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "flow_hw_g208",
         "--seconds", "1"],
        capture_output=True, text=True, timeout=170,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert line["correct"] is False
    assert line["attempted"] >= 1 and line["failed"] / line["attempted"] > 0


def test_without_the_package_source_it_fails_and_prints_no_result(tmp_path):
    bench = tmp_path / "benchmarks" / "perf"
    shutil.copytree(
        run.HERE, bench,
        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"),
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "serve_s27",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
