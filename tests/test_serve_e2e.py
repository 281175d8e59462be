"""End-to-end acceptance test for the campaign server.

The scenario the serve subsystem exists for, run against real
processes:

1. boot ``repro serve`` as a subprocess on an ephemeral port;
2. submit eight mixed-priority jobs over HTTP;
3. SIGTERM the server in the middle of the campaign — it drains
   gracefully (finishes the in-flight job, journals the rest) and
   exits 0;
4. restart the server on the same state directory — every remaining
   job is requeued and completes;
5. every result is byte-identical to running the same flow directly
   via :func:`run_full_flow`;
6. a rate-limited client observes 429 with a ``Retry-After`` and,
   after backing off, loses none of its accepted jobs.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import RateLimited
from repro.flows.full_flow import run_full_flow
from repro.serve import ServeClient, flow_result_payload, render_result
from repro.serve.job import JobSpec

REPO = Path(__file__).resolve().parent.parent

#: Eight jobs, every priority band represented, seeds distinct so no
#: two jobs dedup onto each other.
CAMPAIGN = [
    JobSpec(
        circuit="s27",
        seed=seed,
        tgen_max_len=512,
        compaction_sims=16,
        l_g=128,
        priority=priority,
        client=client,
    )
    for seed, priority, client in [
        (1, 0, "alice"),
        (2, 9, "alice"),
        (3, 4, "bob"),
        (4, 7, "bob"),
        (5, 2, "carol"),
        (6, 5, "carol"),
        (7, 8, "alice"),
        (8, 1, "bob"),
    ]
]


def start_server(state_dir: Path, *extra: str) -> tuple:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--state-dir",
            str(state_dir),
            "--port",
            "0",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    # The ready line is printed (and flushed) once the port is bound:
    #   repro-serve: listening on http://127.0.0.1:NNNNN (state: ...)
    line = process.stdout.readline()
    assert "listening on http://" in line, f"unexpected boot line: {line!r}"
    url = line.split("listening on ")[1].split(" ")[0]
    return process, url


def stop_server(process) -> str:
    process.send_signal(signal.SIGTERM)
    out, _ = process.communicate(timeout=120)
    assert process.returncode == 0, f"server exited {process.returncode}:\n{out}"
    return out


def test_campaign_survives_sigterm_and_restart(tmp_path):
    state = tmp_path / "state"
    process, url = start_server(state)
    try:
        client = ServeClient(url)
        keys = []
        for spec in CAMPAIGN:
            record = client.submit(spec)
            assert record["created"] is True
            keys.append(record["key"])
        assert len(set(keys)) == len(CAMPAIGN)

        # Let the campaign get genuinely mid-flight: at least one job
        # done, at least one still waiting.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            health = client.healthz()
            done = health["jobs"].get("done", 0)
            if done >= 1 and health["queue_depth"] >= 1:
                break
            if done == len(CAMPAIGN):
                break  # machine too fast to catch mid-run; still valid
            time.sleep(0.02)

        out = stop_server(process)
        assert "drained cleanly" in out
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup only
            process.kill()

    # -- restart on the same state directory ----------------------------
    process, url = start_server(state)
    try:
        client = ServeClient(url)
        # No accepted job was dropped by the kill: all eight are known.
        assert {j["key"] for j in client.jobs()} == set(keys)

        records = client.wait_all(keys, timeout_s=300.0)
        assert {r["state"] for r in records.values()} == {"done"}

        # Byte-identity: each served result equals the same flow run
        # directly in this process, rendered canonically.
        for spec, key in zip(CAMPAIGN, keys):
            served = client.result_bytes(key)
            direct = run_full_flow(spec.circuit, spec.flow_config())
            assert served == render_result(flow_result_payload(direct)), (
                f"served result for seed {spec.seed} diverged"
            )

        metrics = client.metrics()
        assert metrics["counters"]["requeued"] >= 1  # the restart resumed work
    finally:
        stop_server(process) if process.poll() is None else None


def test_multiworker_campaign_survives_sigkill_and_restart(tmp_path):
    """The supervised fleet under the harshest exit: SIGKILL the whole
    server mid-campaign (no drain, no atexit — the leases in the
    journal are all that survive), restart on the same state dir, and
    every job still converges byte-identically."""
    state = tmp_path / "state"
    specs = CAMPAIGN[:4]
    process, url = start_server(
        state, "--workers", "2", "--lease-ttl", "10", "--heartbeat-timeout", "5"
    )
    try:
        client = ServeClient(url)
        keys = [client.submit(spec)["key"] for spec in specs]
        health = client.healthz()
        assert [w["name"] for w in health["workers"]] == ["w0", "w1"]

        # Catch the campaign genuinely mid-flight, then pull the plug.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            jobs = client.healthz()["jobs"]
            if jobs.get("done", 0) >= 1 and jobs.get("done", 0) < len(specs):
                break
            time.sleep(0.02)
        process.kill()  # SIGKILL: workers are orphaned, nothing drains
        process.communicate(timeout=60)
        assert process.returncode != 0
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup only
            process.kill()

    process, url = start_server(
        state, "--workers", "2", "--lease-ttl", "10", "--heartbeat-timeout", "5"
    )
    try:
        client = ServeClient(url)
        # The journal restored every accepted job exactly once.
        listed = client.jobs()
        assert sorted(j["key"] for j in listed) == sorted(keys)

        records = client.wait_all(keys, timeout_s=300.0)
        assert {r["state"] for r in records.values()} == {"done"}
        for spec, key in zip(specs, keys):
            served = client.result_bytes(key)
            direct = run_full_flow(spec.circuit, spec.flow_config())
            assert served == render_result(flow_result_payload(direct)), (
                f"served result for seed {spec.seed} diverged after SIGKILL"
            )
        metrics = client.metrics()
        assert metrics["queue"]["active_leases"] == 0
    finally:
        out = stop_server(process) if process.poll() is None else ""
        assert "Traceback" not in out


def test_optimize_job_result_matches_direct_search(tmp_path):
    """A ``task="optimize"`` job's stored result is byte-identical to
    running :func:`repro.optimize.run_optimize` directly on the same
    spec — the same canonical-bytes promise flow jobs make."""
    from repro.optimize import run_optimize
    from repro.serve.results import optimize_result_payload

    spec = JobSpec(
        circuit="s27",
        task="optimize",
        seed=1,
        tgen_max_len=64,
        compaction_sims=0,
        l_g=32,
        population=4,
        generations=1,
    )
    process, url = start_server(tmp_path / "state")
    try:
        client = ServeClient(url)
        record = client.submit(spec)
        assert record["created"] is True
        key = record["key"]
        records = client.wait_all([key], timeout_s=120.0)
        assert records[key]["state"] == "done"
        served = client.result_bytes(key)
    finally:
        out = stop_server(process) if process.poll() is None else ""
        assert "Traceback" not in out

    direct = run_optimize(spec.circuit, spec.optimize_config())
    assert served == render_result(optimize_result_payload(direct))


def test_rate_limited_client_backs_off_and_loses_nothing(tmp_path):
    process, url = start_server(
        tmp_path / "state", "--rate", "2", "--burst", "2"
    )
    try:
        client = ServeClient(url, client_id="flood")
        specs = [
            JobSpec(
                circuit="s27",
                seed=100 + i,
                tgen_max_len=256,
                compaction_sims=4,
                l_g=64,
                client="flood",
            )
            for i in range(6)
        ]
        limited = 0
        accepted = []
        for spec in specs:
            try:
                accepted.append(client.submit(spec)["key"])
            except RateLimited as exc:
                limited += 1
                assert exc.status == 429
                assert exc.retry_after_s > 0.0
        assert limited >= 1, "burst of 6 at rate 2/s never hit the limiter"

        # The raw header is machine-readable on the wire, not just in
        # the JSON body.
        status, headers, _ = client._request(
            "POST", "/jobs", specs[-1].to_dict()
        )
        if status == 429:
            assert int(headers["retry-after"]) >= 1

        # Backing off per Retry-After, everything is eventually
        # accepted — and nothing accepted is ever dropped.
        keys = list(accepted)
        for spec in specs:
            record = client.submit_with_backoff(spec, max_wait_s=30.0)
            keys.append(record["key"])
        keys = sorted(set(keys))
        assert len(keys) == len(specs)

        records = client.wait_all(keys, timeout_s=120.0)
        assert {r["state"] for r in records.values()} == {"done"}
    finally:
        out = stop_server(process) if process.poll() is None else ""
        assert "Traceback" not in out
