"""Service-level chaos matrix: every injected failure mode, same bytes.

Each case boots a real multi-worker server (``ServerThread`` +
``ServeClient``) with a seeded service-chaos mix — worker crashes,
self-SIGKILL on claim, heartbeat hangs, stalls before the result
report, dead-on-arrival leases — runs a small campaign, and asserts
the three promises that make the failure injection worth having:

* **no job lost, none duplicated** — every submitted key converges to
  exactly one DONE record, over HTTP and in a cold rebuild from the
  journal;
* **byte-identical results** — whatever crashed, hung or got fenced
  along the way, the served bytes equal a direct serial run's;
* **honest health** — ``/healthz`` reports per-worker liveness and
  ``/metrics`` the recovery counters that actually fired.

Chaos decisions are deterministic on ``(key, attempt)``, so every case
replays identically from its seed regardless of which worker drew the
job.
"""

from __future__ import annotations

import pytest

from repro.flows import run_full_flow
from repro.serve.job import DONE, JobSpec
from repro.serve.queue import JobQueue
from repro.serve.results import flow_result_payload, render_result
from repro.serve.client import ServeClient
from repro.serve.server import ServerConfig, ServerThread

SEEDS = (1, 2, 3, 4)


def campaign_spec(seed: int) -> JobSpec:
    return JobSpec(
        circuit="s27",
        task="flow",
        seed=seed,
        tgen_max_len=64,
        compaction_sims=0,
        l_g=32,
    )


@pytest.fixture(scope="module")
def reference():
    """Serial-run bytes per seed — the ground truth every case diffs
    against."""
    out = {}
    for seed in SEEDS:
        spec = campaign_spec(seed)
        flow = run_full_flow(spec.circuit, spec.flow_config())
        out[seed] = render_result(flow_result_payload(flow))
    return out


CASES = {
    # Crashes: workers die mid-compute or SIGKILL themselves the
    # moment a claim arrives.
    "crash": "worker_crash=0.4,kill_claim=0.3,seed=3",
    # Liveness: heartbeats pause long enough to trip the hang
    # detector, and some leases arrive pre-expired.
    "hang": "worker_hang=0.4,hang_s=1.0,lease_expire=0.3,seed=5",
    # Durability: workers stall between computing and reporting
    # (inviting lease expiry + fencing).  The id stays "tear" so the
    # case keeps its test name.
    "tear": "worker_stall=0.4,hang_s=1.0,seed=7",
    # Everything at once — the full matrix.
    "all": (
        "worker_crash=0.4,worker_hang=0.2,kill_claim=0.3,"
        "lease_expire=0.3,seed=11,hang_s=1.0"
    ),
}


@pytest.mark.parametrize("mix", sorted(CASES), ids=sorted(CASES))
def test_chaos_mix_converges_byte_identical(tmp_path, reference, mix):
    state = tmp_path / "state"
    config = ServerConfig(
        state_dir=state,
        port=0,
        workers=2,
        chaos=CASES[mix],
        lease_ttl_s=5.0,
        heartbeat_timeout_s=1.5,
    )
    with ServerThread(config) as url:
        client = ServeClient(url)
        keys = [client.submit(campaign_spec(seed))["key"] for seed in SEEDS]
        assert len(set(keys)) == len(SEEDS)

        records = client.wait_all(keys, timeout_s=240.0)
        assert [records[key]["state"] for key in keys] == [DONE] * len(SEEDS)

        # Byte-identity against the chaos-free serial run.
        for seed, key in zip(SEEDS, keys):
            assert client.result_bytes(key) == reference[seed]

        # Exactly the submitted jobs exist — no duplicates, no strays.
        listed = client.jobs()
        assert sorted(j["key"] for j in listed) == sorted(keys)

        # Health tells the truth: per-worker rows with liveness detail.
        workers = client.healthz()["workers"]
        assert len(workers) >= 2
        assert any(w["alive"] for w in workers if not w.get("degraded"))
        for row in workers:
            assert {"name", "alive", "busy", "restarts"} <= set(row)

        metrics = client.metrics()
        counters = metrics["counters"]
        queue_view = metrics["queue"]
        assert queue_view["jobs"] == {"done": len(SEEDS)}
        assert queue_view["active_leases"] == 0
        if mix in ("crash", "all"):
            assert counters["worker_restarts"] >= 1
        if mix in ("hang", "all"):
            assert counters["lease_expiries"] >= 1

    # The journal survived the chaos: a cold rebuild from disk holds
    # exactly one DONE record per submitted key — no loss, no
    # duplication.
    rebuilt = JobQueue(state / "queue" / "journal.json")
    assert sorted(j.key for j in rebuilt.jobs()) == sorted(keys)
    assert all(j.state == DONE for j in rebuilt.jobs())
