"""End-to-end progress feed: ``GET /jobs/<key>/events`` + watch().

Boots a real server, runs a real flow, and follows its event stream.
The stream contract: seq 0 is ``job_queued``, then ``job_running``,
then flow stage events, finally ``job_done`` with the feed closed —
and the *kind sequence* is identical whether the job ran on the
in-process scheduler (workers=1) or a supervised worker pool
(workers=2).
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.errors import ServeError
from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.serve.http import HttpRequest
from repro.serve.job import JobSpec
from repro.serve.queue import JobQueue
from repro.serve.server import CampaignServer

FAST = dict(circuit="s27", tgen_max_len=256, compaction_sims=8, l_g=64)


def fast_spec(seed=1, **overrides):
    return JobSpec(**{**FAST, "seed": seed, **overrides})


def run_and_watch(tmp_path, workers):
    config = ServerConfig(
        state_dir=tmp_path / f"state{workers}", port=0, workers=workers
    )
    with ServerThread(config) as url:
        client = ServeClient(url)
        key = client.submit(fast_spec(seed=5))["key"]
        events = list(client.watch(key, timeout_s=120.0))
        final = client.events(key)
    return key, events, final


def check_stream(events, final):
    assert events, "no events at all"
    kinds = [e["kind"] for e in events]
    seqs = [e["seq"] for e in events]
    assert seqs == list(range(len(events))), "gapless dense cursor"
    assert kinds[0] == "job_queued"
    assert kinds[1] == "job_running"
    assert kinds[-1] == "job_done"
    assert final["closed"] is True
    assert final["state"] == "done"
    assert int(final["next"]) == len(events)
    return kinds


def test_event_stream_contract_single_worker(tmp_path):
    _key, events, final = run_and_watch(tmp_path, workers=1)
    kinds = check_stream(events, final)
    # Real flow stages appear between running and done.
    assert len(kinds) > 3


def test_event_kind_sequence_identical_across_worker_modes(tmp_path):
    _, events_1, final_1 = run_and_watch(tmp_path, workers=1)
    _, events_2, final_2 = run_and_watch(tmp_path, workers=2)
    kinds_1 = check_stream(events_1, final_1)
    kinds_2 = check_stream(events_2, final_2)
    assert kinds_1 == kinds_2


def test_events_cursor_and_error_paths(tmp_path):
    config = ServerConfig(state_dir=tmp_path / "state", port=0)
    with ServerThread(config) as url:
        client = ServeClient(url)
        key = client.submit(fast_spec(seed=6))["key"]
        client.wait(key, timeout_s=60.0)

        # timeout=0 on a closed feed returns everything immediately.
        payload = client.events(key, since=0, timeout_s=0.0)
        total = len(payload["events"])
        assert payload["closed"] is True and total >= 3

        # A mid-stream cursor returns only the suffix.
        tail = client.events(key, since=total - 1)
        assert [e["seq"] for e in tail["events"]] == [total - 1]
        assert tail["next"] == total

        # Past-the-end cursor: no events, still closed.
        empty = client.events(key, since=total)
        assert empty["events"] == [] and empty["closed"] is True

        # Unknown job → 404, negative cursor → 400; both ServeError.
        with pytest.raises(ServeError):
            client.events("no-such-job")
        with pytest.raises(ServeError):
            client.events(key, since=-1)


def test_feed_stays_open_until_the_book_closes(tmp_path):
    # The scheduler and the supervisor mark a job terminal in the queue
    # before they post ``job_done`` to the book.  A poll in that window
    # must not report the feed closed, or a watcher stops one event
    # short.  The server is built but never run: nothing executes the
    # job, so every step below happens in this order.
    server = CampaignServer(ServerConfig(state_dir=tmp_path / "state", port=0))
    spec = fast_spec(seed=7)

    async def poll(key, since, timeout_s):
        request = HttpRequest(
            "GET", f"/jobs/{key}/events", {},
            params={"key": key},
            query={"since": str(since), "timeout": str(timeout_s)},
        )
        response = await server._get_job_events(request)
        assert response.status == 200
        return json.loads(response.body)

    async def scenario():
        submitted = await server._post_jobs(
            HttpRequest(
                "POST", "/jobs", {}, body=json.dumps(spec.to_dict()).encode()
            )
        )
        key = json.loads(submitted.body)["key"]
        assert server.queue.claim_next().key == key
        server.progress.post(key, "job_running")
        server.queue.finish(key, ok=True, stats={})
        assert server.queue.get(key).terminal

        first = await poll(key, 0, 0.0)
        assert first["closed"] is False
        assert [e["kind"] for e in first["events"]] == [
            "job_queued", "job_running"
        ]
        # Caught up on a terminal job whose book is still open: the
        # poll parks on the book instead of returning closed.
        parked = asyncio.ensure_future(poll(key, first["next"], 10.0))
        await asyncio.sleep(0.05)
        server.progress.post(key, "job_done")
        server.progress.close(key, "done")
        second = await parked
        if not second["closed"]:
            second = await poll(key, second["next"], 0.0)
        return first, second

    first, second = asyncio.run(scenario())
    kinds = [e["kind"] for e in first["events"] + second["events"]]
    assert kinds == ["job_queued", "job_running", "job_done"]
    assert second["closed"] is True and second["state"] == "done"


def test_resubmitted_cancelled_job_reopens_its_feed(tmp_path, monkeypatch):
    # Resubmitting a cancelled job creates it again under the same key.
    # The cancel closed its feed; the revival must reopen it, or a
    # watcher stops at the second ``job_queued`` and never sees the run.
    # The queue is held until the revival is checked, so the cancel
    # always hits a queued job.
    gate = threading.Event()
    claim = JobQueue.claim_next

    def gated_claim(self):
        return claim(self) if gate.is_set() else None

    monkeypatch.setattr(JobQueue, "claim_next", gated_claim)
    config = ServerConfig(state_dir=tmp_path / "state", port=0)
    with ServerThread(config) as url:
        client = ServeClient(url)
        spec = fast_spec(seed=8)
        key = client.submit(spec)["key"]
        client.cancel(key)
        revived = client.submit(spec)
        assert revived["key"] == key and revived["created"] is True
        feed = client.events(key, timeout_s=0.0)
        assert feed["closed"] is False
        assert [e["kind"] for e in feed["events"]] == [
            "job_queued", "job_cancelled", "job_queued"
        ]
        gate.set()
        kinds = [e["kind"] for e in client.watch(key, timeout_s=120.0)]
        final = client.events(key)
    assert kinds[-1] == "job_done"
    assert "job_running" in kinds[3:]
    assert final["closed"] is True and final["state"] == "done"
